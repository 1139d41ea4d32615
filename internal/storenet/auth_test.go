package storenet

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"golatest/internal/store"
)

func TestParseTokens(t *testing.T) {
	ts, err := ParseTokens(strings.NewReader(`
# fleet tokens
reader-1   read
writer-1   read,write
admin-1    admin
`))
	if err != nil {
		t.Fatal(err)
	}
	if ts.Len() != 3 {
		t.Fatalf("parsed %d tokens, want 3", ts.Len())
	}
	// Scope implications: write ⊃ read, admin ⊃ write ⊃ read.
	if e := ts.tokens["writer-1"]; e.scope&ScopeRead == 0 || e.scope&ScopeWrite == 0 || e.scope&ScopeAdmin != 0 {
		t.Fatalf("writer-1 scope = %b", e.scope)
	}
	if e := ts.tokens["admin-1"]; e.scope != expandScope(ScopeAdmin) {
		t.Fatalf("admin-1 scope = %b", e.scope)
	}

	for _, bad := range []string{
		"tok",             // missing scope column
		"tok superuser",   // unknown scope
		"tok read ttl=5",  // unknown setting
		"tok read rps=50", // retired quota settings are unknown too
		"tok read burst=100",
		"tok read bps=1048576",
		"tok read bburst=2097152",
		"tok read\ntok write",        // duplicate token
		"# only comments, no tokens", // empty set locks everyone out
	} {
		if _, err := ParseTokens(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTokens(%q) accepted", bad)
		}
	}
}

// TestParseTokensValidityWindows: the nbf=/expires= grammar populates
// the credential's window, malformed timestamps are rejected at parse
// (not discovered at request time), and a window that can never admit
// anyone is a file error.
func TestParseTokensValidityWindows(t *testing.T) {
	ts, err := ParseTokens(strings.NewReader(`
current  admin nbf=2026-01-01T00:00:00Z expires=2027-01-01T00:00:00Z
forever  read
successor write nbf=2026-09-01T00:00:00Z
retiring write expires=2026-09-01T01:00:00Z
`))
	if err != nil {
		t.Fatal(err)
	}
	if e := ts.tokens["current"]; e.nbf.IsZero() || e.exp.IsZero() || !e.nbf.Before(e.exp) {
		t.Fatalf("current window = [%v, %v)", e.nbf, e.exp)
	}
	if e := ts.tokens["forever"]; !e.nbf.IsZero() || !e.exp.IsZero() {
		t.Fatalf("unbounded token grew a window: [%v, %v)", e.nbf, e.exp)
	}
	if e := ts.tokens["successor"]; e.nbf.IsZero() || !e.exp.IsZero() {
		t.Fatalf("successor window = [%v, %v)", e.nbf, e.exp)
	}

	for _, bad := range []string{
		"tok read expires=tomorrow",                                      // not a timestamp
		"tok read nbf=2026-99-01T00:00:00Z",                              // impossible month
		"tok read expires=2026-09-01",                                    // date without time (not RFC 3339)
		"tok read nbf=2026-09-01T00:00:00Z expires=2026-09-01T00:00:00Z", // empty window
		"tok read nbf=2027-01-01T00:00:00Z expires=2026-01-01T00:00:00Z", // inverted window
	} {
		if _, err := ParseTokens(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTokens(%q) accepted", bad)
		}
	}
}

// TestTokenValidityWindow401: a token outside its window is rejected
// exactly like an unknown one — 401 with an invalid_token challenge —
// while a token inside a bounded window works normally. Windows use
// far-past/far-future instants so the test never races the clock.
func TestTokenValidityWindow401(t *testing.T) {
	past := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	future := time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
	ts := NewTokenSet().
		Grant("live", ScopeAdmin, TokenLimits{NotBefore: past, Expires: future}).
		Grant("expired", ScopeAdmin, TokenLimits{Expires: past}).
		Grant("premature", ScopeAdmin, TokenLimits{NotBefore: future})
	_, hs, _ := authedServer(t, ts)

	get := func(token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, hs.URL+"/v1/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := get("live"); resp.StatusCode != http.StatusOK {
		t.Fatalf("in-window token = %d, want 200", resp.StatusCode)
	}
	for _, token := range []string{"expired", "premature"} {
		resp := get(token)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("%s token = %d, want 401", token, resp.StatusCode)
		}
		if ch := resp.Header.Get("WWW-Authenticate"); !strings.Contains(ch, `error="invalid_token"`) {
			t.Fatalf("%s token challenge = %q, want invalid_token", token, ch)
		}
	}
}

// authedServer mounts a store on an authed loopback server and returns
// it with a request counter, so tests can assert exactly how many
// requests a client actually sent (no-retry-storm proofs).
func authedServer(t *testing.T, ts *TokenSet) (*store.Store, *httptest.Server, *atomic.Int64) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(st, ServerOptions{Auth: ts})
	var reqs atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	return st, hs, &reqs
}

// TestAuthScopeEnforcement walks the 401/403 matrix: no token, unknown
// token, and a read-scoped token attempting writes and admin ops.
func TestAuthScopeEnforcement(t *testing.T) {
	ts := NewTokenSet().
		Grant("r-token", ScopeRead, TokenLimits{}).
		Grant("w-token", ScopeWrite, TokenLimits{}).
		Grant("a-token", ScopeAdmin, TokenLimits{})
	_, hs, _ := authedServer(t, ts)

	status := func(method, path, token string) int {
		req, err := http.NewRequest(method, hs.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	cases := []struct {
		method, path, token string
		want                int
	}{
		{"GET", "/v1/stats", "", http.StatusUnauthorized},
		{"GET", "/v1/stats", "no-such-token", http.StatusUnauthorized},
		{"GET", "/v1/stats", "r-token", http.StatusOK},
		{"GET", "/v1/index", "r-token", http.StatusOK},
		{"PUT", "/v1/blobs/deadbeef", "r-token", http.StatusForbidden},
		{"POST", "/v1/leases/deadbeef/acquire", "r-token", http.StatusForbidden},
		{"POST", "/v1/gc", "r-token", http.StatusForbidden},
		{"POST", "/v1/gc", "w-token", http.StatusForbidden}, // gc is admin-only
		{"POST", "/v1/gc", "a-token", http.StatusOK},
		// Probes and the scrape endpoint never need a token.
		{"GET", "/healthz", "", http.StatusOK},
		{"GET", "/readyz", "", http.StatusOK},
		{"GET", "/metrics", "", http.StatusOK},
	}
	for _, c := range cases {
		if got := status(c.method, c.path, c.token); got != c.want {
			t.Errorf("%s %s token=%q = %d, want %d", c.method, c.path, c.token, got, c.want)
		}
	}
}

// TestClientAuthTerminal: 401/403 are terminal for the client — one
// request, no retries, typed ErrAuth, and a tiered client never defers
// the refused Put to the pending journal.
func TestClientAuthTerminal(t *testing.T) {
	ts := NewTokenSet().Grant("r-token", ScopeRead, TokenLimits{})
	_, hs, reqs := authedServer(t, ts)
	cache, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(hs.URL, ClientOptions{
		Cache:        cache,
		Token:        "r-token", // read-only: every Put is a 403
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	k := testKey(t, 0)
	before := reqs.Load()
	err = c.Put(k, testResult(0))
	if !errors.Is(err, ErrAuth) {
		t.Fatalf("put with read-only token: %v, want ErrAuth", err)
	}
	if got := reqs.Load() - before; got != 1 {
		t.Fatalf("refused put sent %d requests, want exactly 1 (no retry storm)", got)
	}
	// Never journaled: a 4xx is a deterministic refusal, and replaying
	// it at reconcile time would fail identically.
	if rs := c.Resilience(); rs.Deferred != 0 || rs.Pending != 0 {
		t.Fatalf("auth-refused put was journaled: %+v", rs)
	}
	// TryAcquire surfaces the same typed error.
	if _, _, err := c.TryAcquire(k.Digest, "owner", time.Minute); !errors.Is(err, ErrAuth) {
		t.Fatalf("acquire with read-only token: %v, want ErrAuth", err)
	}

	// A wrong token altogether: reads degrade to a miss (one request,
	// no retries), the Backend read contract.
	bad, err := NewClient(hs.URL, ClientOptions{Token: "wrong", RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	before = reqs.Load()
	if _, ok := bad.Get(k); ok {
		t.Fatal("Get with a bad token returned a result")
	}
	if got := reqs.Load() - before; got != 1 {
		t.Fatalf("401 Get sent %d requests, want exactly 1", got)
	}
}

// TestClient429IsPlainRefusal: a 429 (from a proxy, say — the daemon
// sends none) is an ordinary 4xx refusal. One request, no retries, no
// breaker strike, and a tiered client never journals the refused Put.
func TestClient429IsPlainRefusal(t *testing.T) {
	var reqs atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "throttled", http.StatusTooManyRequests)
	}))
	defer hs.Close()
	cache, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(hs.URL, ClientOptions{
		Cache:            cache,
		Retries:          3,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 1, // a single strike would open it
	})
	if err != nil {
		t.Fatal(err)
	}

	err = c.Put(testKey(t, 0), testResult(0))
	if err == nil || errors.Is(err, store.ErrUnreachable) || errors.Is(err, ErrAuth) {
		t.Fatalf("put against a 429: %v, want a plain refusal", err)
	}
	if got := reqs.Load(); got != 1 {
		t.Fatalf("refused put sent %d requests, want exactly 1", got)
	}
	if rs := c.Resilience(); rs.Deferred != 0 || rs.Pending != 0 {
		t.Fatalf("429-refused put was journaled: %+v", rs)
	}
	if !c.Healthy() || c.Telemetry().BreakerOpened != 0 {
		t.Fatal("a 429 opened the circuit breaker")
	}
}

// TestAuthedProbesWhileDrainingAndThrottled is the regression at the
// handler level: a daemon that is draining AND enforcing auth still
// answers /healthz, /readyz, and /metrics without a token — probes and
// scrapers must never be collateral of tenant auth or shutdown.
func TestAuthedProbesWhileDrainingAndThrottled(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTokenSet().Grant("reader", ScopeRead, TokenLimits{})
	srv := NewServerWith(st, ServerOptions{Auth: ts})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	srv.SetDraining(true)

	probe := func(path string) (int, string) {
		resp, err := http.Get(hs.URL + path) // deliberately token-free
		if err != nil {
			t.Fatalf("probe %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	// The API enforces auth while draining, and the rejection is
	// observed for the scrape below.
	if code, _ := probe("/v1/stats"); code != http.StatusUnauthorized {
		t.Fatalf("tokenless API while draining = %d, want 401", code)
	}
	if code, _ := probe("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", code)
	}
	// Draining readiness is 503 — an orchestration answer, not a 401:
	// the probe got through auth to the real state.
	if code, _ := probe("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", code)
	}
	code, body := probe("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics while draining = %d, want 200", code)
	}
	// The scrape even reports the 401 it was itself never subject to:
	// rejections are observed with their endpoint label.
	if !strings.Contains(body, `stored_requests_total{endpoint="GET /v1/stats",code="401"}`) {
		t.Fatalf("metrics scrape does not report the 401:\n%s", body)
	}
}
