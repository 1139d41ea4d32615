package storenet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"golatest/internal/core"
	"golatest/internal/obs"
	"golatest/internal/store"
)

// ErrUnavailable marks a request fast-failed by the open circuit
// breaker: the daemon is evidently down and the client refused to burn
// a timeout finding out again. Reads treat it as a miss. It wraps
// store.ErrUnreachable, so a Put carrying it is deferred to a local
// tier's journal (the client's own, or a router's).
var ErrUnavailable = fmt.Errorf("storenet: store unavailable (circuit open): %w", store.ErrUnreachable)

// ErrAuth marks a request the daemon understood and refused on
// credentials: 401 (missing/unknown token) or 403 (insufficient
// scope). Terminal by design — the identical request would be refused
// identically, so it is never retried and a Put carrying it is never
// deferred to the pending journal (a journal full of doomed replays
// would turn a config error into silent data loss at reconcile time).
// Fix ClientOptions.Token or the daemon's token file instead.
var ErrAuth = errors.New("storenet: rejected by daemon auth (check ClientOptions.Token and its scopes)")

// Client speaks the v1 API to a stored daemon and implements
// store.Backend, so fleet sweeps and experiment suites use a remote
// store through the exact code paths they use for a local directory.
//
// With Options.Cache set, the client reads through and writes through
// a local store.Tier, which also journals the Puts an outage defers.
// Leases always go remote: claims must be arbitrated fleet-wide.
//
// # Failure discipline
//
// Reads degrade, writes surface — the Backend contract. Idempotent
// verbs (GET, HEAD, PUT: content-addressed, same bytes every time) are
// retried with jittered backoff on connection errors and 5xx responses;
// lease operations are never retried, because an acquire whose response
// was lost may have been granted — the claim loop's wait/steal path
// resolves that ambiguity within one TTL, which a blind retry would
// turn into a self-steal. Every attempt carries its own request
// deadline (Options.RequestTimeout), so one hung response costs one
// attempt, never the whole retry budget.
//
// A Get whose response body is truncated, tampered with, or otherwise
// fails validation (store.ValidateBlob: envelope, schema, digest) is a
// miss and ticks the Corrupt counter — the caller recomputes and the
// subsequent Put heals both tiers, mirroring the local corrupt-blob
// path. It is never an error and can never yield a wrong result.
//
// # Circuit breaker and degraded mode
//
// Consecutive attempt failures open a circuit breaker: while it is
// open, requests fail immediately with ErrUnavailable instead of each
// burning a timeout-and-retry cycle, and after a cooldown a single
// half-open probe decides whether to close it. With a local tier
// configured the client then runs in degraded mode rather than
// failing: Gets serve local-only, and Puts are deferred into the
// tier's journal, which Reconcile — explicit, or started in the
// background when the breaker closes — replays to the daemon.
// Resilience() reports the degraded/deferred/reconciled traffic.
type Client struct {
	base       string
	hc         *http.Client
	tier       *store.Tier // nil without ClientOptions.Cache
	auth       string      // "Bearer <token>", or "" for open daemons
	retries    int
	backoff    time.Duration
	reqTimeout time.Duration
	br         *breaker

	// jstate is the retry-jitter RNG state, advanced atomically per
	// draw; seeding it (ClientOptions.Seed) makes the jitter sequence —
	// and thus every backoff schedule — reproducible in tests.
	jstate atomic.Uint64

	// trace records one client span per wire operation under the
	// ambient parent fleet.Sweep installs (SetTraceContext); a nil
	// tracer keeps the whole span path at zero cost.
	trace obs.Ambient

	// log receives breaker state edges; defaults to discard. lastErr remembers the most recent failed attempt's
	// error text so a breaker-open log line can say what broke.
	log     *slog.Logger
	lastErr atomic.Pointer[string]

	hits, misses, corrupt, puts, degraded atomic.Int64

	// Telemetry counters beyond the Backend Counters contract — see
	// Telemetry().
	retryCount                             atomic.Int64
	brOpened, brHalfOpened, brClosed       atomic.Int64
	decodePasses, bytesSent, bytesReceived atomic.Int64
}

// ClientOptions configures a Client; the zero value works.
type ClientOptions struct {
	// Cache, when non-nil, is the directory of the local write-through
	// tier (a store.Tier) — and the degraded-mode fallback: with it
	// set, an unreachable daemon means local-only reads and journaled
	// (deferred) writes instead of errors.
	Cache *store.Store
	// HTTPClient overrides the default client (keep-alive transport).
	// Per-attempt deadlines come from RequestTimeout either way.
	HTTPClient *http.Client
	// Token is the bearer credential sent as "Authorization: Bearer
	// <token>" on every request, for daemons running with -tokens.
	// Empty means none (open daemons). A daemon answering 401/403 is
	// terminal per request — see ErrAuth.
	Token string
	// Retries is the attempt budget per idempotent request; 0 means 3.
	Retries int
	// RetryBackoff is the initial retry delay, doubling per attempt
	// with up to 50% seeded jitter on top; 0 means 50 ms.
	RetryBackoff time.Duration
	// RequestTimeout bounds each attempt (not the whole retry budget)
	// via a per-request context, so one hung response cannot consume
	// every retry's worth of wall clock. 0 means 15 s.
	RequestTimeout time.Duration
	// BreakerThreshold is how many consecutive attempt failures open
	// the circuit breaker; 0 means 5, negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before
	// admitting a half-open probe; 0 means 2 s.
	BreakerCooldown time.Duration
	// Seed derives the retry-jitter sequence. Two clients with distinct
	// seeds (derive it from the fleet owner id) desynchronise their
	// retry storms; equal seeds reproduce schedules exactly, which is
	// what keeps fault-injection tests deterministic. 0 is a valid
	// seed.
	Seed uint64
	// Tracer, when non-nil, records one client span per wire operation
	// (get/put/head/lease/...) and stamps every request with a W3C
	// traceparent header so the daemon's logs, latency observations and
	// /debug/ops flight recorder correlate with this client's spans.
	// nil means tracing off, at zero cost on every path.
	Tracer *obs.Tracer
	// Logger receives operational edges — breaker open/half-open/close
	// transitions, with consecutive-failure count and last error. nil
	// discards.
	Logger *slog.Logger
}

var (
	_ store.Backend         = (*Client)(nil)
	_ store.Resilient       = (*Client)(nil)
	_ store.ValidatedGetter = (*Client)(nil)
	_ store.ValidatedPutter = (*Client)(nil)
)

// NewClient validates the base URL (http or https, e.g. the
// "http://host:8417" a stored daemon prints) and builds the backend.
// Construction does not touch the network: a daemon that is down at
// start behaves like any other degraded read until writes need it.
func NewClient(baseURL string, opts ClientOptions) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("storenet: base url %q: %w", baseURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("storenet: base url %q: need http(s)://host[:port]", baseURL)
	}
	hc := opts.HTTPClient
	if hc == nil {
		// One client per fleet process issues many small requests to one
		// host: keep-alive connection reuse is the whole ballgame. No
		// blanket Timeout — each attempt carries its own context
		// deadline (RequestTimeout), which is what lets a retry start
		// the moment its predecessor hangs.
		hc = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	retries := opts.Retries
	if retries <= 0 {
		retries = 3
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	reqTimeout := opts.RequestTimeout
	if reqTimeout <= 0 {
		reqTimeout = 15 * time.Second
	}
	auth := ""
	if opts.Token != "" {
		auth = "Bearer " + opts.Token
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	c := &Client{
		base:       strings.TrimRight(u.String(), "/"),
		hc:         hc,
		tier:       store.NewTier(opts.Cache),
		auth:       auth,
		retries:    retries,
		backoff:    backoff,
		reqTimeout: reqTimeout,
		br:         newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, nil),
		trace:      obs.Ambient{Tracer: opts.Tracer},
		log:        logger,
	}
	// Breaker state edges were previously silent — an operator learned
	// the circuit had opened only from a wall of ErrUnavailable. Log
	// every edge with the evidence (consecutive failures, last error)
	// and count them for Telemetry(). The hook runs under the breaker
	// lock, so it only counts and logs.
	c.br.onTransition = func(from, to int, fails int) {
		switch to {
		case breakerOpen:
			c.brOpened.Add(1)
		case breakerHalfOpen:
			c.brHalfOpened.Add(1)
		case breakerClosed:
			c.brClosed.Add(1)
		}
		lastErr := ""
		if p := c.lastErr.Load(); p != nil {
			lastErr = *p
		}
		lvl := slog.LevelInfo
		if to == breakerOpen {
			lvl = slog.LevelWarn
		}
		c.log.Log(context.Background(), lvl, "storenet: breaker state change",
			"base", c.base,
			"from", breakerStateName(from),
			"to", breakerStateName(to),
			"consecutive_failures", fails,
			"last_error", lastErr)
	}
	c.jstate.Store(opts.Seed ^ 0x9e3779b97f4a7c15)
	return c, nil
}

// Location implements Backend: a remote store is located at its URL.
func (c *Client) Location() string { return c.base }

// SetTraceContext implements obs.TraceContextSetter: it installs the
// ambient parent (typically a sweep's root span context) under which
// subsequent request spans are created and propagated. The zero
// context clears it. Safe for concurrent use; store.Backend carries no
// context parameter, so this is how a trace crosses the Backend seam.
func (c *Client) SetTraceContext(sc obs.SpanContext) { c.trace.SetTraceContext(sc) }

func (c *Client) blobURL(digest string) string {
	return c.base + apiPrefix + "/blobs/" + url.PathEscape(digest)
}

func (c *Client) leaseURL(digest, op string) string {
	u := c.base + apiPrefix + "/leases/" + url.PathEscape(digest)
	if op != "" {
		u += "/" + op
	}
	return u
}

// jitter draws the next seeded jitter value in [0, max]. Without it,
// every worker in a fleet that hits the same blip sleeps the identical
// deterministic backoff and retries in lockstep — N synchronized
// retry waves against a daemon that is trying to come back. The draw
// is a splitmix64 step over atomic state: deterministic per seed (so
// fault-injection tests reproduce schedules exactly), distinct per
// seed across a fleet.
func (c *Client) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	z := c.jstate.Add(0x9e3779b97f4a7c15)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return time.Duration(z % uint64(max+1))
}

// newAttempt builds one request under its own deadline. The returned
// cancel must run once the attempt's response is fully consumed —
// success paths hand it to cancelBody (fired on Body.Close), failure
// paths call it directly.
func (c *Client) newAttempt(method, u string, body []byte, contentType, traceparent string) (*http.Request, context.CancelFunc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.reqTimeout)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if c.auth != "" {
		req.Header.Set("Authorization", c.auth)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	return req, cancel, nil
}

// cancelBody ties an attempt's context to its response body: the
// deadline must outlive the body read (cancelling earlier would kill
// the transfer mid-stream), and every response path already closes the
// body to recycle the keep-alive connection.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// recordAttempt feeds the breaker the outcome of an attempt admitted
// under gen and, on the open→closed recovery edge, starts a background
// replay of the tier's journal — the "heal the remote when it returns"
// half of degraded mode, with no operator in the loop. cause (nil on
// success) is remembered so the breaker's transition log can name what
// broke.
func (c *Client) recordAttempt(gen uint64, ok bool, cause error) {
	if cause != nil {
		s := cause.Error()
		c.lastErr.Store(&s)
	}
	if c.br.record(gen, ok) {
		c.tier.ReplayInBackground(c.replay)
	}
}

// doIdempotent issues one GET/HEAD/PUT with bounded retries on
// connection errors and 5xx responses, each attempt under its own
// RequestTimeout deadline. The body, when present, is replayed from
// memory on every attempt. 4xx responses return immediately — retrying
// a request the server understood and refused only repeats the
// refusal. While the circuit breaker is open the whole call fails
// immediately with ErrUnavailable — no connection, no sleep. Every
// failure wraps store.ErrUnreachable.
//
// span, when non-nil, is the caller's client span for this logical
// operation: its context rides every attempt as the traceparent header
// (so the daemon's records correlate back to it) and retry edges are
// recorded on it as events. parent overrides the propagated context
// when span is nil — the reconcile replay path uses it to carry a
// journaled marker's original trace even when tracing is off.
func (c *Client) doIdempotent(method, u string, body []byte, span *obs.Span, parent obs.SpanContext) (*http.Response, error) {
	traceparent := ""
	if span != nil {
		traceparent = span.Context().Traceparent()
	} else if parent.Valid() {
		traceparent = parent.Traceparent()
	}
	var lastErr error
	for attempt := 0; attempt < c.retries; attempt++ {
		if attempt > 0 {
			c.retryCount.Add(1)
			span.Event("retry")
			d := c.backoff << (attempt - 1)
			time.Sleep(d + c.jitter(d/2))
		}
		gen, allowed := c.br.allow()
		if !allowed {
			// Fail the operation, not just the attempt: the remaining
			// retries would fast-fail identically, and sleeping between
			// them is exactly the stall the breaker exists to remove.
			span.Event("breaker.fastfail")
			return nil, fmt.Errorf("storenet: %s %s: %w", method, u, ErrUnavailable)
		}
		req, cancel, err := c.newAttempt(method, u, body, "application/octet-stream", traceparent)
		if err != nil {
			return nil, err
		}
		c.bytesSent.Add(int64(len(body)))
		resp, err := c.hc.Do(req)
		if err != nil {
			cancel()
			c.recordAttempt(gen, false, err)
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			c.drain(resp)
			cancel()
			lastErr = fmt.Errorf("storenet: %s %s: %s", method, u, resp.Status)
			c.recordAttempt(gen, false, lastErr)
			continue
		}
		c.recordAttempt(gen, true, nil)
		resp.Body = cancelBody{ReadCloser: resp.Body, cancel: cancel}
		return resp, nil
	}
	return nil, fmt.Errorf("storenet: %s %s: giving up after %d attempts: %w: %w",
		method, u, c.retries, store.ErrUnreachable, lastErr)
}

// doOnce issues one non-idempotent (lease) request, exactly once,
// under one RequestTimeout deadline. Lease traffic shares the breaker:
// its failures are the same daemon being down, and while the circuit
// is open a claim fast-fails with ErrUnavailable — which the fleet's
// degrade policy turns into an unleased recompute instead of an
// aborted sweep.
func (c *Client) doOnce(u string, body any, span *obs.Span) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	gen, allowed := c.br.allow()
	if !allowed {
		span.Event("breaker.fastfail")
		return nil, fmt.Errorf("storenet: POST %s: %w", u, ErrUnavailable)
	}
	req, cancel, err := c.newAttempt(http.MethodPost, u, data, "application/json", span.Context().Traceparent())
	if err != nil {
		return nil, err
	}
	c.bytesSent.Add(int64(len(data)))
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		c.recordAttempt(gen, false, err)
		return nil, err
	}
	// Any response is a live daemon — a 409 busy lease is the protocol
	// working, not a failure.
	c.recordAttempt(gen, true, nil)
	resp.Body = cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// drain discards and closes a response body so the connection returns
// to the keep-alive pool instead of being torn down.
func (c *Client) drain(resp *http.Response) {
	n, _ := io.Copy(io.Discard, io.LimitReader(resp.Body, maxControlBytes))
	c.bytesReceived.Add(n)
	resp.Body.Close()
}

// readBody reads the full (bounded) body and closes it. Every response
// — including 404 messages and JSON with a trailing newline — must be
// consumed to EOF, or the transport discards the connection instead of
// pooling it and each subsequent request pays a fresh handshake.
func (c *Client) readBody(resp *http.Response, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	err := c.readBodyInto(&buf, resp, limit)
	return buf.Bytes(), err
}

// bodyBufs recycles blob-body buffers across warm Gets. The buffer's
// bytes never outlive the Get: validation decodes out of them (JSON
// copies every string) and the cache heal writes them to disk, so
// returning the buffer to the pool afterwards is safe — and it deletes
// the single largest per-Get allocation from the warm path.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBodyBuf caps what bodyBufs retains: one pathological
// near-maxBlobBytes response must not pin a 256 MiB buffer in the pool
// for the life of the process.
const maxPooledBodyBuf = 8 << 20

func putBodyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBodyBuf {
		bodyBufs.Put(buf)
	}
}

// readBodyInto drains the (bounded) body into buf and closes it,
// reporting a transfer that died mid-body.
func (c *Client) readBodyInto(buf *bytes.Buffer, resp *http.Response, limit int64) error {
	defer resp.Body.Close()
	n, err := buf.ReadFrom(io.LimitReader(resp.Body, limit))
	c.bytesReceived.Add(n)
	return err
}

// Get resolves a key: local tier first, then the daemon. The body — the
// daemon's disk bytes verbatim — is read into a pooled buffer and
// validated exactly once; a remote hit heals the local tier with those
// bytes (no second decode), and an invalid or truncated body is a miss
// (Corrupt counter), exactly like a corrupt local blob.
func (c *Client) Get(k store.Key) (*core.Result, bool) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer putBodyBuf(buf)
	vb, ok := c.fetch(k.Digest, buf)
	if !ok {
		return nil, false
	}
	return vb.Result(), true
}

// GetValidated implements store.ValidatedGetter: Get's read path, but
// returning the proof-carrying blob — validated container bytes plus
// the decoded result from the same single parse — instead of just the
// result. The router's read-repair rides this: a member that misses is
// healed with another member's validated bytes verbatim. Unlike Get,
// the returned bytes are freshly allocated (not pooled scratch), so
// they survive the call.
func (c *Client) GetValidated(digest string) (*store.ValidatedBlob, bool) {
	return c.fetch(digest, new(bytes.Buffer))
}

// fetch is the one read path behind Get and GetValidated: local tier,
// then the daemon, reading the body into buf. A returned blob's bytes
// alias buf; the local-tier heal persists them before fetch returns.
func (c *Client) fetch(digest string, buf *bytes.Buffer) (*store.ValidatedBlob, bool) {
	if vb, ok := c.tier.GetValidated(digest); ok {
		c.hits.Add(1)
		return vb, true
	}
	span := c.trace.StartSpan("storenet.get")
	defer span.End()
	resp, err := c.doIdempotent(http.MethodGet, c.blobURL(digest), nil, span, obs.SpanContext{})
	if err != nil {
		if !errors.Is(err, ErrUnavailable) {
			return c.miss(span, "error")
		}
		// Degraded read: the local tier (checked above) was the whole
		// answer. A miss here is recoverable — the caller recomputes —
		// and it cost microseconds instead of a timeout.
		c.degraded.Add(1)
		return c.miss(span, "degraded")
	}
	readErr := c.readBodyInto(buf, resp, maxBlobBytes)
	if resp.StatusCode != http.StatusOK {
		return c.miss(span, "miss")
	}
	// A transfer that died mid-body is as corrupt as one that fails
	// validation: a miss, recomputed and healed by the next Put.
	var vb *store.ValidatedBlob
	if err = readErr; err == nil {
		c.decodePasses.Add(1)
		vb, err = store.ValidateBlobBytes(buf.Bytes(), digest)
	}
	if err != nil {
		c.corrupt.Add(1)
		return c.miss(span, "corrupt")
	}
	c.tier.PutValidated(vb)
	c.hits.Add(1)
	span.SetAttr("outcome", "hit")
	return vb, true
}

func (c *Client) miss(span *obs.Span, outcome string) (*store.ValidatedBlob, bool) {
	c.misses.Add(1)
	span.SetAttr("outcome", outcome)
	return nil, false
}

// Healthy reports whether this client currently offers its daemon a
// realistic chance of answering: false exactly while the circuit
// breaker is open inside its cooldown (every request would fast-fail
// with ErrUnavailable). The replicating router uses it to route
// traffic — most importantly lease claims — past a downed member to
// its ring successor, and resumes routing here the moment the breaker
// would admit its half-open probe.
func (c *Client) Healthy() bool { return !c.br.isOpen() }

// Put encodes and validates once, then uploads through PutValidated.
func (c *Client) Put(k store.Key, res *core.Result) error {
	vb, err := store.EncodeValidated(k, res)
	if err != nil {
		return fmt.Errorf("storenet: put %s: %w", k, err)
	}
	return c.PutValidated(vb)
}

// PutValidated implements store.ValidatedPutter: it uploads a validated
// container verbatim — no re-encode, no second parse; the router's
// read-repair rides this — then writes it through to the local tier.
// When the daemon is unreachable (store.ErrUnreachable) and a local
// tier exists, the blob is deferred into the tier's journal instead. A
// refusal (ErrAuth, any other 4xx) never defers: the
// daemon saw the request, and its replay would be refused too.
func (c *Client) PutValidated(vb *store.ValidatedBlob) error {
	return c.PutValidatedUnder(vb, obs.SpanContext{})
}

// PutValidatedUnder is PutValidated parented under parent instead of
// the ambient trace context when parent is valid: a router replaying
// its journal carries the trace each blob was deferred in.
func (c *Client) PutValidatedUnder(vb *store.ValidatedBlob, parent obs.SpanContext) error {
	if !parent.Valid() {
		parent = c.trace.Parent()
	}
	span := c.trace.Tracer.StartSpan("storenet.put", parent)
	defer span.End()
	err := c.upload(vb.Digest(), vb.Bytes(), span, parent)
	switch {
	case err == nil:
		c.tier.PutValidated(vb)
	case c.tier != nil && errors.Is(err, store.ErrUnreachable):
		// The deferring span's context is journaled with the blob, so
		// the eventual replay still carries the sweep's trace ID.
		sc := span.Context()
		if !sc.Valid() {
			sc = parent
		}
		if derr := c.tier.Defer(vb, sc.Traceparent()); derr != nil {
			return fmt.Errorf("storenet: put %s: remote %v; local tier: %w", vb.Key(), err, derr)
		}
		span.Event("defer")
	default:
		return fmt.Errorf("storenet: put %s: %w", vb.Key(), err)
	}
	c.puts.Add(1)
	return nil
}

// upload PUTs one blob through doIdempotent (retries, breaker) and maps
// the answer: 200/204 is success, 401/403 the terminal ErrAuth.
func (c *Client) upload(digest string, data []byte, span *obs.Span, parent obs.SpanContext) error {
	resp, err := c.doIdempotent(http.MethodPut, c.blobURL(digest), data, span, parent)
	if err != nil {
		return err
	}
	c.drain(resp)
	switch resp.StatusCode {
	case http.StatusNoContent, http.StatusOK:
		return nil
	case http.StatusUnauthorized, http.StatusForbidden:
		return fmt.Errorf("%s: %w", resp.Status, ErrAuth)
	}
	return errors.New(resp.Status)
}

// CanDegrade implements store.Resilient: a local tier is what degraded
// mode degrades to.
func (c *Client) CanDegrade() bool { return c.tier != nil }

// Resilience implements store.Resilient: the client counts degraded
// reads, its tier the journal traffic.
func (c *Client) Resilience() store.ResilienceStats {
	rs := c.tier.Stats()
	rs.Degraded = c.degraded.Load()
	return rs
}

// Telemetry is a point-in-time snapshot of this client's wire-level
// behavior since construction, all monotonic counters: the aggregate
// view the stats line and the Prometheus families fold in. Journal
// traffic is the local tier's (Resilience).
type Telemetry struct {
	// Retries counts retry attempts actually issued (attempt ≥ 2 of an
	// idempotent request), not sleeps scheduled.
	Retries int64 `json:"retries"`
	// Breaker edge counts by destination state: how often the circuit
	// opened (outage detected), admitted a half-open probe, and closed
	// (recovered or explicitly reset).
	BreakerOpened   int64 `json:"breaker_opened"`
	BreakerHalfOpen int64 `json:"breaker_half_open"`
	BreakerClosed   int64 `json:"breaker_closed"`
	// DecodePasses counts response-body validations this client ran
	// (each is one decode of a blob container — the "validated exactly
	// once" invariant makes this equal to remote read traffic).
	DecodePasses int64 `json:"decode_passes"`
	// BytesSent / BytesReceived are wire bytes by direction at the
	// body level (headers excluded): request bodies out, response
	// bodies in.
	BytesSent     int64 `json:"bytes_sent"`
	BytesReceived int64 `json:"bytes_received"`
}

// Telemetry returns the client's wire-level counters.
func (c *Client) Telemetry() Telemetry {
	return Telemetry{
		Retries:         c.retryCount.Load(),
		BreakerOpened:   c.brOpened.Load(),
		BreakerHalfOpen: c.brHalfOpened.Load(),
		BreakerClosed:   c.brClosed.Load(),
		DecodePasses:    c.decodePasses.Load(),
		BytesSent:       c.bytesSent.Load(),
		BytesReceived:   c.bytesReceived.Load(),
	}
}

// Reconcile replays the local tier's journal to the daemon, returning
// how many blobs were uploaded. It first force-closes the breaker:
// calling Reconcile asserts the daemon is back (if it is not, the
// replay's failures re-open the circuit and the rest stay journaled).
// The reset matters even without a tier — a router telling its members
// the outage is over.
func (c *Client) Reconcile() (int, error) {
	c.br.reset()
	return c.tier.Replay(c.replay)
}

// replay uploads one journaled blob under the trace it was deferred
// in, so the daemon's /debug/ops ring attributes the late write to the
// sweep that produced it; a live tracer records it as a span there.
func (c *Client) replay(vb *store.ValidatedBlob, traceparent string) error {
	parent, _ := obs.ParseTraceparent(traceparent)
	if !parent.Valid() {
		parent = c.trace.Parent()
	}
	span := c.trace.Tracer.StartSpan("storenet.reconcile.put", parent)
	defer span.End()
	if err := c.upload(vb.Digest(), vb.Bytes(), span, parent); err != nil {
		span.SetAttr("outcome", "error")
		return fmt.Errorf("storenet: reconcile %s: %w", vb.Digest(), err)
	}
	span.SetAttr("outcome", "replayed")
	return nil
}

// Has probes existence without counters: local tier, then a HEAD.
func (c *Client) Has(k store.Key) bool {
	if c.tier.Has(k) {
		return true
	}
	span := c.trace.StartSpan("storenet.head")
	defer span.End()
	resp, err := c.doIdempotent(http.MethodHead, c.blobURL(k.Digest), nil, span, obs.SpanContext{})
	if err != nil {
		return false
	}
	c.drain(resp)
	return resp.StatusCode == http.StatusOK
}

// Index lists the daemon's manifest — the fleet-wide view, not the
// local tier's subset. Degrades to empty on failure.
func (c *Client) Index() []store.ManifestEntry {
	span := c.trace.StartSpan("storenet.index")
	defer span.End()
	resp, err := c.doIdempotent(http.MethodGet, c.base+apiPrefix+"/index", nil, span, obs.SpanContext{})
	if err != nil {
		return nil
	}
	data, readErr := c.readBody(resp, maxBlobBytes)
	var ix indexResponse
	if resp.StatusCode != http.StatusOK || readErr != nil || json.Unmarshal(data, &ix) != nil {
		return nil
	}
	return ix.Entries
}

// Len counts the daemon's blobs; 0 on failure.
func (c *Client) Len() int {
	st, err := c.Stats()
	if err != nil {
		return 0
	}
	return st.Blobs
}

// Stats fetches the daemon's stats endpoint.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	span := c.trace.StartSpan("storenet.stats")
	defer span.End()
	resp, err := c.doIdempotent(http.MethodGet, c.base+apiPrefix+"/stats", nil, span, obs.SpanContext{})
	if err != nil {
		return st, err
	}
	data, readErr := c.readBody(resp, maxControlBytes)
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("storenet: stats: %s", resp.Status)
	}
	if readErr != nil {
		return st, fmt.Errorf("storenet: stats: %w", readErr)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("storenet: stats: %w", err)
	}
	return st, nil
}

// Counters reports this client's traffic (not the daemon's aggregate;
// GET /v1/stats has that).
func (c *Client) Counters() store.Counters {
	return store.Counters{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Corrupt: c.corrupt.Load(),
		Puts:    c.puts.Load(),
	}
}

// TryAcquire claims the digest fleet-wide through the daemon. Exactly
// one request is sent: if the response is lost after a grant, the
// unrenewed lease expires within one TTL and the claim loop steals it —
// the same recovery as a crashed local holder.
func (c *Client) TryAcquire(digest, owner string, ttl time.Duration) (store.LeaseHandle, bool, error) {
	if owner == "" {
		return nil, false, fmt.Errorf("storenet: empty lease owner")
	}
	if ttl <= 0 {
		return nil, false, fmt.Errorf("storenet: non-positive lease ttl %v", ttl)
	}
	span := c.trace.StartSpan("storenet.lease.acquire")
	defer span.End()
	resp, err := c.doOnce(c.leaseURL(digest, "acquire"), acquireRequest{Owner: owner, TTLNs: int64(ttl)}, span)
	if err != nil {
		return nil, false, fmt.Errorf("storenet: acquire %s: %w", digest, err)
	}
	data, readErr := c.readBody(resp, maxControlBytes)
	switch resp.StatusCode {
	case http.StatusOK:
		var ar acquireResponse
		if readErr == nil {
			readErr = json.Unmarshal(data, &ar)
		}
		if readErr != nil {
			// Granted but garbled: surface it; the orphan lease expires.
			return nil, false, fmt.Errorf("storenet: acquire %s: %w", digest, readErr)
		}
		return &remoteLease{c: c, digest: digest, owner: owner, token: ar.Token, stolen: ar.Stolen}, true, nil
	case http.StatusConflict:
		return nil, false, nil
	case http.StatusUnauthorized, http.StatusForbidden:
		return nil, false, fmt.Errorf("storenet: acquire %s: %s: %w", digest, resp.Status, ErrAuth)
	default:
		return nil, false, fmt.Errorf("storenet: acquire %s: %s", digest, resp.Status)
	}
}

// LeaseHolder peeks at a digest's live claim via the daemon.
func (c *Client) LeaseHolder(digest string) (string, bool) {
	span := c.trace.StartSpan("storenet.lease.peek")
	defer span.End()
	resp, err := c.doIdempotent(http.MethodGet, c.leaseURL(digest, ""), nil, span, obs.SpanContext{})
	if err != nil {
		return "", false
	}
	data, readErr := c.readBody(resp, maxControlBytes)
	var hr holderResponse
	if resp.StatusCode != http.StatusOK || readErr != nil || json.Unmarshal(data, &hr) != nil {
		return "", false
	}
	return hr.Owner, hr.Held
}

// GC runs a pass on the daemon's store — the shared tier the policy is
// meant to bound. The local cache tier is bounded by its own owner
// (it is an ordinary *store.Store).
func (c *Client) GC(p store.GCPolicy) (store.GCStats, error) {
	var gs store.GCStats
	span := c.trace.StartSpan("storenet.gc")
	defer span.End()
	resp, err := c.doOnce(c.base+apiPrefix+"/gc", gcRequest{
		MaxBytes: p.MaxBytes,
		MaxAgeNs: int64(p.MaxAge),
	}, span)
	if err != nil {
		return gs, fmt.Errorf("storenet: gc: %w", err)
	}
	data, readErr := c.readBody(resp, maxControlBytes)
	if resp.StatusCode == http.StatusUnauthorized || resp.StatusCode == http.StatusForbidden {
		// GC is the admin-scoped verb, so this is the usual place a
		// write-scope token discovers its ceiling; terminal like every
		// auth refusal.
		return gs, fmt.Errorf("storenet: gc: %s: %w", resp.Status, ErrAuth)
	}
	if resp.StatusCode != http.StatusOK {
		return gs, fmt.Errorf("storenet: gc: %s", resp.Status)
	}
	if readErr == nil {
		readErr = json.Unmarshal(data, &gs)
	}
	if readErr != nil {
		return gs, fmt.Errorf("storenet: gc: %w", readErr)
	}
	return gs, nil
}

// remoteLease is a claim held through the daemon; the token is what the
// daemon's stateless reattach verifies.
type remoteLease struct {
	c      *Client
	digest string
	owner  string
	token  string
	stolen bool
}

var _ store.LeaseHandle = (*remoteLease)(nil)

func (l *remoteLease) Owner() string { return l.owner }
func (l *remoteLease) Token() string { return l.token }
func (l *remoteLease) Stolen() bool  { return l.stolen }

// Renew extends the claim. Any failure — network, daemon restart mid
// flight, a stealer holding the lease — reports the lease lost; the
// holder keeps computing and at worst one peer duplicates the shard,
// writing identical bytes.
func (l *remoteLease) Renew(ttl time.Duration) error {
	span := l.c.trace.StartSpan("storenet.lease.renew")
	defer span.End()
	resp, err := l.c.doOnce(l.c.leaseURL(l.digest, "renew"),
		renewRequest{Owner: l.owner, Token: l.token, TTLNs: int64(ttl)}, span)
	if err != nil {
		return fmt.Errorf("storenet: renew %s: %w", l.digest, err)
	}
	l.c.drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("storenet: renew %s: lease lost (%s)", l.digest, resp.Status)
	}
	return nil
}

// Release drops the claim, best-effort and idempotent.
func (l *remoteLease) Release() error {
	span := l.c.trace.StartSpan("storenet.lease.release")
	defer span.End()
	resp, err := l.c.doOnce(l.c.leaseURL(l.digest, "release"),
		releaseRequest{Owner: l.owner, Token: l.token}, span)
	if err != nil {
		return fmt.Errorf("storenet: release %s: %w", l.digest, err)
	}
	l.c.drain(resp)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("storenet: release %s: %s", l.digest, resp.Status)
	}
	return nil
}
