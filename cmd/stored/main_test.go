package main

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"encoding/pem"
	"errors"
	"fmt"
	"math/big"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"golatest/internal/core"
	"golatest/internal/obs"
	"golatest/internal/store"
	"golatest/internal/storenet"
)

// syncBuffer lets the daemon's concurrent log writes race-safely meet
// the test's assertions.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func startDaemon(t *testing.T, args ...string) (*daemon, *syncBuffer, func()) {
	t.Helper()
	out := &syncBuffer{}
	d, err := newDaemon(args, out)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.serve(ctx) }()
	stop := func() {
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("serve: %v", err)
		}
	}
	return d, out, stop
}

// TestDaemonServesStore: end to end through the real binary wiring — a
// storenet.Client round-trips a campaign through a stored instance on
// an ephemeral loopback port.
func TestDaemonServesStore(t *testing.T) {
	dir := t.TempDir()
	d, out, stop := startDaemon(t, "-dir", dir, "-addr", "127.0.0.1:0")

	c, err := storenet.NewClient(d.URL(), storenet.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k, err := store.KeyFor("a100", 0, 42, core.Config{Frequencies: []float64{705, 1410}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(k, &core.Result{DeviceName: "a100[0]"}); err != nil {
		t.Fatal(err)
	}
	res, ok := c.Get(k)
	if !ok || res.DeviceName != "a100[0]" {
		t.Fatalf("round trip: %+v ok=%v", res, ok)
	}

	// The daemon's stats endpoint agrees with its directory.
	resp, err := http.Get(d.URL() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Blobs int `json:"blobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.Blobs != 1 {
		t.Fatalf("stats = %+v err=%v", stats, err)
	}

	stop() // graceful shutdown must drain and report cleanly
	if !strings.Contains(out.String(), "msg=serving") ||
		!strings.Contains(out.String(), "dir="+dir) ||
		!strings.Contains(out.String(), `msg="shut down"`) {
		t.Fatalf("daemon log:\n%s", out.String())
	}

	// The state survived: a fresh local handle over the directory reads
	// what the daemon stored.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(k); !ok {
		t.Fatal("blob did not survive the daemon")
	}
}

// TestDaemonBackgroundGC: with -gc-every and a tiny watermark, the
// daemon evicts stored blobs on its own.
func TestDaemonBackgroundGC(t *testing.T) {
	dir := t.TempDir()
	d, _, stop := startDaemon(t, "-dir", dir, "-addr", "127.0.0.1:0",
		"-gc-every", "10ms", "-gc-watermark-bytes", "1")
	defer stop()

	c, err := storenet.NewClient(d.URL(), storenet.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k, err := store.KeyFor("a100", 0, 42, core.Config{Frequencies: []float64{705}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(k, &core.Result{DeviceName: "a100[0]"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for d.st.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("background GC never evicted past the watermark")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDaemonFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if _, err := newDaemon([]string{}, &out); err == nil {
		t.Error("missing -dir accepted")
	}
	if _, err := newDaemon([]string{"-dir", t.TempDir(), "-gc-watermark-bytes", "1"}, &out); err == nil {
		t.Error("-gc-watermark-bytes without -gc-every accepted")
	}
	if _, err := newDaemon([]string{"-dir", t.TempDir(), "-addr", "not:an:addr"}, &out); err == nil {
		t.Error("bogus -addr accepted")
	}
}

// TestDaemonStatsLine: with -stats-every the daemon periodically logs
// the /v1/stats view — blobs, compressed vs raw bytes, traffic, lease
// churn — without any client asking for it.
func TestDaemonStatsLine(t *testing.T) {
	dir := t.TempDir()
	d, out, stop := startDaemon(t, "-dir", dir, "-addr", "127.0.0.1:0", "-stats-every", "10ms")
	defer stop()

	c, err := storenet.NewClient(d.URL(), storenet.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k, err := store.KeyFor("a100", 0, 42, core.Config{Frequencies: []float64{705}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(k, &core.Result{DeviceName: "a100[0]"}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.TryAcquire(k.Digest, "host-a", time.Minute); err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		s := out.String()
		if strings.Contains(s, "msg=stats") && strings.Contains(s, "blobs=1") &&
			strings.Contains(s, "puts=1") && strings.Contains(s, "acquired=1") &&
			strings.Contains(s, "p50=") && strings.Contains(s, "p99=") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no stats line with blob/put/lease counts and latency quantiles:\n%s", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// probeStatus fetches a probe path and returns its status code.
func probeStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("probe %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestDaemonProbes covers the orchestration contract: /healthz answers
// 200 for the life of the process, /readyz answers 200 while serving,
// flips to 503 the moment a shutdown signal arrives (the -drain-grace
// window, during which the daemon still serves traffic), and reflects a
// store directory that stopped accepting writes.
func TestDaemonProbes(t *testing.T) {
	dir := t.TempDir()
	out := &syncBuffer{}
	d, err := newDaemon([]string{"-dir", dir, "-addr", "127.0.0.1:0", "-drain-grace", "750ms"}, out)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.serve(ctx) }()

	if got := probeStatus(t, d.URL()+"/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", got)
	}
	if got := probeStatus(t, d.URL()+"/readyz"); got != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", got)
	}

	// An unwritable store flips readiness but not liveness: restarting
	// the process would not fix the directory.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if got := probeStatus(t, d.URL()+"/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz with the store dir gone = %d, want 503", got)
	}
	if got := probeStatus(t, d.URL()+"/healthz"); got != http.StatusOK {
		t.Fatalf("healthz with the store dir gone = %d, want 200", got)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if got := probeStatus(t, d.URL()+"/readyz"); got != http.StatusOK {
		t.Fatalf("readyz after the dir returned = %d, want 200", got)
	}

	// Shutdown: within the drain grace the daemon still serves — with
	// readiness already withdrawn.
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for probeStatus(t, d.URL()+"/readyz") != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 after the shutdown signal")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := probeStatus(t, d.URL()+"/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200 (still serving)", got)
	}
	if got := probeStatus(t, d.URL()+"/v1/stats"); got != http.StatusOK {
		t.Fatalf("API while draining = %d, want 200 (in-flight traffic must finish)", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if s := out.String(); !strings.Contains(s, "draining") {
		t.Fatalf("no drain log line:\n%s", s)
	}
}

// TestDaemonDebugEndpoints: the flight recorder and the profiling
// surface through real daemon wiring — and the tentpole's correlation
// contract: a warm remote Get is one client span whose trace identity
// matches exactly one server-side request record in /debug/ops.
func TestDaemonDebugEndpoints(t *testing.T) {
	d, _, stop := startDaemon(t, "-dir", t.TempDir(), "-addr", "127.0.0.1:0")
	defer stop()

	tr := obs.New(obs.Options{Seed: 99})
	c, err := storenet.NewClient(d.URL(), storenet.ClientOptions{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	k, err := store.KeyFor("a100", 0, 42, core.Config{Frequencies: []float64{705}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(k, &core.Result{DeviceName: "a100[0]"}); err != nil {
		t.Fatal(err)
	}
	if res, ok := c.Get(k); !ok || res.DeviceName != "a100[0]" { // the warm remote Get
		t.Fatalf("warm get: %+v ok=%v", res, ok)
	}

	// Exactly one client span named storenet.get, ending in a hit.
	var get *obs.SpanRecord
	for _, s := range tr.Snapshot() {
		if s.Name != "storenet.get" {
			continue
		}
		if get != nil {
			t.Fatal("more than one storenet.get span for one Get")
		}
		g := s
		get = &g
	}
	if get == nil {
		t.Fatal("no storenet.get span recorded")
	}

	// The flight recorder holds exactly one record carrying that span's
	// trace identity — the wire request the Get issued.
	resp, err := http.Get(d.URL() + "/debug/ops")
	if err != nil {
		t.Fatal(err)
	}
	var ops struct {
		Capacity int                  `json:"capacity"`
		Records  []storenet.OpsRecord `json:"records"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ops)
	resp.Body.Close()
	if err != nil || ops.Capacity == 0 {
		t.Fatalf("/debug/ops: %+v err=%v", ops, err)
	}
	var matches []storenet.OpsRecord
	for _, r := range ops.Records {
		if r.TraceID == get.Context.TraceID.String() {
			matches = append(matches, r)
		}
	}
	if len(matches) != 1 {
		t.Fatalf("want exactly 1 ops record for trace %s, got %d: %+v",
			get.Context.TraceID, len(matches), matches)
	}
	rec := matches[0]
	if rec.SpanID != get.Context.SpanID.String() || rec.Method != http.MethodGet ||
		rec.Status != http.StatusOK || !strings.Contains(rec.Path, k.Digest) {
		t.Fatalf("ops record does not match the client span: %+v", rec)
	}
	// Only data-plane requests are recorded — the /debug/ops scrape
	// itself must not appear.
	for _, r := range ops.Records {
		if strings.HasPrefix(r.Path, "/debug/") {
			t.Fatalf("debug request leaked into the flight recorder: %+v", r)
		}
	}

	// The pprof index answers on the same listener (open mode: no token
	// needed; with -tokens it would demand admin scope).
	if got := probeStatus(t, d.URL()+"/debug/pprof/"); got != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d, want 200", got)
	}
}

// writeTokensFile writes a -tokens credential file and returns its path.
func writeTokensFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tokens")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDaemonAuthTokens: a daemon started with -tokens challenges /v1
// with 401, honors scopes from the file, and keeps probes and /metrics
// token-free — the full multi-tenant wiring through real flags.
func TestDaemonAuthTokens(t *testing.T) {
	tokens := writeTokensFile(t, `
# ops tenant: full control
secret-admin admin
# fleet hosts: read+write
secret-writer write
# dashboards: read only
secret-reader read
`)
	d, out, stop := startDaemon(t, "-dir", t.TempDir(), "-addr", "127.0.0.1:0", "-tokens", tokens)
	defer stop()

	// Bare requests bounce with a challenge.
	resp, err := http.Get(d.URL() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthed /v1/stats = %d, want 401", resp.StatusCode)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 without a WWW-Authenticate challenge")
	}

	// Probes and metrics never need credentials.
	for _, p := range []string{"/healthz", "/readyz", "/metrics"} {
		if got := probeStatus(t, d.URL()+p); got != http.StatusOK {
			t.Errorf("token-free %s = %d, want 200", p, got)
		}
	}

	// A writer token round-trips a campaign end to end.
	c, err := storenet.NewClient(d.URL(), storenet.ClientOptions{Token: "secret-writer"})
	if err != nil {
		t.Fatal(err)
	}
	k, err := store.KeyFor("a100", 0, 42, core.Config{Frequencies: []float64{705}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(k, &core.Result{DeviceName: "a100[0]"}); err != nil {
		t.Fatal(err)
	}
	if res, ok := c.Get(k); !ok || res.DeviceName != "a100[0]" {
		t.Fatalf("authed round trip: %+v ok=%v", res, ok)
	}

	// A reader token reads but cannot write.
	r, err := storenet.NewClient(d.URL(), storenet.ClientOptions{Token: "secret-reader"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(k); !ok {
		t.Error("reader token could not read")
	}
	if err := r.Put(k, &core.Result{DeviceName: "x"}); !errors.Is(err, storenet.ErrAuth) {
		t.Errorf("reader put err = %v, want ErrAuth", err)
	}

	if !strings.Contains(out.String(), `msg="auth tokens loaded"`) ||
		!strings.Contains(out.String(), "count=3") {
		t.Fatalf("no auth log line:\n%s", out.String())
	}
}

// TestDaemonTokenReloadOnSIGHUP: credential rotation without a
// restart. SIGHUP re-reads the -tokens file and swaps the set in
// place — the retired token stops working, the new one starts, the
// listener never drops (a concurrent /healthz prober must see an
// unbroken run of 200s), and a malformed rotation is rejected with the
// working set kept in force.
func TestDaemonTokenReloadOnSIGHUP(t *testing.T) {
	tokens := writeTokensFile(t, "old-token admin\n")
	d, out, stop := startDaemon(t, "-dir", t.TempDir(), "-addr", "127.0.0.1:0", "-tokens", tokens)
	defer stop()

	authedStatus := func(token string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, d.URL()+"/v1/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("authed request: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := authedStatus("old-token"); got != http.StatusOK {
		t.Fatalf("pre-rotation old token = %d, want 200", got)
	}

	// Hammer /healthz for the whole rotation: a reload that drops the
	// listener or blocks the mux would surface here as an error or
	// non-200.
	probeStop := make(chan struct{})
	probeErr := make(chan error, 1)
	go func() {
		defer close(probeErr)
		for {
			select {
			case <-probeStop:
				return
			default:
			}
			resp, err := http.Get(d.URL() + "/healthz")
			if err != nil {
				probeErr <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				probeErr <- fmt.Errorf("healthz = %d during token reload", resp.StatusCode)
				return
			}
		}
	}()

	// Rotate: rewrite the file, poke the daemon.
	if err := os.WriteFile(tokens, []byte("new-token admin\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for authedStatus("old-token") != http.StatusUnauthorized ||
		authedStatus("new-token") != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("SIGHUP never swapped the token set")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A botched rotation (malformed file) is rejected: the reload is
	// logged as failed and the working set stays in force.
	if err := os.WriteFile(tokens, []byte("tok not-a-scope\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for !strings.Contains(out.String(), "auth reload failed") {
		if time.Now().After(deadline) {
			t.Fatalf("failed reload never logged:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := authedStatus("new-token"); got != http.StatusOK {
		t.Fatalf("after failed reload, working token = %d, want 200", got)
	}

	close(probeStop)
	if err := <-probeErr; err != nil {
		t.Fatalf("probe blipped during rotation: %v", err)
	}
	if !strings.Contains(out.String(), `msg="auth reloaded"`) ||
		!strings.Contains(out.String(), "count=1") ||
		!strings.Contains(out.String(), "path="+tokens) {
		t.Fatalf("no reload log line:\n%s", out.String())
	}
}

// TestDaemonTokenExpiry: validity windows flow from the -tokens file
// through the real daemon. An expired or not-yet-valid credential gets
// the same 401 an unknown token would; a SIGHUP that renews the expired
// credential's window brings it back — the no-flag-day rotation story
// end to end. Windows use far-past/far-future instants, so nothing here
// races the clock.
func TestDaemonTokenExpiry(t *testing.T) {
	tokens := writeTokensFile(t, `
live    admin nbf=2020-01-01T00:00:00Z expires=2100-01-01T00:00:00Z
retired admin expires=2020-01-01T00:00:00Z
staged  admin nbf=2100-01-01T00:00:00Z
`)
	d, _, stop := startDaemon(t, "-dir", t.TempDir(), "-addr", "127.0.0.1:0", "-tokens", tokens)
	defer stop()

	authedGet := func(token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, d.URL()+"/v1/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if got := authedGet("live").StatusCode; got != http.StatusOK {
		t.Fatalf("in-window token = %d, want 200", got)
	}
	for _, token := range []string{"retired", "staged"} {
		resp := authedGet(token)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("%s token = %d, want 401", token, resp.StatusCode)
		}
		if ch := resp.Header.Get("WWW-Authenticate"); !strings.Contains(ch, `error="invalid_token"`) {
			t.Fatalf("%s token challenge = %q, want invalid_token", token, ch)
		}
	}

	// Rotation: the operator renews the retired credential's window and
	// pokes the daemon once. No restart, no flag day.
	if err := os.WriteFile(tokens, []byte("retired admin expires=2100-01-01T00:00:00Z\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for authedGet("retired").StatusCode != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("renewed token never came back after SIGHUP")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := authedGet("live").StatusCode; got != http.StatusUnauthorized {
		t.Fatalf("rotated-out token = %d, want 401", got)
	}
}

// selfSignedCert writes a fresh ECDSA localhost certificate and key as
// PEM files and returns their paths plus a pool trusting the cert.
func selfSignedCert(t *testing.T) (certFile, keyFile string, pool *x509.CertPool) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "stored-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	certFile = filepath.Join(dir, "cert.pem")
	keyFile = filepath.Join(dir, "key.pem")
	if err := os.WriteFile(certFile, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der}), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER}), 0o600); err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool = x509.NewCertPool()
	pool.AddCert(cert)
	return certFile, keyFile, pool
}

// TestDaemonTLS: -cert/-key turn the listener into HTTPS end to end — a
// client trusting the cert round-trips a blob over the encrypted
// transport, and d.URL() advertises the https scheme.
func TestDaemonTLS(t *testing.T) {
	certFile, keyFile, pool := selfSignedCert(t)
	d, _, stop := startDaemon(t, "-dir", t.TempDir(), "-addr", "127.0.0.1:0",
		"-cert", certFile, "-key", keyFile)
	defer stop()

	if !strings.HasPrefix(d.URL(), "https://") {
		t.Fatalf("URL = %q, want https scheme", d.URL())
	}
	hc := &http.Client{Transport: &http.Transport{
		TLSClientConfig: &tls.Config{RootCAs: pool},
	}}
	c, err := storenet.NewClient(d.URL(), storenet.ClientOptions{HTTPClient: hc})
	if err != nil {
		t.Fatal(err)
	}
	k, err := store.KeyFor("a100", 0, 42, core.Config{Frequencies: []float64{705}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(k, &core.Result{DeviceName: "a100[0]"}); err != nil {
		t.Fatal(err)
	}
	if res, ok := c.Get(k); !ok || res.DeviceName != "a100[0]" {
		t.Fatalf("TLS round trip: %+v ok=%v", res, ok)
	}
}

func TestDaemonAuthFlagValidation(t *testing.T) {
	var out bytes.Buffer
	dir := t.TempDir()
	if _, err := newDaemon([]string{"-dir", dir, "-cert", "cert.pem"}, &out); err == nil {
		t.Error("-cert without -key accepted")
	}
	if _, err := newDaemon([]string{"-dir", dir, "-key", "key.pem"}, &out); err == nil {
		t.Error("-key without -cert accepted")
	}
	if _, err := newDaemon([]string{"-dir", dir, "-tokens", filepath.Join(dir, "missing")}, &out); err == nil {
		t.Error("unreadable -tokens file accepted")
	}
	bad := filepath.Join(dir, "bad-tokens")
	if err := os.WriteFile(bad, []byte("tok not-a-scope\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := newDaemon([]string{"-dir", dir, "-tokens", bad}, &out); err == nil {
		t.Error("malformed -tokens file accepted")
	}
}

// TestDaemonProbesSurviveAuthAndDrain is the regression for the probe
// bug class: a daemon that is simultaneously auth-protected and
// draining must still answer /healthz, /readyz and /metrics without a
// token — otherwise the orchestrator kills a pod for being busy.
func TestDaemonProbesSurviveAuthAndDrain(t *testing.T) {
	tokens := writeTokensFile(t, "writer write\n")
	dir := t.TempDir()
	out := &syncBuffer{}
	d, err := newDaemon([]string{"-dir", dir, "-addr", "127.0.0.1:0",
		"-tokens", tokens, "-drain-grace", "750ms"}, out)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.serve(ctx) }()

	// Start draining — and assert every probe still answers token-free
	// while auth is enforced and readiness is down.
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for probeStatus(t, d.URL()+"/readyz") != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 after the shutdown signal")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := probeStatus(t, d.URL()+"/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", got)
	}
	if got := probeStatus(t, d.URL()+"/v1/stats"); got != http.StatusUnauthorized {
		t.Fatalf("tokenless /v1/stats while draining = %d, want 401", got)
	}
	if got := probeStatus(t, d.URL()+"/metrics"); got != http.StatusOK {
		t.Fatalf("metrics while draining = %d, want 200", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
