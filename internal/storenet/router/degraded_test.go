package router_test

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"golatest/internal/obs"
	"golatest/internal/store"
	"golatest/internal/store/conformancetest"
	"golatest/internal/storenet"
	"golatest/internal/storenet/faults"
	"golatest/internal/storenet/router"
)

// daemonMember is one stored daemon behind a fault injector.
type daemonMember struct {
	st  *store.Store
	srv *storenet.Server
	inj *faults.Injector
	url string
}

func startDaemons(t *testing.T, n int) []daemonMember {
	t.Helper()
	ds := make([]daemonMember, n)
	for i := range ds {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		server := storenet.NewServer(st)
		inj := faults.NewInjector(server, faults.Plan{})
		srv := httptest.NewServer(inj)
		t.Cleanup(srv.Close)
		ds[i] = daemonMember{st: st, srv: server, inj: inj, url: srv.URL}
	}
	return ds
}

// degradedRouter builds a router (opts plus a local tier in localDir)
// over cache-less clients, one per URL. Each client's breaker opens on
// the first failed attempt and stays open for cooldown.
func degradedRouter(t *testing.T, localDir string, opts router.Options, cooldown time.Duration, urls ...string) *router.Router {
	t.Helper()
	members := make([]store.Backend, len(urls))
	for i, u := range urls {
		c, err := storenet.NewClient(u, storenet.ClientOptions{
			Retries:          1,
			RetryBackoff:     time.Millisecond,
			BreakerThreshold: 1,
			BreakerCooldown:  cooldown,
			Seed:             uint64(i + 1),
			Tracer:           opts.Tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = c
	}
	var err error
	if opts.Local, err = store.Open(localDir); err != nil {
		t.Fatal(err)
	}
	r, err := router.New(members, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func pendingMarkers(t *testing.T, localDir string) int {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(localDir, "pending"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return len(entries)
}

// TestRouterDegradedPutDefers: with R = 1 and its only member down, a
// Put lands in the local tier's journal instead of failing, and the
// router serves the write back from there.
func TestRouterDegradedPutDefers(t *testing.T) {
	ds := startDaemons(t, 1)
	localDir := t.TempDir()
	r := degradedRouter(t, localDir, router.Options{Replication: 1}, time.Hour, ds[0].url)
	ds[0].inj.Kill()

	k, want := conformancetest.Key(t, 1), conformancetest.Result(1)
	if err := r.Put(k, want); err != nil {
		t.Fatalf("Put with the only member down: %v, want a deferred write", err)
	}
	if rs := r.Resilience(); rs.Deferred != 1 || rs.Pending != 1 {
		t.Fatalf("Resilience = %+v, want Deferred=1 Pending=1", rs)
	}
	if n := pendingMarkers(t, localDir); n != 1 {
		t.Fatalf("%d journal markers, want 1", n)
	}
	if ds[0].st.Len() != 0 {
		t.Fatal("the killed daemon stored the blob")
	}
	if res, ok := r.Get(k); !ok || res == nil {
		t.Fatal("Get missed the router's own deferred Put")
	}
}

// TestRouterDegradedJournalSurvivesRestart: a new router over the same
// local directory sees the journal a previous one left, and Reconcile
// replays it through the replica write — the daemon ends up with the
// local tier's bytes, written under the trace the Put was deferred in.
func TestRouterDegradedJournalSurvivesRestart(t *testing.T) {
	ds := startDaemons(t, 1)
	localDir := t.TempDir()
	tracer := obs.New(obs.Options{Seed: 5})
	sweep := tracer.StartRoot("sweep")
	r1 := degradedRouter(t, localDir, router.Options{Replication: 1, Tracer: tracer}, time.Hour, ds[0].url)
	r1.SetTraceContext(sweep.Context())
	ds[0].inj.Kill()
	k := conformancetest.Key(t, 2)
	if err := r1.Put(k, conformancetest.Result(2)); err != nil {
		t.Fatal(err)
	}

	ds[0].inj.Restore()
	r2 := degradedRouter(t, localDir, router.Options{Replication: 1}, time.Hour, ds[0].url)
	if rs := r2.Resilience(); rs.Pending != 1 {
		t.Fatalf("new router Pending = %d, want 1 (journal scan)", rs.Pending)
	}
	n, err := r2.Reconcile()
	if err != nil || n != 1 {
		t.Fatalf("Reconcile = %d, %v; want 1, nil", n, err)
	}
	if rs := r2.Resilience(); rs.Pending != 0 || rs.Reconciled != 1 {
		t.Fatalf("Resilience after Reconcile = %+v, want Pending=0 Reconciled=1", rs)
	}
	if n := pendingMarkers(t, localDir); n != 0 {
		t.Fatalf("%d journal markers left after Reconcile", n)
	}
	remote, ok := ds[0].st.GetRaw(k.Digest)
	if !ok {
		t.Fatal("reconciled blob missing from the daemon")
	}
	local, err := os.ReadFile(filepath.Join(localDir, k.Digest+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote, local) {
		t.Fatal("the daemon's bytes differ from the local tier's")
	}
	traced := false
	for _, op := range ds[0].srv.OpsSnapshot() {
		traced = traced || (op.Method == http.MethodPut && op.TraceID == sweep.Context().TraceID.String())
	}
	if !traced {
		t.Fatal("the replayed PUT does not carry the deferring sweep's trace ID")
	}
}

// TestRouterDegradedReplayOnRecovery: once a member accepts a Put
// again, the router replays the journal in the background — no
// explicit Reconcile.
func TestRouterDegradedReplayOnRecovery(t *testing.T) {
	ds := startDaemons(t, 1)
	r := degradedRouter(t, t.TempDir(), router.Options{Replication: 1}, 5*time.Millisecond, ds[0].url)
	ds[0].inj.Kill()
	deferred := conformancetest.Key(t, 3)
	if err := r.Put(deferred, conformancetest.Result(3)); err != nil {
		t.Fatal(err)
	}
	ds[0].inj.Restore()

	// Drive Put traffic until one reaches the member (the breaker's
	// half-open probe) and its success kicks the replay.
	deadline := time.Now().Add(5 * time.Second)
	for i := 4; !ds[0].st.Has(deferred); i++ {
		if time.Now().After(deadline) {
			t.Fatalf("background replay never reached the daemon: %+v", r.Resilience())
		}
		if err := r.Put(conformancetest.Key(t, i), conformancetest.Result(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for r.Resilience().Reconciled < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("replay never counted: %+v", r.Resilience())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRouterDegradedEveryMemberDown: with all three members down, a Put
// still succeeds by deferring, and owes no replica repairs — the
// journal holds the debt.
func TestRouterDegradedEveryMemberDown(t *testing.T) {
	ds := startDaemons(t, 3)
	localDir := t.TempDir()
	r := degradedRouter(t, localDir, router.Options{Replication: 2}, time.Hour, ds[0].url, ds[1].url, ds[2].url)
	for _, d := range ds {
		d.inj.Kill()
	}
	if err := r.Put(conformancetest.Key(t, 4), conformancetest.Result(4)); err != nil {
		t.Fatalf("Put with every member down: %v, want a deferred write", err)
	}
	if rs := r.Resilience(); rs.Deferred != 1 || rs.Pending != 1 {
		t.Fatalf("Resilience = %+v, want Deferred=1 Pending=1", rs)
	}
	if n := pendingMarkers(t, localDir); n != 1 {
		t.Fatalf("%d journal markers, want 1", n)
	}
}

// TestRouterDegradedDefersOnlyUnreachable: a member that cannot be
// reached (dead, or failing with 5xx past the retry budget) defers the
// Put; a member that answers and refuses it (401, 403, or any other
// 4xx such as a proxy's 429) fails the Put and journals nothing,
// because the replay would be refused too.
func TestRouterDegradedDefersOnlyUnreachable(t *testing.T) {
	status := func(code int) string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, http.StatusText(code), code)
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	authed := func() string {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// Requests carry no token, so every Put is refused.
		auth := storenet.NewTokenSet().Grant("viewer", storenet.ScopeRead, storenet.TokenLimits{})
		srv := httptest.NewServer(storenet.NewServerWith(st, storenet.ServerOptions{Auth: auth}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	cases := []struct {
		name     string
		url      func() string
		deferred bool
		want     error
	}{
		{"dead", func() string { return "http://127.0.0.1:1" }, true, nil},
		{"503", func() string { return status(http.StatusServiceUnavailable) }, true, nil},
		{"401", authed, false, storenet.ErrAuth},
		{"403", func() string { return status(http.StatusForbidden) }, false, storenet.ErrAuth},
		{"429", func() string { return status(http.StatusTooManyRequests) }, false, nil},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			localDir := t.TempDir()
			r := degradedRouter(t, localDir, router.Options{Replication: 1}, time.Hour, tc.url())
			err := r.Put(conformancetest.Key(t, 10+i), conformancetest.Result(10+i))
			rs := r.Resilience()
			if tc.deferred {
				if err != nil || rs.Deferred != 1 || pendingMarkers(t, localDir) != 1 {
					t.Fatalf("Put = %v, Resilience %+v; want a deferred write", err, rs)
				}
				return
			}
			if err == nil || errors.Is(err, store.ErrUnreachable) || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Fatalf("Put = %v, want a refusal (%v)", err, tc.want)
			}
			if rs.Deferred != 0 || rs.Pending != 0 || pendingMarkers(t, localDir) != 0 {
				t.Fatalf("refused Put was journaled: %+v", rs)
			}
		})
	}
}
