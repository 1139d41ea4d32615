package fleet

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"golatest/internal/core"
	"golatest/internal/hwprofile"
	"golatest/internal/store"
)

func testProfiles(n int) []hwprofile.Profile {
	out := make([]hwprofile.Profile, n)
	for i := range out {
		out[i] = hwprofile.A100Instance(i)
	}
	return out
}

func testConfig(p hwprofile.Profile) core.Config {
	return core.Config{
		Frequencies: []float64{705, 1065, 1410},
		Seed:        100 + uint64(p.Instance),
	}
}

// fakeRun produces a tiny synthetic result and counts invocations; fleet
// never inspects result internals, so campaigns need not be real here.
func fakeRun(calls *atomic.Int64) func(hwprofile.Profile, core.Config) (*core.Result, error) {
	return func(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
		calls.Add(1)
		return &core.Result{
			DeviceName:   fmt.Sprintf("%s[%d]", p.Key, p.Instance),
			Architecture: p.Config.Architecture,
		}, nil
	}
}

func TestSweepComputesThenHits(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profiles := testProfiles(3)
	var calls atomic.Int64
	opts := Options{Store: st, Config: testConfig, Run: fakeRun(&calls)}

	rep, err := Sweep(profiles, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 || rep.Computed != 3 || rep.Hits != 0 {
		t.Fatalf("cold sweep: calls=%d computed=%d hits=%d", calls.Load(), rep.Computed, rep.Hits)
	}
	for i, sh := range rep.Shards {
		if sh.Result == nil || sh.FromCache {
			t.Fatalf("shard %d: %+v", i, sh)
		}
		if sh.Key.Digest == "" {
			t.Fatalf("shard %d has no content address", i)
		}
	}

	// Warm sweep: everything served from the store, zero recomputation.
	rep2, err := Sweep(profiles, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 || rep2.Computed != 0 || rep2.Hits != 3 {
		t.Fatalf("warm sweep: calls=%d computed=%d hits=%d", calls.Load(), rep2.Computed, rep2.Hits)
	}
	for i, sh := range rep2.Shards {
		if !sh.FromCache || sh.Result == nil {
			t.Fatalf("warm shard %d not from cache: %+v", i, sh)
		}
		if sh.Result.DeviceName != rep.Shards[i].Result.DeviceName {
			t.Fatalf("warm shard %d result diverged", i)
		}
	}
	if got := rep2.Results(); len(got) != 3 || got[2].DeviceName != "a100[2]" {
		t.Fatalf("Results() = %v", got)
	}
}

func TestSweepResumesAfterFailure(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profiles := testProfiles(4)
	var calls atomic.Int64
	inner := fakeRun(&calls)

	// First sweep dies on unit 2. Replicas=1 makes the completed prefix
	// deterministic: units 0 and 1 land in the store before the abort.
	failing := Options{Replicas: 1, Store: st, Config: testConfig,
		Run: func(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
			if p.Instance == 2 {
				return nil, fmt.Errorf("device fell off the bus")
			}
			return inner(p, cfg)
		}}
	rep, err := Sweep(profiles, failing)
	if err == nil {
		t.Fatal("failing sweep reported success")
	}
	if rep.Computed != 2 || rep.Shards[2].Err == nil || rep.Shards[3].Result != nil {
		t.Fatalf("partial report: computed=%d shards=%+v", rep.Computed, rep.Shards)
	}

	// The store holds exactly the completed prefix.
	cached := make([]bool, len(profiles))
	for i, p := range profiles {
		cached[i] = st.Has(mustProfileKey(t, p))
	}
	if want := []bool{true, true, false, false}; fmt.Sprint(cached) != fmt.Sprint(want) {
		t.Fatalf("stored shards = %v, want %v", cached, want)
	}

	// The healed re-run recomputes only the missing shards.
	calls.Store(0)
	rep2, err := Sweep(profiles, Options{Replicas: 1, Store: st, Config: testConfig, Run: inner})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 || rep2.Hits != 2 || rep2.Computed != 2 {
		t.Fatalf("resume: calls=%d hits=%d computed=%d", calls.Load(), rep2.Hits, rep2.Computed)
	}
	if !rep2.Shards[0].FromCache || !rep2.Shards[1].FromCache ||
		rep2.Shards[2].FromCache || rep2.Shards[3].FromCache {
		t.Fatalf("resume cache pattern: %+v", rep2.Shards)
	}
}

func TestSweepBoundsReplicas(t *testing.T) {
	var inFlight, peak, calls atomic.Int64
	opts := Options{Replicas: 2,
		Run: func(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			calls.Add(1)
			return &core.Result{}, nil
		}}
	rep, err := Sweep(testProfiles(6), opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 6 || rep.Computed != 6 {
		t.Fatalf("calls=%d computed=%d", calls.Load(), rep.Computed)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("replica pool peaked at %d, bound is 2", p)
	}
}

func TestSweepWithoutStore(t *testing.T) {
	var calls atomic.Int64
	opts := Options{Run: fakeRun(&calls)}
	rep, err := Sweep(testProfiles(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 || rep.Hits != 0 || rep.Computed != 2 {
		t.Fatalf("calls=%d rep=%+v", calls.Load(), rep)
	}
}

func TestSweepOptionValidation(t *testing.T) {
	if _, err := Sweep(testProfiles(1), Options{}); err == nil {
		t.Fatal("missing Run accepted")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(testProfiles(1), Options{Store: st, Run: fakeRun(new(atomic.Int64))}); err == nil {
		t.Fatal("store without Config accepted")
	}
	if _, err := Sweep(testProfiles(1), Options{Run: fakeRun(new(atomic.Int64)), LeaseTTL: time.Minute}); err == nil {
		t.Fatal("LeaseTTL without store accepted")
	}
	if _, err := Sweep(testProfiles(1), Options{Store: st, Config: testConfig,
		Run: fakeRun(new(atomic.Int64)), LeaseTTL: -time.Second}); err == nil {
		t.Fatal("negative LeaseTTL accepted")
	}
}

// TestSweepErrorCarriesShardIdentity: a failing shard's error must name
// the shard (profile/instance), and the failure must not roll back
// sibling shards already persisted — the resume contract depends on
// those writes surviving the abort.
func TestSweepErrorCarriesShardIdentity(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profiles := testProfiles(4)
	var calls atomic.Int64
	inner := fakeRun(&calls)
	opts := Options{Replicas: 1, Store: st, Config: testConfig,
		Run: func(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
			if p.Instance == 2 {
				return nil, fmt.Errorf("device fell off the bus")
			}
			return inner(p, cfg)
		}}
	rep, err := Sweep(profiles, opts)
	if err == nil {
		t.Fatal("failing sweep reported success")
	}
	for _, want := range []string{"a100/2", "shard 2", "device fell off the bus"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name the failing shard (want %q)", err, want)
		}
	}

	// Sibling shards completed before the abort are durable in the store.
	for i := 0; i < 2; i++ {
		k, kerr := store.ProfileKey(profiles[i], testConfig(profiles[i]))
		if kerr != nil {
			t.Fatal(kerr)
		}
		if !st.Has(k) {
			t.Fatalf("completed sibling shard %d lost its store write after the abort", i)
		}
		if _, ok := st.Get(k); !ok {
			t.Fatalf("sibling shard %d blob unreadable after the abort", i)
		}
	}
	if rep.Computed != 2 {
		t.Fatalf("computed = %d, want 2 completed siblings", rep.Computed)
	}
}

// TestSweepLeasePartition is the cross-process acceptance shape: two
// sweeps racing over one store directory must compute each shard exactly
// once between them, and both must finish with identical full results.
func TestSweepLeasePartition(t *testing.T) {
	dir := t.TempDir()
	profiles := testProfiles(6)
	type proc struct {
		rep   *Report
		err   error
		calls atomic.Int64
	}
	procs := make([]*proc, 2)
	var wg sync.WaitGroup
	for i := range procs {
		p := &proc{}
		procs[i] = p
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		owner := fmt.Sprintf("proc-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.rep, p.err = Sweep(profiles, Options{
				Store:    st,
				Config:   testConfig,
				Run:      fakeRun(&p.calls),
				LeaseTTL: time.Minute,
				Owner:    owner,
				WaitPoll: 2 * time.Millisecond,
			})
		}()
	}
	wg.Wait()

	var computed, calls int64
	for i, p := range procs {
		if p.err != nil {
			t.Fatalf("proc %d: %v", i, p.err)
		}
		computed += int64(p.rep.Computed)
		calls += p.calls.Load()
		for j, sh := range p.rep.Shards {
			if sh.Result == nil {
				t.Fatalf("proc %d shard %d has no result", i, j)
			}
		}
	}
	if computed != int64(len(profiles)) || calls != int64(len(profiles)) {
		t.Fatalf("computed=%d calls=%d across both procs, want exactly %d each (shards duplicated or lost)",
			computed, calls, len(profiles))
	}
	// Both reports carry the identical result set, shard for shard.
	for j := range profiles {
		a := procs[0].rep.Shards[j].Result
		b := procs[1].rep.Shards[j].Result
		if a.DeviceName != b.DeviceName || a.Architecture != b.Architecture {
			t.Fatalf("shard %d diverged between procs: %+v vs %+v", j, a, b)
		}
	}
}

// TestSweepLeaseWaitsForPeer: a shard claimed by a live peer is not
// recomputed — the sweep waits and takes the peer's result from the
// store.
func TestSweepLeaseWaitsForPeer(t *testing.T) {
	dir := t.TempDir()
	stPeer, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stLocal, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	profiles := testProfiles(2)
	k0, err := store.ProfileKey(profiles[0], testConfig(profiles[0]))
	if err != nil {
		t.Fatal(err)
	}
	// The "peer": holds shard 0's lease, delivers its result mid-sweep.
	lease, ok, err := stPeer.TryAcquire(k0.Digest, "peer", time.Minute)
	if err != nil || !ok {
		t.Fatalf("peer claim: ok=%v err=%v", ok, err)
	}
	peerDone := make(chan error, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		if err := stPeer.Put(k0, &core.Result{DeviceName: "a100[0]"}); err != nil {
			peerDone <- err
			return
		}
		peerDone <- lease.Release()
	}()

	var calls atomic.Int64
	rep, err := Sweep(profiles, Options{
		Store: stLocal, Config: testConfig, Run: fakeRun(&calls),
		LeaseTTL: time.Minute, Owner: "local", WaitPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-peerDone; err != nil {
		t.Fatalf("peer: %v", err)
	}
	if calls.Load() != 1 || rep.Computed != 1 {
		t.Fatalf("local sweep computed %d shards (calls=%d), want only the unclaimed one",
			rep.Computed, calls.Load())
	}
	if rep.Waited != 1 {
		t.Fatalf("Waited = %d, want 1", rep.Waited)
	}
	if !rep.Shards[0].FromCache || rep.Shards[0].Result.DeviceName != "a100[0]" {
		t.Fatalf("shard 0 not served from the peer's write: %+v", rep.Shards[0])
	}
}

// TestSweepLeaseStealsExpired: a dead peer's expired lease must not
// block the shard forever — the sweep steals it and computes.
func TestSweepLeaseStealsExpired(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	profiles := testProfiles(2)
	k0, err := store.ProfileKey(profiles[0], testConfig(profiles[0]))
	if err != nil {
		t.Fatal(err)
	}
	// A lease whose holder died: tiny TTL, never renewed, never released.
	if _, ok, err := st.TryAcquire(k0.Digest, "dead-peer", time.Millisecond); err != nil || !ok {
		t.Fatalf("dead peer claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(10 * time.Millisecond)

	var calls atomic.Int64
	rep, err := Sweep(profiles, Options{
		Store: st, Config: testConfig, Run: fakeRun(&calls),
		LeaseTTL: time.Minute, Owner: "survivor", WaitPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Computed != 2 || calls.Load() != 2 {
		t.Fatalf("computed=%d calls=%d, want both shards computed", rep.Computed, calls.Load())
	}
	if rep.Stolen != 1 {
		t.Fatalf("Stolen = %d, want 1", rep.Stolen)
	}
}

// TestSweepLeaseWarmIsAllHits: lease mode changes who computes, never
// what a warm sweep looks like.
func TestSweepLeaseWarmIsAllHits(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profiles := testProfiles(3)
	var calls atomic.Int64
	opts := Options{Store: st, Config: testConfig, Run: fakeRun(&calls),
		LeaseTTL: time.Minute, Owner: "solo", WaitPoll: 2 * time.Millisecond}
	if _, err := Sweep(profiles, opts); err != nil {
		t.Fatal(err)
	}
	rep, err := Sweep(profiles, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hits != 3 || rep.Computed != 0 || rep.Claimed != 0 || calls.Load() != 3 {
		t.Fatalf("warm lease sweep: %+v calls=%d", rep, calls.Load())
	}
	// No lease debris left behind.
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".lease") {
			t.Fatalf("lease file %s left behind after clean sweeps", e.Name())
		}
	}
}

func mustProfileKey(t *testing.T, p hwprofile.Profile) store.Key {
	t.Helper()
	k, err := store.ProfileKey(p, testConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestSweepWatermarkGC: a sweep whose store outgrew the watermark runs
// one size-bounded GC pass afterwards and reports it; under the
// watermark no pass runs.
func TestSweepWatermarkGC(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profiles := testProfiles(4)
	var calls atomic.Int64
	over := Options{Store: st, Config: testConfig, Run: fakeRun(&calls), GCWatermarkBytes: 1}
	rep, err := Sweep(profiles, over)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GC == nil {
		t.Fatal("no watermark GC pass despite a 1-byte watermark")
	}
	if rep.GC.Evicted == 0 || st.Len() != 0 {
		t.Fatalf("watermark pass evicted %d, %d blobs left; want everything gone under a 1-byte bound",
			rep.GC.Evicted, st.Len())
	}
	// Every shard still carries its result: GC bounds the cache, never
	// the sweep in hand.
	for i, sh := range rep.Shards {
		if sh.Result == nil {
			t.Fatalf("shard %d lost its result to the GC pass", i)
		}
	}

	// A generous watermark leaves the store alone.
	calls.Store(0)
	rep2, err := Sweep(profiles, Options{Store: st, Config: testConfig, Run: fakeRun(&calls),
		GCWatermarkBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.GC != nil {
		t.Fatalf("GC pass ran below the watermark: %+v", rep2.GC)
	}
	if st.Len() != len(profiles) {
		t.Fatalf("store len = %d, want %d", st.Len(), len(profiles))
	}
}
