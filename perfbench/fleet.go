package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"golatest/internal/core"
	"golatest/internal/experiments"
	"golatest/internal/fleet"
	"golatest/internal/hwprofile"
	"golatest/internal/store"
	"golatest/internal/storenet"
	"golatest/internal/storenet/router"
)

const (
	// leaseTTL comfortably exceeds a shard's store round trips; no lease
	// expires during a sweep, so no shard is ever stolen.
	leaseTTL = time.Minute
	// joinSetupPasses is how often fleet-join fills a fresh daemon in
	// set-up; setup_s takes the median pass.
	joinSetupPasses = 3
	// replication is fleet-resume's copies per blob, over resumeMembers
	// daemons.
	replication   = 2
	resumeMembers = 3
)

// quickConfig mirrors the quick-scale campaign configuration that
// internal/experiments gives an A100 unit, so a bare fleet.Sweep
// addresses the same store keys a Suite does. fleet-resume checks the
// keys against the Suite-made reference before it measures anything.
func quickConfig(seed uint64, p hwprofile.Profile) core.Config {
	return core.Config{
		Frequencies:      []float64{705, 885, 1065, 1215, 1410},
		MaxLatencyHintNs: 120_000_000,
		Seed:             seed + 0x5eed + uint64(p.Instance),
		Blocks:           3,
		MinMeasurements:  28,
		MaxMeasurements:  48,
		RSECheckEvery:    10,
	}
}

// presentShards picks, from the seed, the half of the fleet an
// interrupted sweep already finished.
func presentShards(seed uint64, n int) map[int]bool {
	r := rand.New(rand.NewPCG(seed, 0x7265_7375_6d65)) // "resume"
	out := make(map[int]bool, n/2)
	for _, i := range r.Perm(n)[:n/2] {
		out[i] = true
	}
	return out
}

// refShard is one unit of the fleet reference.
type refShard struct {
	Instance int    `json:"instance"`
	Digest   string `json:"digest"`
}

const refManifest = "shards.json"

// buildFleetRef computes the A100 fleet campaigns once, the way a warm
// fleet host would have (a lease-mode Suite over a local store), and
// records the shard order next to the blobs.
func buildFleetRef(seed uint64, shards int, dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	n := runtime.NumCPU()
	s := experiments.NewSuite(experiments.Options{
		Scale: experiments.ScaleQuick, Seed: seed, Store: st,
		Parallelism: n, FleetReplicas: n, LeaseTTL: leaseTTL, LeaseOwner: "reference",
	})
	if _, err := s.A100Fleet(shards); err != nil {
		return fmt.Errorf("reference fleet: %w", err)
	}
	reps := s.SweepReports()
	if len(reps) != 1 {
		return fmt.Errorf("reference fleet: %d sweep reports, want 1", len(reps))
	}
	var man []refShard
	for _, sh := range reps[0].Shards {
		man = append(man, refShard{Instance: sh.Profile.Instance, Digest: sh.Key.Digest})
	}
	b, err := json.Marshal(man)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, refManifest), b, 0o644)
}

// fleetRef is the reference as a child process loads it.
type fleetRef struct {
	shards []refShard
	keys   []store.Key
	blobs  []*store.ValidatedBlob
	canon  [][]byte // v3 encoding of each reference result
	byInst map[int]*core.Result
}

func loadFleetRef(dir string) (*fleetRef, error) {
	b, err := os.ReadFile(filepath.Join(dir, refManifest))
	if err != nil {
		return nil, err
	}
	ref := &fleetRef{byInst: map[int]*core.Result{}}
	if err := json.Unmarshal(b, &ref.shards); err != nil {
		return nil, fmt.Errorf("%s: %w", refManifest, err)
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	for _, sh := range ref.shards {
		vb, ok := st.GetValidated(sh.Digest)
		if !ok {
			return nil, fmt.Errorf("reference blob %s missing or invalid", sh.Digest)
		}
		k := vb.Key()
		canon, err := store.EncodeBlobV3(k, vb.Result())
		if err != nil {
			return nil, err
		}
		back, err := store.ValidateBlobBytes(canon, k.Digest)
		if err != nil {
			return nil, fmt.Errorf("reference %s: read back: %w", k, err)
		}
		if !sameValue(back.Result(), vb.Result()) {
			return nil, fmt.Errorf("reference %s: encoding does not read back equal", k)
		}
		ref.keys = append(ref.keys, k)
		ref.blobs = append(ref.blobs, vb)
		ref.canon = append(ref.canon, canon)
		ref.byInst[sh.Instance] = vb.Result()
	}
	return ref, nil
}

// sameResult checks that res equals the reference result of shard i.
func (ref *fleetRef) sameResult(i int, res *core.Result) error {
	if !sameValue(res, ref.blobs[i].Result()) {
		return fmt.Errorf("shard %d: result differs from the reference", i)
	}
	return nil
}

// checkCopies checks that a blob exists as exactly r copies, each
// byte-identical to canon. loadFleetRef has checked that canon reads
// back as the reference result, so equal bytes read back equal.
func checkCopies(k store.Key, copies [][]byte, canon []byte, r int) error {
	if len(copies) != r {
		return fmt.Errorf("%s: %d copies, want %d", k, len(copies), r)
	}
	for _, c := range copies {
		if !bytes.Equal(c, canon) {
			return fmt.Errorf("%s: copy differs from the reference bytes", k)
		}
	}
	return nil
}

// counters are the fleet.Report counters traced and untraced sweeps
// must agree on.
type counters struct {
	Hits, Computed, Claimed, Waited, Stolen, Degraded, Deferred int
}

func checkCounters(what string, got, want counters) error {
	if got != want {
		return fmt.Errorf("%s: counters %+v, want %+v", what, got, want)
	}
	return nil
}

func countersOf(r *fleet.Report) counters {
	return counters{r.Hits, r.Computed, r.Claimed, r.Waited, r.Stolen, r.Degraded, r.Deferred}
}

// shardTimes sums a sweep's store time and its total shard time.
func shardTimes(r *fleet.Report) (storeNs, shardNs int64) {
	for _, sh := range r.Shards {
		storeNs += sh.StoreNs
		shardNs += sh.StoreNs + sh.WaitNs + sh.ComputeNs
	}
	return storeNs, shardNs
}

// daemon is an in-process stored on a loopback port.
type daemon struct {
	st   *store.Store
	url  string
	hs   *http.Server
	done chan struct{}
}

func startDaemon(dir string) (*daemon, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		st:   st,
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: storenet.NewServerWith(st, storenet.ServerOptions{})},
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return d, nil
}

func (d *daemon) stop() {
	_ = d.hs.Close() // closing an idle server cannot fail in a way that matters here
	<-d.done
}

// newClient builds a store client with its own connection pool, as a
// fresh host has; close the returned transport's idle connections when
// done with the client.
func newClient(url string, cache *store.Store, seed uint64) (*storenet.Client, *http.Transport, error) {
	tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}
	c, err := storenet.NewClient(url, storenet.ClientOptions{
		Cache: cache, HTTPClient: &http.Client{Transport: tr}, Seed: seed,
	})
	return c, tr, err
}

// childReport is what a fleet child process prints: the measured phase
// of one fleet workload.
type childReport struct {
	Setup     []float64         `json:"setup_s"` // one per set-up pass
	Walls     []float64         `json:"wall_s"`  // one per sweep
	CPU       float64           `json:"cpu_s"`   // summed over sweeps
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures"`
	Counters  counters          `json:"counters"`
	Layers    map[string]metric `json:"layers,omitempty"`
}

func (c *childReport) tally() tally {
	return tally{attempted: c.Attempted, failed: c.Failed, reasons: c.Failures}
}

// runChild runs the measured phase of a fleet workload in this process
// and prints its childReport.
func runChild(kind, refDir string, cfg config, w io.Writer) error {
	ref, err := loadFleetRef(refDir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	var rep *childReport
	switch kind {
	case "fleet-join":
		rep, err = joinChild(ref, cfg)
	case "fleet-resume":
		rep, err = resumeChild(ref, cfg)
	default:
		err = fmt.Errorf("unknown child %q", kind)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// joinChild measures fresh hosts joining a warm fleet: each sweep is a
// new Suite reading the whole A100 fleet from a pre-filled daemon
// through a client with an empty local tier.
func joinChild(ref *fleetRef, cfg config) (*childReport, error) {
	rep := &childReport{}
	var t tally
	var d *daemon
	for i := 0; i < joinSetupPasses; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(filepath.Join(cfg.work, fmt.Sprintf("stored-%d", i))); err != nil {
			return nil, err
		}
		c, tr, err := newClient(d.url, nil, cfg.seed)
		if err != nil {
			return nil, err
		}
		for _, vb := range ref.blobs {
			if err := c.PutValidated(vb); err != nil {
				return nil, fmt.Errorf("pre-fill: %w", err)
			}
		}
		tr.CloseIdleConnections()
		rep.Setup = append(rep.Setup, time.Since(start).Seconds())
	}
	defer d.stop()

	want := counters{Hits: len(ref.shards)}
	var tm *timings
	if cfg.trace {
		tm = newTimings()
	}
	var storeNs, shardNs int64
	var retries int64
	n := runtime.NumCPU()
	start := time.Now()
	for u := 0; u == 0 || time.Since(start).Seconds() < cfg.seconds; u++ {
		cacheDir := filepath.Join(cfg.work, fmt.Sprintf("host-%d", u))
		local, err := store.Open(cacheDir)
		if err != nil {
			return nil, err
		}
		c, tr, err := newClient(d.url, local, cfg.seed+uint64(u))
		if err != nil {
			return nil, err
		}
		var b store.Backend = c
		if tm != nil {
			b = timeClient(c, tm)
		}
		s := experiments.NewSuite(experiments.Options{
			Scale: experiments.ScaleQuick, Seed: cfg.seed, Store: b,
			Parallelism: n, FleetReplicas: n, LeaseTTL: leaseTTL, LeaseOwner: "fleet-join",
		})
		c0, t0 := cpuTime(), time.Now()
		results, err := s.A100Fleet(len(ref.shards))
		rep.Walls = append(rep.Walls, time.Since(t0).Seconds())
		rep.CPU += (cpuTime() - c0).Seconds()
		tr.CloseIdleConnections()
		retries += c.Telemetry().Retries

		reps := s.SweepReports()
		for i := range ref.shards {
			switch {
			case err != nil:
				t.op(fmt.Errorf("sweep %d: %w", u, err))
			case len(reps) != 1 || !reps[0].Shards[i].FromCache:
				t.op(fmt.Errorf("sweep %d shard %d: not a store hit", u, i))
			default:
				t.op(ref.sameResult(i, results[i]))
			}
		}
		if len(reps) == 1 {
			rep.Counters = countersOf(reps[0])
			t.op(checkCounters(fmt.Sprintf("sweep %d", u), rep.Counters, want))
			st, all := shardTimes(reps[0])
			storeNs, shardNs = storeNs+st, shardNs+all
		}
		if err := os.RemoveAll(cacheDir); err != nil {
			return nil, err
		}
	}
	rep.Attempted, rep.Failed, rep.Failures = t.attempted, t.failed, t.reasons
	if tm == nil {
		return rep, nil
	}

	// The read path below the client, one public call at a time: the
	// daemon's store read, the v3 validate/decode, and the local heal.
	var getraw, decode, localPut []float64
	for round := 0; round < 3; round++ {
		local, err := store.Open(filepath.Join(cfg.work, fmt.Sprintf("heal-%d", round)))
		if err != nil {
			return nil, err
		}
		for _, sh := range ref.shards {
			t0 := time.Now()
			raw, ok := d.st.GetRaw(sh.Digest)
			getraw = append(getraw, ms(time.Since(t0)))
			if !ok {
				return nil, fmt.Errorf("daemon lost blob %s", sh.Digest)
			}
			t0 = time.Now()
			vb, err := store.ValidateBlobBytes(raw, sh.Digest)
			decode = append(decode, ms(time.Since(t0)))
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			err = local.PutValidated(vb)
			localPut = append(localPut, ms(time.Since(t0)))
			if err != nil {
				return nil, err
			}
		}
	}
	gets := scale(tm.samples("get"), 1000)
	rep.Layers = map[string]metric{
		"storenet.get_p50_ms": {quantile(gets, 0.5), "ms", len(gets)},
		"storenet.get_p99_ms": {quantile(gets, 0.99), "ms", len(gets)},
		"store.getraw_ms":     {median(getraw), "ms", len(getraw)},
		"store.decode_ms":     {median(decode), "ms", len(decode)},
		"store.local_put_ms":  {median(localPut), "ms", len(localPut)},
		"storenet.retries":    {float64(retries), "count", len(rep.Walls)},
	}
	maps.Copy(rep.Layers, fleetLayers(len(rep.Walls), median(rep.Walls), storeNs, shardNs, rep.Counters))
	return rep, nil
}

// fleetLayers returns the fleet.* layer metrics of n sweeps with the
// given median wall time, summed store and shard times, and counters.
func fleetLayers(n int, sweepS float64, storeNs, shardNs int64, c counters) map[string]metric {
	return map[string]metric{
		"fleet.sweep_s":     {sweepS, "s", n},
		"fleet.store_share": {float64(storeNs) / float64(max(shardNs, 1)), "ratio", n},
		"fleet.hits":        {float64(c.Hits), "count", n},
		"fleet.computed":    {float64(c.Computed), "count", n},
		"fleet.claimed":     {float64(c.Claimed), "count", n},
	}
}

// resumeEnv is one fleet-resume starting state: three daemons holding
// the finished half of the fleet at R copies each, and a router over
// them with a fresh local read-through tier.
type resumeEnv struct {
	daemons []*daemon
	clients []*storenet.Client
	trs     []*http.Transport
	rt      *router.Router
	backend store.Backend
}

func newResumeEnv(dir string, ref *fleetRef, present map[int]bool, seed uint64, memberT, routerT *timings) (*resumeEnv, error) {
	env := &resumeEnv{}
	var members []store.Backend
	for i := 0; i < resumeMembers; i++ {
		d, err := startDaemon(filepath.Join(dir, fmt.Sprintf("member-%d", i)))
		if err != nil {
			env.close()
			return nil, err
		}
		env.daemons = append(env.daemons, d)
		c, tr, err := newClient(d.url, nil, seed+uint64(i))
		if err != nil {
			env.close()
			return nil, err
		}
		env.clients = append(env.clients, c)
		env.trs = append(env.trs, tr)
		var m store.Backend = c
		if memberT != nil {
			m = timeClient(c, memberT)
		}
		members = append(members, m)
	}
	local, err := store.Open(filepath.Join(dir, "local"))
	if err != nil {
		env.close()
		return nil, err
	}
	env.rt, err = router.New(members, router.Options{Replication: replication, Local: local, Seed: seed})
	if err != nil {
		env.close()
		return nil, err
	}
	env.backend = env.rt
	if routerT != nil {
		env.backend = timeRouter(env.rt, routerT)
	}
	for i, vb := range ref.blobs {
		if !present[i] {
			continue
		}
		for _, loc := range env.rt.Replicas(vb.Digest()) {
			d := env.daemonAt(loc)
			if d == nil {
				env.close()
				return nil, fmt.Errorf("replica %s is no member", loc)
			}
			if err := d.st.PutValidated(vb); err != nil {
				env.close()
				return nil, err
			}
		}
	}
	return env, nil
}

func (e *resumeEnv) daemonAt(loc string) *daemon {
	for _, d := range e.daemons {
		if d.url == loc {
			return d
		}
	}
	return nil
}

// ringCopies returns the bytes of a blob's copy on each of its ring
// replicas. A replica without a copy, or a copy on a member off the
// ring, is an error.
func (e *resumeEnv) ringCopies(k store.Key) ([][]byte, error) {
	ring := e.rt.Replicas(k.Digest)
	var out [][]byte
	for _, d := range e.daemons {
		if !slices.Contains(ring, d.url) {
			if d.st.Has(k) {
				return nil, fmt.Errorf("%s: copy on %s, off its ring replicas", k, d.url)
			}
			continue
		}
		raw, ok := d.st.GetRaw(k.Digest)
		if !ok {
			return nil, fmt.Errorf("%s: ring replica %s has no copy", k, d.url)
		}
		out = append(out, raw)
	}
	return out, nil
}

func (e *resumeEnv) close() {
	for _, tr := range e.trs {
		tr.CloseIdleConnections()
	}
	for _, d := range e.daemons {
		d.stop()
	}
}

// resumeChild measures resuming an interrupted replicated sweep: half
// the fleet is already stored at R copies, the other half is claimed,
// replayed from the reference and Put through the router.
func resumeChild(ref *fleetRef, cfg config) (*childReport, error) {
	profiles := make([]hwprofile.Profile, len(ref.shards))
	for i, sh := range ref.shards {
		profiles[i] = hwprofile.A100Instance(sh.Instance)
		k, err := store.ProfileKey(profiles[i], quickConfig(cfg.seed, profiles[i]))
		if err != nil {
			return nil, err
		}
		if k != ref.keys[i] {
			return nil, fmt.Errorf("shard %d: key %s, reference has %s: quickConfig no longer matches the experiments quick scale", i, k, ref.keys[i])
		}
	}
	present := presentShards(cfg.seed, len(ref.shards))
	want := counters{Hits: len(present), Computed: len(ref.shards) - len(present), Claimed: len(ref.shards) - len(present)}

	var memberT, routerT, runT *timings
	if cfg.trace {
		memberT, routerT, runT = newTimings(), newTimings(), newTimings()
	}
	replay := func(p hwprofile.Profile, _ core.Config) (*core.Result, error) {
		if runT != nil {
			defer runT.observe("run", time.Now())
		}
		res, ok := ref.byInst[p.Instance]
		if !ok {
			return nil, fmt.Errorf("no reference for instance %d", p.Instance)
		}
		return res, nil
	}

	rep := &childReport{}
	var t tally
	var storeNs, shardNs, retries int64
	var failovers, repairs int64
	n := runtime.NumCPU()
	start := time.Now()
	for u := 0; u == 0 || time.Since(start).Seconds() < cfg.seconds; u++ {
		s0 := time.Now()
		dir := filepath.Join(cfg.work, fmt.Sprintf("resume-%d", u))
		env, err := newResumeEnv(dir, ref, present, cfg.seed, memberT, routerT)
		if err != nil {
			return nil, err
		}
		rep.Setup = append(rep.Setup, time.Since(s0).Seconds())

		c0, t0 := cpuTime(), time.Now()
		frep, err := fleet.Sweep(profiles, fleet.Options{
			Replicas: n, Store: env.backend, Config: func(p hwprofile.Profile) core.Config { return quickConfig(cfg.seed, p) },
			Run: replay, LeaseTTL: leaseTTL, Owner: "fleet-resume",
		})
		rep.Walls = append(rep.Walls, time.Since(t0).Seconds())
		rep.CPU += (cpuTime() - c0).Seconds()
		for _, tr := range env.trs {
			tr.CloseIdleConnections()
		}

		for i := range ref.shards {
			opErr := err
			if opErr == nil {
				opErr = ref.sameResult(i, frep.Shards[i].Result)
			}
			if opErr == nil {
				var copies [][]byte
				if copies, opErr = env.ringCopies(ref.keys[i]); opErr == nil {
					opErr = checkCopies(ref.keys[i], copies, ref.canon[i], replication)
				}
			}
			if opErr != nil {
				opErr = fmt.Errorf("sweep %d: %w", u, opErr)
			}
			t.op(opErr)
		}
		if frep != nil {
			rep.Counters = countersOf(frep)
			t.op(checkCounters(fmt.Sprintf("sweep %d", u), rep.Counters, want))
			st, all := shardTimes(frep)
			storeNs, shardNs = storeNs+st, shardNs+all
			if r := frep.Replication; r != nil {
				failovers += r.Failovers
				repairs += r.ReadRepairs
			}
		}
		for _, c := range env.clients {
			retries += c.Telemetry().Retries
		}
		env.close()
		if runT != nil {
			var err error
			if calls := len(runT.samples("run")); calls != (u+1)*want.Computed {
				err = fmt.Errorf("sweep %d: Run called %d times in all, want %d", u, calls, (u+1)*want.Computed)
			}
			t.op(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	rep.Attempted, rep.Failed, rep.Failures = t.attempted, t.failed, t.reasons
	if !cfg.trace {
		return rep, nil
	}

	var encode []float64
	var blobBytes int
	for round := 0; round < 3; round++ {
		for i, k := range ref.keys {
			t0 := time.Now()
			b, err := store.EncodeBlobV3(k, ref.byInst[ref.shards[i].Instance])
			encode = append(encode, ms(time.Since(t0)))
			if err != nil {
				return nil, err
			}
			if round == 0 {
				blobBytes += len(b)
			}
		}
	}
	puts := scale(memberT.samples("put"), 1000)
	leases := scale(memberT.samples("acquire"), 1000)
	routerSum, routerN := routerT.total()
	memberSum, _ := memberT.total()
	routerPuts := len(routerT.samples("put"))
	perPut := 0.0
	if routerPuts > 0 {
		perPut = float64(len(puts)) / float64(routerPuts)
	}
	overhead := 0.0
	if routerN > 0 {
		overhead = (routerSum - memberSum) / float64(routerN) * 1000
	}
	units := len(rep.Walls)
	rep.Layers = map[string]metric{
		"storenet.put_p50_ms":        {quantile(puts, 0.5), "ms", len(puts)},
		"storenet.put_p99_ms":        {quantile(puts, 0.99), "ms", len(puts)},
		"storenet.lease_p50_ms":      {quantile(leases, 0.5), "ms", len(leases)},
		"storenet.retries":           {float64(retries), "count", units},
		"store.encode_ms":            {median(encode), "ms", len(encode)},
		"store.blob_kb":              {float64(blobBytes) / 1024 / float64(len(ref.keys)), "KB", len(ref.keys)},
		"router.get_ms":              {median(scale(routerT.samples("get"), 1000)), "ms", len(routerT.samples("get"))},
		"router.put_ms":              {median(scale(routerT.samples("put"), 1000)), "ms", routerPuts},
		"router.overhead_ms":         {overhead, "ms", routerN},
		"router.member_puts_per_put": {perPut, "ratio", routerPuts},
		"router.read_repairs":        {float64(repairs), "count", units},
		"router.failovers":           {float64(failovers), "count", units},
	}
	maps.Copy(rep.Layers, fleetLayers(len(rep.Walls), median(rep.Walls), storeNs, shardNs, rep.Counters))
	return rep, nil
}

// fleetChild runs one fleet workload's measured phase in a child
// process, so its peak RSS and CPU time belong to that phase alone.
func fleetChild(ctx context.Context, cfg config, kind, refDir string, traced bool, logw io.Writer) (*childReport, proc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, proc{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	work := filepath.Join(cfg.work, fmt.Sprintf("%s-trace%s", kind, trace))
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, "-child", kind, "-ref", refDir, "-work", work,
		"-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", trace)
	cmd.Stdout, cmd.Stderr = &out, logw
	// Lets a test binary standing in for this program act as main.
	cmd.Env = append(os.Environ(), childEnv+"=1")
	p, err := runProc(cmd)
	if err != nil {
		return nil, p, fmt.Errorf("%s child: %w", kind, err)
	}
	if err := os.RemoveAll(work); err != nil {
		return nil, p, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var rep childReport
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, p, fmt.Errorf("%s child report: %w", kind, err)
	}
	if len(rep.Walls) == 0 {
		return nil, p, errors.New(kind + " child measured no sweep")
	}
	return &rep, p, nil
}

// proc is one finished child process.
type proc struct {
	wall     time.Duration
	cpu      time.Duration
	maxRSSMB float64
}

// runProc runs a child to completion and returns its wall time and
// resource usage. Build cmd with exec.CommandContext so the run's
// budget can kill it.
func runProc(cmd *exec.Cmd) (proc, error) {
	start := time.Now()
	err := cmd.Run()
	p := proc{wall: time.Since(start)}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			p.cpu = rusageCPU(ru)
			p.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	return p, err
}

// fleetWorkload runs fleet-join or fleet-resume: the reference fleet is
// computed here, the measured phase runs in a child process.
func fleetWorkload(ctx context.Context, cfg config, logw io.Writer) (*result, error) {
	refDir := filepath.Join(cfg.work, "ref")
	start := time.Now()
	if err := buildFleetRef(cfg.seed, cfg.shards, refDir); err != nil {
		return nil, err
	}
	refWall := time.Since(start).Seconds()

	res := &result{}
	own, p, err := fleetChild(ctx, cfg, cfg.workload, refDir, false, logw)
	if err != nil {
		return nil, err
	}
	res.add(own.tally())
	if !cfg.trace {
		n := len(own.Walls)
		res.set("wall_s", median(own.Walls), "s", n)
		res.set("cpu_s", own.CPU/float64(n), "s", n)
		res.set("peak_rss_mb", p.maxRSSMB, "MB", 1)
		res.set("setup_s", refWall+median(own.Setup), "s", len(own.Setup))
		return res, nil
	}

	traced, _, err := fleetChild(ctx, cfg, cfg.workload, refDir, true, logw)
	if err != nil {
		return nil, err
	}
	res.add(traced.tally())
	res.op(checkCounters("traced sweeps", traced.Counters, own.Counters))
	res.set("bench.trace_overhead", median(traced.Walls)/median(own.Walls), "ratio", len(traced.Walls))
	other := "fleet-resume"
	if cfg.workload == "fleet-resume" {
		other = "fleet-join"
	}
	probe, _, err := fleetChild(ctx, cfg, other, refDir, true, logw)
	if err != nil {
		return nil, err
	}
	res.add(probe.tally())
	mergeLayers(res, traced.Layers, true)
	mergeLayers(res, probe.Layers, false)
	if _, err := probeExperiments(cfg, "", res, false); err != nil {
		return nil, err
	}
	if err := probeSim(res); err != nil {
		return nil, err
	}
	return res, probeCore(cfg, res)
}

// mergeLayers copies a child's layer metrics into res. fleet.* metrics
// belong to the workload's own sweeps, so they are taken only when
// own is set; retry counts add up over every child.
func mergeLayers(res *result, layers map[string]metric, own bool) {
	for name, m := range layers {
		switch {
		case name == "storenet.retries":
			if prev, ok := res.metrics[name]; ok {
				m.Value += prev.Value
				m.N += prev.N
			}
		case strings.HasPrefix(name, "fleet.") && !own:
			continue
		}
		res.set(name, m.Value, m.Unit, m.N)
	}
}
