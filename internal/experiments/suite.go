// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) from simulated campaigns: Table I/II, the Fig. 3
// heatmaps, the Fig. 4 violins, the Fig. 5/6 scatter structure, the
// Fig. 7–9 manufacturing-variability study, the §VII-B cluster census,
// the §V-A confidence-interval degeneration argument, and the headline
// CPU-vs-GPU latency-scale comparison.
//
// Campaigns are expensive, so a Suite runs each one once and caches it;
// every artefact derives from the cached results. Two scales exist:
// ScaleQuick for benchmarks and tests (reduced frequency subsets and
// repetition counts) and ScaleFull for the paper-shaped regeneration in
// cmd/experiments. With Options.Store set, campaign results additionally
// persist across processes as content-addressed blobs (internal/store):
// a re-run with unchanged inputs recomputes nothing and reproduces every
// artefact byte for byte, and multi-unit studies shard over the fleet
// pool (internal/fleet) so interrupted sweeps resume where they stopped.
package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"golatest/internal/core"
	"golatest/internal/fleet"
	"golatest/internal/hwprofile"
	"golatest/internal/nvml"
	"golatest/internal/obs"
	"golatest/internal/sim/clock"
	"golatest/internal/store"
)

// Scale selects campaign sizes.
type Scale int

const (
	// ScaleQuick uses small frequency subsets and repetition counts:
	// suitable for go test and testing.B.
	ScaleQuick Scale = iota
	// ScaleFull uses the paper's evaluated frequency subsets and
	// RSE-driven repetition, matching the published figures' shape.
	ScaleFull
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == ScaleFull {
		return "full"
	}
	return "quick"
}

// Options configures a Suite.
type Options struct {
	Scale Scale
	// Seed offsets every campaign's host-side randomness; distinct seeds
	// give statistically independent replications.
	Seed uint64
	// Parallelism is handed down to every campaign's core.Config: it
	// bounds how many pair campaigns each campaign sweeps concurrently.
	// Zero means one worker per CPU, 1 one pair campaign at a time.
	// Kernel blocks always run on up to GOMAXPROCS cores whatever the
	// setting. Campaign results are identical at every setting.
	Parallelism int
	// Store, when non-nil, persists campaign results across processes as
	// content-addressed blobs: Campaign consults it before computing and
	// writes through after, so a warm re-run with unchanged inputs
	// recomputes nothing. Campaigns are deterministic, so a stored result
	// is indistinguishable from a fresh one. Any store.Backend works —
	// a local *store.Store directory, or a storenet.Client speaking to a
	// stored daemon so suites on different hosts share one store.
	Store store.Backend
	// FleetReplicas bounds how many whole campaigns the multi-unit
	// studies (A100Instances, Prewarm) run concurrently. Zero means one
	// per CPU. Results are identical at every setting.
	FleetReplicas int
	// LeaseTTL, when positive (requires Store), coordinates multi-unit
	// sweeps across processes: each shard is claimed through a store
	// lease before computing, so concurrent processes sharing a cache
	// directory partition a sweep instead of duplicating it. Size it to
	// comfortably exceed one campaign's runtime. Zero keeps sweeps
	// single-process (the PR-2 behaviour).
	LeaseTTL time.Duration
	// LeaseOwner identifies this process in lease files; empty derives a
	// host/pid id. Results never depend on it.
	LeaseOwner string
	// GCWatermarkBytes, when positive (requires Store), bounds the store
	// without operator action: after every fleet sweep whose indexed
	// blobs exceed the watermark, one GC pass evicts least-recently-used
	// blobs back under it. Zero leaves GC manual.
	GCWatermarkBytes int64
	// StoreErrors is handed to every fleet sweep: abort on store
	// write/claim failures, degrade around them, or (the zero value)
	// decide from whether the backend has a local fallback tier. See
	// fleet.StoreErrorPolicy.
	StoreErrors fleet.StoreErrorPolicy
	// Tracer, when non-nil, is handed to every fleet sweep: each
	// multi-unit study records a root span with per-shard children, and
	// a store client in reach carries the sweep's trace ID on its wire
	// requests (see fleet.Options.Tracer). The reports — including the
	// per-shard timing the trace reflects — accumulate in SweepReports.
	Tracer *obs.Tracer
}

// Suite runs and caches the campaigns all artefacts derive from.
type Suite struct {
	opts Options

	// campaigns implements per-key singleflight: the first caller of a key
	// inserts a call record and runs the campaign; concurrent callers of
	// the same key block on its done channel instead of duplicating the
	// (expensive) campaign. Completed calls double as the cache.
	mu        sync.Mutex
	campaigns map[string]*campaignCall

	// runs counts campaign executions (not cache hits); tests use it to
	// assert the singleflight collapses concurrent duplicate calls.
	runs atomic.Int64

	// Lease-mode contention, accumulated over every fleet sweep this
	// suite ran; see Contention.
	claimed, waited, stolen atomic.Int64

	// Store-failure resilience, accumulated over every fleet sweep; see
	// Resilience.
	degraded, deferred, reconciled atomic.Int64

	// Every fleet report this suite produced, in completion order; see
	// SweepReports. Guarded by repMu, not mu — sweeps run concurrently
	// with campaign singleflight traffic.
	repMu   sync.Mutex
	reports []*fleet.Report
}

// SweepReports returns every fleet report the suite's multi-unit
// studies have produced so far, in completion order. Each carries the
// per-shard timing breakdown (Report.WriteTimingTable) and, under a
// tracer, the sweep's trace ID.
func (s *Suite) SweepReports() []*fleet.Report {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	out := make([]*fleet.Report, len(s.reports))
	copy(out, s.reports)
	return out
}

// Contention reports the cross-process coordination a suite's sweeps
// experienced: leases claimed (shards this process computed under a
// claim), shards resolved by waiting on another process's claim, and
// expired leases stolen from dead processes. All zero outside lease
// mode.
type Contention struct {
	Claimed, Waited, Stolen int64
}

// Contention returns the accumulated lease-contention counters.
func (s *Suite) Contention() Contention {
	return Contention{
		Claimed: s.claimed.Load(),
		Waited:  s.waited.Load(),
		Stolen:  s.stolen.Load(),
	}
}

// Resilience reports the store-failure fallbacks the suite's sweeps
// absorbed under the degrade policy: Degraded counts fleet-level
// fallbacks (unleased recomputes, unpersisted results), Deferred and
// Reconciled count the resilient backend's write-behind journal
// traffic during those sweeps. All zero when the store never failed.
type Resilience struct {
	Degraded, Deferred, Reconciled int64
}

// Resilience returns the accumulated store-resilience counters.
func (s *Suite) Resilience() Resilience {
	return Resilience{
		Degraded:   s.degraded.Load(),
		Deferred:   s.deferred.Load(),
		Reconciled: s.reconciled.Load(),
	}
}

// campaignCall is one singleflight entry: done closes once res/err are
// final.
type campaignCall struct {
	done chan struct{}
	res  *core.Result
	err  error
}

// NewSuite creates an empty suite.
func NewSuite(opts Options) *Suite {
	return &Suite{opts: opts, campaigns: make(map[string]*campaignCall)}
}

// captureHints bound the capture window per architecture so campaigns
// skip the probing phase (the probe is exercised separately in tests).
var captureHints = map[string]int64{
	"gh200":   550_000_000, // pathological targets reach ≈480 ms
	"a100":    120_000_000,
	"rtx6000": 420_000_000,
}

// quickFreqs are the reduced subsets: small, medium, and high clocks
// including each architecture's pathological targets.
var quickFreqs = map[string][]float64{
	"gh200":   {705, 1095, 1260, 1500, 1875, 1980},
	"a100":    {705, 885, 1065, 1215, 1410},
	"rtx6000": {750, 930, 990, 1110, 1650},
}

// freqsFor returns the campaign frequency set of a profile at the given
// scale.
func (s *Suite) freqsFor(p hwprofile.Profile) []float64 {
	if s.opts.Scale == ScaleFull {
		return p.EvalFreqsMHz
	}
	return quickFreqs[p.Key]
}

// campaignConfig builds the core.Config of a campaign.
func (s *Suite) campaignConfig(p hwprofile.Profile) core.Config {
	cfg := core.Config{
		Frequencies:      s.freqsFor(p),
		MaxLatencyHintNs: captureHints[p.Key],
		Seed:             s.opts.Seed + 0x5eed + uint64(p.Instance),
	}
	switch s.opts.Scale {
	case ScaleFull:
		cfg.Blocks = 4
		cfg.MinMeasurements = 50
		cfg.MaxMeasurements = 120
		cfg.RSECheckEvery = 25
	default:
		// Quick campaigns still need enough samples for Algorithm 3's
		// density assumptions (the paper gathers "several hundred").
		cfg.Blocks = 3
		cfg.MinMeasurements = 28
		cfg.MaxMeasurements = 48
		cfg.RSECheckEvery = 10
	}
	cfg.Parallelism = s.opts.Parallelism
	return cfg
}

// runCampaign executes one campaign on a fresh device.
func (s *Suite) runCampaign(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
	dev, err := p.NewDevice(clock.New())
	if err != nil {
		return nil, err
	}
	lib, err := nvml.New(dev)
	if err != nil {
		return nil, err
	}
	h, err := lib.DeviceHandleByIndex(0)
	if err != nil {
		return nil, err
	}
	r, err := core.NewRunner(h, cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// Campaign returns the cached full campaign of a profile (keyed by
// profile and instance), running it on first use. Concurrent calls for
// the same key collapse into one execution: the winner runs the campaign
// and everyone else blocks until its result lands. A failed campaign is
// not cached, so a later call retries.
//
// With Options.Store set, the singleflight winner first looks the
// campaign up in the persistent store and only computes on a miss,
// writing the fresh result through; either way the in-process cache is
// populated, so the store is consulted at most once per key per Suite.
func (s *Suite) Campaign(p hwprofile.Profile) (*core.Result, error) {
	key := fmt.Sprintf("%s/%d", p.Key, p.Instance)
	s.mu.Lock()
	if c, ok := s.campaigns[key]; ok {
		s.mu.Unlock()
		<-c.done
		return c.res, c.err
	}
	c := &campaignCall{done: make(chan struct{})}
	s.campaigns[key] = c
	s.mu.Unlock()

	// A panicking campaign must not wedge the key: waiters need done
	// closed and future callers need the entry gone, whether the run
	// returns, errors, or unwinds.
	defer func() {
		if p := recover(); p != nil {
			c.err = fmt.Errorf("experiments: campaign %s panicked: %v", key, p)
			s.mu.Lock()
			delete(s.campaigns, key)
			s.mu.Unlock()
			close(c.done)
			panic(p)
		}
	}()

	c.res, c.err = s.storeBackedCampaign(p)
	if c.err != nil {
		c.err = fmt.Errorf("experiments: campaign %s: %w", key, c.err)
		s.mu.Lock()
		delete(s.campaigns, key) // leave failures uncached for retry
		s.mu.Unlock()
	}
	close(c.done)
	return c.res, c.err
}

// storeBackedCampaign resolves one campaign through the persistent store
// when configured: hit ⇒ the stored result (no recomputation, runs
// counter untouched), miss ⇒ compute and write through. Store write
// failures are non-fatal — the cache is an optimisation and the computed
// result in hand is correct — but a broken store also cannot invalidate
// a campaign that already succeeded.
func (s *Suite) storeBackedCampaign(p hwprofile.Profile) (*core.Result, error) {
	cfg := s.campaignConfig(p)
	var key store.Key
	if s.opts.Store != nil {
		k, err := store.ProfileKey(p, cfg)
		if err != nil {
			return nil, err
		}
		key = k
		if res, ok := s.opts.Store.Get(key); ok {
			return res, nil
		}
	}
	s.runs.Add(1)
	res, err := s.runCampaign(p, cfg)
	if err == nil && s.opts.Store != nil {
		_ = s.opts.Store.Put(key, res)
	}
	return res, err
}

// CampaignByKey resolves the profile by key and returns its campaign.
func (s *Suite) CampaignByKey(key string) (*core.Result, error) {
	p, err := hwprofile.ByKey(key)
	if err != nil {
		return nil, err
	}
	return s.Campaign(p)
}

// sweep shards whole campaigns over the fleet pool.
//
// Single-process mode (no LeaseTTL): the fleet's own store stays nil —
// Campaign already consults the suite's store (and the in-process
// cache) per shard, so the fleet only contributes the bounded replica
// pool and the shard report.
//
// Lease mode (Store + LeaseTTL): the fleet owns the store lookup, the
// lease claim/wait/steal loop, and the write-through, and the shard
// runner computes directly (bypassing the suite's singleflight, which
// would double-book the store traffic). Later Campaign calls for the
// same profiles are store hits.
func (s *Suite) sweep(profiles []hwprofile.Profile) ([]*core.Result, error) {
	fo := fleet.Options{
		Replicas:    s.opts.FleetReplicas,
		StoreErrors: s.opts.StoreErrors,
		Tracer:      s.opts.Tracer,
	}
	if s.opts.Store != nil && s.opts.LeaseTTL <= 0 {
		// Single-process mode: the fleet never sees the store (Campaign
		// owns the lookup), so hand it the store's trace carrier directly
		// — the suite's store traffic still attributes to the sweep.
		fo.TraceCarrier, _ = s.opts.Store.(obs.TraceContextSetter)
	}
	if s.opts.Store != nil && s.opts.LeaseTTL > 0 {
		fo.Store = s.opts.Store
		fo.Config = s.campaignConfig
		fo.LeaseTTL = s.opts.LeaseTTL
		fo.Owner = s.opts.LeaseOwner
		fo.GCWatermarkBytes = s.opts.GCWatermarkBytes
		fo.Run = func(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
			s.runs.Add(1)
			return s.runCampaign(p, cfg)
		}
	} else {
		fo.Run = func(p hwprofile.Profile, _ core.Config) (*core.Result, error) {
			return s.Campaign(p)
		}
	}
	rep, err := fleet.Sweep(profiles, fo)
	if rep != nil {
		s.claimed.Add(int64(rep.Claimed))
		s.waited.Add(int64(rep.Waited))
		s.stolen.Add(int64(rep.Stolen))
		s.degraded.Add(int64(rep.Degraded))
		s.deferred.Add(int64(rep.Deferred))
		s.reconciled.Add(int64(rep.Reconciled))
		s.repMu.Lock()
		s.reports = append(s.reports, rep)
		s.repMu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	// In single-process mode the fleet never saw the store (Campaign owns
	// lookup and write-through), so the watermark bound is applied here.
	if fo.Store == nil && s.opts.Store != nil {
		if _, _, gcErr := fleet.GCAtWatermark(s.opts.Store, s.opts.GCWatermarkBytes); gcErr != nil {
			return nil, gcErr
		}
	}
	return rep.Results(), nil
}

// A100Instances returns campaigns for the four front-row A100 units of
// §VII-C, sharded over the fleet pool (each shard runs on an independent
// device replica with its own virtual clock, so shards parallelise
// perfectly; FleetReplicas bounds how many are in flight).
func (s *Suite) A100Instances() ([]*core.Result, error) {
	return s.A100Fleet(4)
}

// A100Fleet generalises the §VII-C study to the first n A100 units —
// the manufacturing-variability sweep at fleet scale. With a persistent
// store configured, an interrupted or re-run sweep recomputes only the
// units missing from the store.
func (s *Suite) A100Fleet(n int) ([]*core.Result, error) {
	if n < 0 {
		return nil, fmt.Errorf("experiments: negative fleet size %d", n)
	}
	profiles := make([]hwprofile.Profile, n)
	for i := range profiles {
		profiles[i] = hwprofile.A100Instance(i)
	}
	return s.sweep(profiles)
}

// Prewarm runs the three main campaigns over the fleet pool; artefact
// calls afterwards hit the cache. Optional — artefacts run lazily
// regardless.
func (s *Suite) Prewarm() error {
	_, err := s.sweep(hwprofile.All())
	return err
}
