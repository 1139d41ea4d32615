// Package core implements the paper's accelerator switching-latency
// methodology (§V) end to end:
//
//   - Phase 1 — warm-up and frequency characterisation: the iterative
//     microbenchmark runs under every candidate clock; per-clock iteration
//     statistics feed pairwise null-hypothesis tests that exclude pairs
//     whose execution times are statistically indistinguishable
//     (Algorithm 1).
//   - Phase 2 — the switching benchmark: host and device timers are
//     synchronised (IEEE 1588), the benchmark kernel launches under the
//     initial clock, the host sleeps through the delay region, issues the
//     clock change, and records its timestamp (Algorithm 2, lines 1–8).
//   - Phase 3 — evaluation: each SM's iteration trace is scanned after the
//     change timestamp for the first iteration inside the two-standard-
//     deviation band of the target clock (§V-A), confirmed by a
//     mean-difference test over the remaining iterations; the pair's
//     switching latency is the maximum t_e − t_s over SMs (Algorithm 2,
//     lines 9–24).
//
// A pair's campaign repeats phases 2–3 under the relative-standard-error
// stopping rule with throttle backoff (§VI), and the analysis phase
// removes outliers with adaptive DBSCAN (Algorithm 3) via
// internal/cluster.
package core

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"golatest/internal/cluster"
	"golatest/internal/nvml"
	"golatest/internal/ptp"
)

// Pair is an ordered frequency pair: the switching latency of init→target
// is generally different from target→init (§III).
type Pair struct {
	InitMHz   float64
	TargetMHz float64
}

// String renders the pair the way the paper writes transitions.
func (p Pair) String() string { return fmt.Sprintf("%.0f→%.0f MHz", p.InitMHz, p.TargetMHz) }

// Increasing reports whether the pair raises the clock.
func (p Pair) Increasing() bool { return p.TargetMHz > p.InitMHz }

// Config tunes a measurement campaign. The zero value is not valid;
// Frequencies is required and everything else has paper-faithful defaults
// filled by withDefaults.
type Config struct {
	// Frequencies are the SM clocks under test (the tool's mandatory
	// comma-separated list). At least two distinct supported clocks.
	Frequencies []float64

	// Blocks bounds how many SM-resident blocks are simulated and
	// analysed per kernel. Zero means all SMs, the methodology's full
	// shape; campaigns use a subset for tractability since per-SM
	// populations are statistically identical (documented substitution).
	Blocks int

	// IterTargetNs is the nominal iteration duration at the slower clock
	// of each measured pair; it bounds the latency resolution (§V:
	// "as tiny as possible"). Default 150 µs.
	IterTargetNs float64

	// WarmKernels and ItersPerKernel shape phase 1: several kernels per
	// clock, statistics from the last one. Defaults 3 and 300.
	WarmKernels    int
	ItersPerKernel int

	// Confidence drives every interval/test (default 0.95).
	Confidence float64

	// RSETarget is the stopping threshold on the relative standard error
	// of a pair's switching latencies (default 0.05, the tool's default).
	RSETarget float64
	// MinMeasurements skips RSE checks until this many samples exist;
	// MaxMeasurements hard-stops the pair. Defaults 25 and 100.
	MinMeasurements int
	MaxMeasurements int
	// RSECheckEvery and ThrottleCheckEvery are the §VI cadences: RSE every
	// 25 passes, throttle reasons every 5. Defaults 25 and 5.
	RSECheckEvery      int
	ThrottleCheckEvery int
	// Cooldown is the backoff after a thermal throttle event (§VI: ten
	// seconds). Default 10 s of virtual time.
	Cooldown time.Duration

	// DelayIters run under the initial clock before the change request
	// (§V delay period, default 200); ConfirmIters is the
	// target-identification tail (default 400).
	DelayIters   int
	ConfirmIters int

	// MaxLatencyHintNs bounds the capture region. Zero means the runner
	// probes a few pairs first (§V switching-latency estimation) and uses
	// ten times the longest observed latency.
	MaxLatencyHintNs int64
	// CaptureSafety multiplies the hint when sizing the capture region
	// (default 1.5 for explicit hints; probing already includes the 10×).
	CaptureSafety float64

	// SigmaK is the acceptance band half-width in target-population
	// standard deviations (§V-A uses 2).
	SigmaK float64
	// CIDetection switches phase 3 to FTaLaT's confidence-interval band
	// (SigmaK standard *errors* instead of standard deviations). The
	// paper's §V-A argues this degenerates on accelerators; the option
	// exists for the ablation that demonstrates it.
	CIDetection bool
	// RelTolerance accepts the confirmation population when its mean
	// differs from the phase-1 target mean by less than this fraction
	// (Algorithm 2's "meanDiff < tol"). Default 0.02.
	RelTolerance float64

	// Outlier configures the adaptive DBSCAN filter (Algorithm 3).
	Outlier cluster.AdaptiveConfig
	// PTP configures the timer synchronisation.
	PTP ptp.Config

	// Seed drives host-side randomness (PTP link sampling).
	Seed uint64

	// Parallelism bounds how many pair campaigns Run sweeps concurrently.
	// Each pair runs on an independent device replica seeded
	// deterministically from (Seed, pair), so results are bit-for-bit
	// identical at every setting — parallelism only changes wall clock.
	// Zero means one worker per available CPU; 1 runs one pair campaign
	// at a time. It bounds pair campaigns only: the simulator always runs
	// a kernel's SM blocks on up to GOMAXPROCS cores, with identical
	// results.
	Parallelism int
}

// withDefaults validates cfg against the device and fills defaults.
func (c Config) withDefaults(dev *nvml.Device) (Config, error) {
	if dev == nil {
		return c, fmt.Errorf("core: nil device")
	}
	if len(c.Frequencies) < 2 {
		return c, fmt.Errorf("core: need at least two frequencies, got %d", len(c.Frequencies))
	}
	seen := map[float64]bool{}
	simCfg := dev.Sim().Config()
	for _, f := range c.Frequencies {
		if !simCfg.SupportsFreq(f) {
			return c, fmt.Errorf("core: clock %v MHz not supported by %s", f, dev.Name())
		}
		if seen[f] {
			return c, fmt.Errorf("core: duplicate clock %v MHz", f)
		}
		seen[f] = true
	}
	if c.Blocks == 0 || c.Blocks > simCfg.SMCount {
		c.Blocks = simCfg.SMCount
		if c.Blocks > 8 {
			c.Blocks = 8
		}
	}
	if c.IterTargetNs == 0 {
		c.IterTargetNs = 150_000
	}
	if c.IterTargetNs < 10*float64(simCfg.TimerQuantumNs) {
		return c, fmt.Errorf("core: iteration target %v ns too close to timer quantum %d ns",
			c.IterTargetNs, simCfg.TimerQuantumNs)
	}
	if c.WarmKernels == 0 {
		c.WarmKernels = 3
	}
	if c.ItersPerKernel == 0 {
		c.ItersPerKernel = 300
	}
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		return c, fmt.Errorf("core: confidence %v outside (0, 1)", c.Confidence)
	}
	if c.RSETarget == 0 {
		c.RSETarget = 0.05
	}
	if c.MinMeasurements == 0 {
		c.MinMeasurements = 25
	}
	if c.MaxMeasurements == 0 {
		c.MaxMeasurements = 100
	}
	if c.MaxMeasurements < c.MinMeasurements {
		return c, fmt.Errorf("core: MaxMeasurements %d < MinMeasurements %d",
			c.MaxMeasurements, c.MinMeasurements)
	}
	if c.RSECheckEvery == 0 {
		c.RSECheckEvery = 25
	}
	if c.ThrottleCheckEvery == 0 {
		c.ThrottleCheckEvery = 5
	}
	if c.Cooldown == 0 {
		c.Cooldown = 10 * time.Second
	}
	if c.DelayIters == 0 {
		c.DelayIters = 200
	}
	if c.ConfirmIters == 0 {
		c.ConfirmIters = 400
	}
	if c.CaptureSafety == 0 {
		c.CaptureSafety = 1.5
	}
	if c.SigmaK == 0 {
		c.SigmaK = 2
	}
	if c.RelTolerance == 0 {
		c.RelTolerance = 0.02
	}
	if c.Outlier == (cluster.AdaptiveConfig{}) {
		c.Outlier = cluster.DefaultAdaptiveConfig()
	}
	if c.Seed == 0 {
		c.Seed = 0xbe9c481
	}
	if c.Parallelism < 0 {
		return c, fmt.Errorf("core: negative Parallelism %d", c.Parallelism)
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c, nil
}

// CacheFingerprint returns the canonical encoding of the configuration
// used to content-address campaign results (see internal/store). Two
// configurations with the same fingerprint produce bit-for-bit identical
// campaigns on the same device.
//
// Parallelism is excluded: results are identical at every parallelism
// level (see Runner.Run), so including it would needlessly split the key
// space. Every other field participates, including fields that still
// carry their zero value — the fingerprint encodes the configuration as
// written, not the default-filled effective configuration, so a caller
// that spells a default out explicitly addresses a different (but
// identically-valued) cache entry. That is deliberately conservative:
// a spurious recompute is always correct, a spurious hit never is.
func (c Config) CacheFingerprint() ([]byte, error) {
	c.Parallelism = 0
	return json.Marshal(c)
}

// AllPairs returns every ordered pair of distinct configured clocks, in
// deterministic (init-major) order.
func (c Config) AllPairs() []Pair {
	var out []Pair
	for _, init := range c.Frequencies {
		for _, target := range c.Frequencies {
			if init != target {
				out = append(out, Pair{InitMHz: init, TargetMHz: target})
			}
		}
	}
	return out
}
