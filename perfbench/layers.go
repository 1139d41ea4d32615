package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"golatest/internal/cluster"
	"golatest/internal/core"
	"golatest/internal/experiments"
	"golatest/internal/hwprofile"
	"golatest/internal/nvml"
	"golatest/internal/report"
	"golatest/internal/sim/clock"
	"golatest/internal/sim/gpu"
	"golatest/internal/stats"
	"golatest/internal/workload"
)

// probeExperiments calls the experiments functions the CLI calls, in
// the CLI's order and with its parallelism, timing each group. The
// artefacts it can render with public functions are compared with the
// CLI's files in cliOut, when given. With ownFleet the fleet.* metrics
// come from this suite's sweep. It returns the wall time of the whole
// sequence.
func probeExperiments(cfg config, cliOut string, res *result, ownFleet bool) (time.Duration, error) {
	n := runtime.NumCPU()
	s := experiments.NewSuite(experiments.Options{
		Scale: experiments.ScaleQuick, Seed: cfg.seed, Parallelism: n, FleetReplicas: n,
	})
	arts := map[string][]byte{}
	render := func(name string, fill func(io.Writer) error) error {
		var b bytes.Buffer
		if err := fill(&b); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		arts[name] = b.Bytes()
		return nil
	}
	var table2, scatter, fleetT, sweep, census, ablations time.Duration
	since := func(d *time.Duration, t0 time.Time) { *d += time.Since(t0) }
	start := time.Now()

	if err := render("table1.md", func(w io.Writer) error {
		return experiments.RenderTable1(w, experiments.Table1())
	}); err != nil {
		return 0, err
	}
	t0 := time.Now()
	rows, err := s.Table2()
	since(&table2, t0)
	if err != nil {
		return 0, err
	}
	if err := render("table2.md", func(w io.Writer) error { return experiments.RenderTable2(w, rows) }); err != nil {
		return 0, err
	}
	for _, f := range []struct {
		name  string
		trace func() ([]experiments.TracePoint, error)
	}{{"fig1_cpu_trace.txt", experiments.Fig1CPUTrace}, {"fig2_acc_trace.txt", experiments.Fig2GPUTrace}} {
		tr, err := f.trace()
		if err != nil {
			return 0, err
		}
		arts[f.name] = []byte(experiments.RenderTrace(tr))
	}
	for _, h := range []struct {
		key string
		agg experiments.Agg
	}{{"gh200", experiments.AggMin}, {"gh200", experiments.AggMax}, {"a100", experiments.AggMax}, {"rtx6000", experiments.AggMax}} {
		hm, err := s.Fig3Heatmap(h.key, h.agg)
		if err != nil {
			return 0, err
		}
		base := fmt.Sprintf("fig3_%s_%s", h.key, h.agg)
		if err := render(base+".txt", hm.Render); err != nil {
			return 0, err
		}
		if err := render(base+".csv", hm.WriteCSV); err != nil {
			return 0, err
		}
	}
	if _, err := s.Fig4Violins(); err != nil {
		return 0, err
	}
	t0 = time.Now()
	for _, f := range []struct {
		base string
		pair core.Pair
	}{{"fig5", core.Pair{InitMHz: 1770, TargetMHz: 1260}}, {"fig6", core.Pair{InitMHz: 705, TargetMHz: 1095}}} {
		sc, err := s.FigScatter("gh200", f.pair, 300)
		if err != nil {
			return 0, err
		}
		if err := render(f.base+"_scatter.csv", func(w io.Writer) error {
			return report.WriteScatterCSV(w, sc.SamplesMs, sc.OutlierFlag)
		}); err != nil {
			return 0, err
		}
	}
	since(&scatter, t0)
	t0 = time.Now()
	for i, r := range []struct {
		base string
		agg  experiments.Agg
	}{{"fig7", experiments.AggMin}, {"fig8", experiments.AggMax}} {
		t1 := time.Now()
		hm, err := s.RangeHeatmap(r.agg)
		if i == 0 {
			since(&sweep, t1) // the first range figure runs the A100 instance sweep
		}
		if err != nil {
			return 0, err
		}
		if err := render(r.base+"_ranges.txt", hm.Render); err != nil {
			return 0, err
		}
		if err := render(r.base+"_ranges.csv", hm.WriteCSV); err != nil {
			return 0, err
		}
	}
	boxes, err := s.Fig9Boxes(3)
	if err != nil {
		return 0, err
	}
	if err := render("fig9_boxplots.txt", func(w io.Writer) error { return report.RenderBoxes(w, boxes) }); err != nil {
		return 0, err
	}
	since(&fleetT, t0)
	t0 = time.Now()
	if _, err := s.ClusterCensus(); err != nil {
		return 0, err
	}
	since(&census, t0)
	if _, err := experiments.CIDegeneration([]int{50, 200, 800, 3200, 12800}); err != nil {
		return 0, err
	}
	if _, err := s.CPUvsGPU(); err != nil {
		return 0, err
	}
	t0 = time.Now()
	if err := runAblations(); err != nil {
		return 0, err
	}
	since(&ablations, t0)
	total := time.Since(start)

	res.set("experiments.table2_s", table2.Seconds(), "s", 1)
	res.set("experiments.scatter_s", scatter.Seconds(), "s", 2)
	res.set("experiments.fleet_s", fleetT.Seconds(), "s", 1)
	res.set("experiments.census_s", census.Seconds(), "s", 1)
	res.set("experiments.ablations_s", ablations.Seconds(), "s", 4)
	if ownFleet {
		// Every range and box figure sweeps the A100 instances; the first
		// sweep computes them, the later ones reuse the suite's cache.
		reps := s.SweepReports()
		if len(reps) == 0 {
			return 0, fmt.Errorf("experiments: no fleet sweep ran")
		}
		storeNs, shardNs := shardTimes(reps[0])
		for name, m := range fleetLayers(1, sweep.Seconds(), storeNs, shardNs, countersOf(reps[0])) {
			res.set(name, m.Value, m.Unit, m.N)
		}
	}
	if cliOut != "" {
		for name, want := range arts {
			got, err := os.ReadFile(filepath.Join(cliOut, name))
			if err == nil && !bytes.Equal(got, want) {
				err = fmt.Errorf("in-process %s differs from the CLI's", name)
			}
			res.op(err)
		}
	}
	return total, nil
}

// runAblations runs the four ablation studies with the CLI's arguments.
func runAblations() error {
	if _, err := experiments.RampAblation([]int{0, 2, 8, 32}, 12); err != nil {
		return err
	}
	if _, err := experiments.DetectionAblation(12); err != nil {
		return err
	}
	if _, err := experiments.SyncAblation([]float64{0, 100, 400, 1600}, 10); err != nil {
		return err
	}
	_, err := experiments.CoreCountStudy([]int{1, 4, 16, 64}, 10)
	return err
}

// simBudget is how long each simulator probe mode runs.
const simBudget = 500 * time.Millisecond

// probeSim launches the methodology's kernel shape (one iteration of
// 150 µs at the slowest evaluated A100 clock, 300 iterations, 8 blocks)
// straight on a simulated device, streaming into a sink and
// materialising the full per-iteration trace.
func probeSim(res *result) error {
	p := hwprofile.A100()
	dev, err := p.NewDevice(clock.New())
	if err != nil {
		return err
	}
	spec := gpu.KernelSpec{Iters: 300, CyclesPerIter: workload.CyclesForIterDuration(150_000, p.EvalFreqsMHz[0]), Blocks: 8}
	iters := float64(spec.Iters * spec.Blocks)

	sink := gpu.NewStreamStats(0)
	v0, t0, kernels := dev.Clock().Now(), time.Now(), 0
	for kernels < 10 || time.Since(t0) < simBudget {
		sink.Reset()
		if _, err := dev.LaunchWithSink(spec, sink); err != nil {
			return err
		}
		dev.Synchronize()
		kernels++
	}
	wall := time.Since(t0)
	res.set("sim.ns_per_iter_sink", float64(wall.Nanoseconds())/(float64(kernels)*iters), "ns", kernels)
	res.set("sim.virtual_s_per_host_s", float64(dev.Clock().Now()-v0)/float64(wall.Nanoseconds()), "s/s", kernels)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0, kernels = time.Now(), 0
	for kernels < 10 || time.Since(t0) < simBudget {
		k, err := dev.Launch(spec)
		if err != nil {
			return err
		}
		dev.Synchronize()
		if len(k.Samples()) != spec.Blocks {
			return fmt.Errorf("sim: kernel materialised %d blocks, want %d", len(k.Samples()), spec.Blocks)
		}
		kernels++
	}
	wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	res.set("sim.ns_per_iter_trace", float64(wall.Nanoseconds())/(float64(kernels)*iters), "ns", kernels)
	res.set("sim.bytes_per_iter_trace", float64(m1.TotalAlloc-m0.TotalAlloc)/(float64(kernels)*iters), "B", kernels)
	return nil
}

// corePairs is how many census pairs per GPU the core probe re-drives.
const corePairs = 3

// censusHints mirror the capture-window hints internal/experiments
// gives each architecture.
var censusHints = map[string]int64{"gh200": 550_000_000, "a100": 120_000_000, "rtx6000": 420_000_000}

// probeCore re-drives the first census campaigns of every GPU through
// core's public phases (Phase1, then MeasurePair per pair), and times
// the outlier filter and the summary on each pair's samples. The
// configuration mirrors the quick-scale census of internal/experiments.
func probeCore(cfg config, res *result) error {
	var phase1, measure, filter, summarize, absErr []float64
	var attempts, accepted, clusters, kept, samples, pairs int
	for _, p := range hwprofile.All() {
		dev, err := p.NewDevice(clock.New())
		if err != nil {
			return err
		}
		lib, err := nvml.New(dev)
		if err != nil {
			return err
		}
		h, err := lib.DeviceHandleByIndex(0)
		if err != nil {
			return err
		}
		r, err := core.NewRunner(h, core.Config{
			Frequencies: p.EvalFreqsMHz, MaxLatencyHintNs: censusHints[p.Key],
			Seed:   cfg.seed + 0x5eed + uint64(p.Instance),
			Blocks: 3, MinMeasurements: 120, MaxMeasurements: 120, RSECheckEvery: 10,
		})
		if err != nil {
			return err
		}
		t0 := time.Now()
		p1, err := r.Phase1()
		phase1 = append(phase1, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		sample := spread(p1.ValidPairs, 12)
		for _, pair := range sample[:min(corePairs, len(sample))] {
			t0 = time.Now()
			pr, err := r.MeasurePair(pair, p1)
			measure = append(measure, time.Since(t0).Seconds())
			if err != nil {
				return err
			}
			pairs++
			attempts += pr.Attempts
			accepted += len(pr.Measurements)
			for i := range pr.Samples {
				absErr = append(absErr, math.Abs(pr.Samples[i]-pr.Injected[i])*1000)
			}
			t0 = time.Now()
			k, _, cl := cluster.FilterOutliers(pr.Samples, cluster.DefaultAdaptiveConfig())
			filter = append(filter, ms(time.Since(t0)))
			clusters += cl.NumClusters
			kept += len(k)
			samples += len(pr.Samples)
			// One summary takes microseconds; time a batch of them.
			const reps = 100
			t0 = time.Now()
			for i := 0; i < reps; i++ {
				stats.Summarize(k)
			}
			summarize = append(summarize, float64(time.Since(t0).Nanoseconds())/1e3/reps)
		}
	}
	res.set("core.phase1_s", median(phase1), "s", len(phase1))
	res.set("core.measure_pair_s", median(measure), "s", len(measure))
	res.set("core.attempts", float64(attempts), "count", pairs)
	res.set("core.accept_ratio", float64(accepted)/float64(max(attempts, 1)), "ratio", attempts)
	res.set("core.abs_err_us", median(absErr), "us", len(absErr))
	res.set("cluster.filter_ms", median(filter), "ms", len(filter))
	res.set("cluster.clusters_per_pair", float64(clusters)/float64(max(pairs, 1)), "count", pairs)
	res.set("cluster.kept_share", float64(kept)/float64(max(samples, 1)), "ratio", samples)
	res.set("stats.summarize_us", median(summarize), "us", len(summarize))
	return nil
}

// spread picks an evenly strided subset of at most limit pairs, the
// census's pair sample.
func spread(valid []core.Pair, limit int) []core.Pair {
	if len(valid) <= limit {
		return valid
	}
	stride := len(valid) / limit
	out := make([]core.Pair, 0, limit)
	for i := 0; i < len(valid) && len(out) < limit; i += stride {
		out = append(out, valid[i])
	}
	return out
}
