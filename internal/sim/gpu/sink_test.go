package gpu

import (
	"math"
	"testing"

	"golatest/internal/sim/clock"
	"golatest/internal/stats"
)

// TestStreamStatsMatchesMaterialised pins the core equivalence of the
// streaming path: the same kernel on an identically seeded device must
// yield bit-identical overall statistics whether its iterations are
// materialised and flattened or streamed through a StreamStats sink.
func TestStreamStatsMatchesMaterialised(t *testing.T) {
	spec := KernelSpec{Iters: 400, CyclesPerIter: 90_000, Blocks: 3}

	matDev, _ := newTestDevice(t, testConfig())
	km, err := matDev.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	matDev.Synchronize()

	sinkDev, _ := newTestDevice(t, testConfig())
	sink := NewStreamStats(100)
	ks, err := sinkDev.LaunchWithSink(spec, sink)
	if err != nil {
		t.Fatal(err)
	}
	sinkDev.Synchronize()

	want := stats.Describe(km.DurationsMs())
	got := sink.MeanStd()
	if want != got {
		t.Fatalf("streamed stats %+v != materialised %+v", got, want)
	}
	if km.StartNs() != ks.StartNs() || km.EndNs() != ks.EndNs() {
		t.Fatal("sink kernel timing diverged from materialised kernel")
	}

	// Per-block tails must match the "last 100, at most trailing half"
	// window applied to the materialised trace.
	blocks := km.Samples()
	if sink.NumBlocks() != len(blocks) {
		t.Fatalf("sink blocks = %d, want %d", sink.NumBlocks(), len(blocks))
	}
	for b, block := range blocks {
		tailStart := len(block) - 100
		if tailStart < len(block)/2 {
			tailStart = len(block) / 2
		}
		var acc stats.Accumulator
		for _, it := range block[tailStart:] {
			acc.Add(float64(it.DurNs()) / 1e6)
		}
		if acc.MeanStd() != sink.BlockTail(b) {
			t.Fatalf("block %d tail diverged: %+v vs %+v", b, sink.BlockTail(b), acc.MeanStd())
		}
	}

	// Streamed skewness/kurtosis must agree with the two-pass slice
	// versions to floating-point accuracy.
	durs := km.DurationsMs()
	if g1, want := sink.Skewness(), stats.Skewness(durs); math.Abs(g1-want) > 1e-9*math.Abs(want)+1e-12 {
		t.Fatalf("skewness %v, want %v", g1, want)
	}
	if g2, want := sink.ExcessKurtosis(), stats.ExcessKurtosis(durs); math.Abs(g2-want) > 1e-9*math.Abs(want)+1e-12 {
		t.Fatalf("kurtosis %v, want %v", g2, want)
	}
}

// recordingTail is a TailStats that also keeps every sample it is
// handed, so a test can compare them against a materialised trace.
type recordingTail struct {
	*TailStats
	got  [][]IterSample // [block] samples from the block's tail start on
	from []int
}

func (r *recordingTail) BlockStart(block, iters int) int {
	from := r.TailStats.BlockStart(block, iters)
	for len(r.got) <= block {
		r.got = append(r.got, nil)
		r.from = append(r.from, 0)
	}
	r.got[block], r.from[block] = r.got[block][:0], from
	return from
}

func (r *recordingTail) Sample(block, iter int, s IterSample) {
	if want := r.from[block] + len(r.got[block]); iter != want {
		panic("tail sink handed iteration out of order")
	}
	r.got[block] = append(r.got[block], s)
	r.TailStats.Sample(block, iter, s)
}

// TestTailSinkMatchesMaterialised pins the skip path of the hot loop:
// a device whose kernels stream into a tail-only sink, which skips
// timestamping everything before each block's tail window, must see
// exactly the timestamps a materialised trace records for those
// iterations, and must leave the device in the identical state — same
// host clock, temperature, throttle reasons and energy — because the
// skipped iterations still draw their jitter and take their time.
func TestTailSinkMatchesMaterialised(t *testing.T) {
	cfg := testConfig()
	cfg.ClockOffsetNs = -31_415_926
	cfg.ClockDriftPPM = -4.25
	matDev, matClk := newTestDevice(t, cfg)
	tailDev, tailClk := newTestDevice(t, cfg)
	sink := &recordingTail{TailStats: NewTailStats(100)}

	specs := []KernelSpec{
		{Iters: 500, CyclesPerIter: 90_000, Blocks: 3},
		{Iters: 150, CyclesPerIter: 120_000},
		{Iters: 1, CyclesPerIter: 50_000, Blocks: 2},
		{Iters: 333, CyclesPerIter: 70_000, Blocks: 4},
	}
	for n, spec := range specs {
		km, err := matDev.Launch(spec)
		if err != nil {
			t.Fatal(err)
		}
		sink.Reset()
		kt, err := tailDev.LaunchWithSink(spec, sink)
		if err != nil {
			t.Fatal(err)
		}
		// Change clock mid-kernel on both devices.
		for _, clk := range []*clock.Clock{matClk, tailClk} {
			clk.Advance(3_000_000)
		}
		f := cfg.FreqsMHz[n%len(cfg.FreqsMHz)]
		if _, err := matDev.SetFrequency(f); err != nil {
			t.Fatal(err)
		}
		if _, err := tailDev.SetFrequency(f); err != nil {
			t.Fatal(err)
		}
		matDev.Synchronize()
		tailDev.Synchronize()

		if km.StartNs() != kt.StartNs() || km.EndNs() != kt.EndNs() {
			t.Fatalf("kernel %d: timing diverged: [%d,%d] vs [%d,%d]",
				n, km.StartNs(), km.EndNs(), kt.StartNs(), kt.EndNs())
		}
		blocks := km.Samples()
		if sink.NumBlocks() != len(blocks) {
			t.Fatalf("kernel %d: tail sink saw %d blocks, want %d", n, sink.NumBlocks(), len(blocks))
		}
		for b, block := range blocks {
			from := sink.from[b]
			if from != len(block)-min(100, len(block)-len(block)/2) {
				t.Fatalf("kernel %d block %d: tail starts at %d of %d", n, b, from, len(block))
			}
			want := block[from:]
			if len(sink.got[b]) != len(want) {
				t.Fatalf("kernel %d block %d: %d tail samples, want %d", n, b, len(sink.got[b]), len(want))
			}
			var acc stats.Accumulator
			for i, s := range want {
				if sink.got[b][i] != s {
					t.Fatalf("kernel %d block %d iter %d: %+v, want %+v", n, b, from+i, sink.got[b][i], s)
				}
				acc.Add(float64(s.DurNs()) / 1e6)
			}
			if got, want := sink.BlockTail(b), acc.MeanStd(); got.N != want.N ||
				math.Float64bits(got.Mean) != math.Float64bits(want.Mean) ||
				math.Float64bits(got.Std) != math.Float64bits(want.Std) {
				t.Fatalf("kernel %d block %d: tail stats %+v, want %+v", n, b, got, want)
			}
		}
	}

	matClk.Advance(70_000_000)
	tailClk.Advance(70_000_000)
	if a, b := matClk.Now(), tailClk.Now(); a != b {
		t.Fatalf("host clocks diverged: %d vs %d", a, b)
	}
	if a, b := matDev.Temperature(), tailDev.Temperature(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("temperature diverged: %v vs %v", a, b)
	}
	if a, b := matDev.ThrottleReasons(), tailDev.ThrottleReasons(); a != b {
		t.Fatalf("throttle reasons diverged: %v vs %v", a, b)
	}
	if a, b := matDev.EnergyJ(), tailDev.EnergyJ(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("energy diverged: %v vs %v", a, b)
	}
}

// TestSinkKernelSamplesPanics documents that a streamed kernel keeps no
// trace to return.
func TestSinkKernelSamplesPanics(t *testing.T) {
	dev, _ := newTestDevice(t, testConfig())
	k, err := dev.LaunchWithSink(KernelSpec{Iters: 10, CyclesPerIter: 50_000, Blocks: 1}, NewStreamStats(0))
	if err != nil {
		t.Fatal(err)
	}
	dev.Synchronize()
	defer func() {
		if recover() == nil {
			t.Fatal("Samples() on a streamed kernel did not panic")
		}
	}()
	_ = k.Samples()
}

// TestStreamStatsReset checks a sink can be reused across kernels.
func TestStreamStatsReset(t *testing.T) {
	dev, _ := newTestDevice(t, testConfig())
	sink := NewStreamStats(0)
	for round := 0; round < 3; round++ {
		sink.Reset()
		if _, err := dev.LaunchWithSink(KernelSpec{Iters: 50, CyclesPerIter: 50_000, Blocks: 2}, sink); err != nil {
			t.Fatal(err)
		}
		dev.Synchronize()
		if sink.N() != 100 {
			t.Fatalf("round %d: N = %d, want 100", round, sink.N())
		}
		if sink.NumBlocks() != 2 {
			t.Fatalf("round %d: blocks = %d", round, sink.NumBlocks())
		}
	}
}

// TestAppendDurationsMsReusesBuffer checks the pooled flatten path does
// not grow a sufficient buffer.
func TestAppendDurationsMsReusesBuffer(t *testing.T) {
	dev, _ := newTestDevice(t, testConfig())
	k, err := dev.Launch(KernelSpec{Iters: 64, CyclesPerIter: 50_000, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	dev.Synchronize()

	buf := make([]float64, 0, 256)
	out := k.AppendDurationsMs(buf)
	if len(out) != 128 {
		t.Fatalf("len = %d, want 128", len(out))
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("sufficient buffer was reallocated")
	}
	if diff := len(k.DurationsMs()) - len(out); diff != 0 {
		t.Fatalf("DurationsMs length differs by %d", diff)
	}
}
