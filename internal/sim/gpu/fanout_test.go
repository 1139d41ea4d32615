package gpu

import (
	"math"
	"runtime"
	"testing"

	"golatest/internal/stats"
)

// TestMaterializeIdenticalAcrossGOMAXPROCS pins the block fan-out's
// determinism contract: the same device and seed must produce the same
// simulation bit for bit whether a kernel's blocks run one after another
// (GOMAXPROCS=1) or on several goroutines (GOMAXPROCS=4). The scenario
// covers 1-, 3-, 4-, 8- and 64-block kernels, materialised and streamed
// into both sinks, with wake windows, ramped mid-kernel clock changes, a
// latched throttle clamp, and a device clock displaced by offset and
// drift.
func TestMaterializeIdenticalAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	serial := fanoutScenario(t)
	runtime.GOMAXPROCS(4)
	concurrent := fanoutScenario(t)

	if len(serial) != len(concurrent) {
		t.Fatalf("record lengths differ: %d serial vs %d concurrent", len(serial), len(concurrent))
	}
	for i := range serial {
		if serial[i] != concurrent[i] {
			t.Fatalf("record word %d differs: %#x serial vs %#x concurrent", i, serial[i], concurrent[i])
		}
	}
}

// fanoutScenario runs the determinism scenario on a fresh device and
// returns everything it observed as raw 64-bit words.
func fanoutScenario(t *testing.T) []uint64 {
	t.Helper()
	cfg := testConfig()
	cfg.SMCount = 64
	cfg.ClockOffsetNs = -27_182_818
	cfg.ClockDriftPPM = 7.75
	cfg.RampSteps = 3
	// A fast thermal model that latches its throttle within a kernel or
	// two at the upper clocks and releases it while idle.
	cfg.ThermalTauS = 0.02
	cfg.SteadyTempAtMaxC = 80
	cfg.ThermalLimitC = 60
	cfg.ThrottleClampMHz = 900
	d, clk := newTestDevice(t, cfg)

	var rec []uint64
	word := func(v int64) { rec = append(rec, uint64(v)) }
	float := func(v float64) { rec = append(rec, math.Float64bits(v)) }
	meanStd := func(m stats.MeanStd) { word(int64(m.N)); float(m.Mean); float(m.Std) }

	tail := NewTailStats(100)
	stream := NewStreamStats(100)
	clamped := false
	n := 0
	for _, blocks := range []int{1, 3, 4, 8, 64} {
		spec := KernelSpec{Iters: 400, CyclesPerIter: 90_000, Blocks: blocks}
		if blocks > 1 && blocks*spec.Iters < minFanoutIters {
			t.Fatalf("%d-block kernel is below the fan-out cut-off", blocks)
		}
		for _, mode := range []string{"launch", "tail", "stream"} {
			n++
			if n%4 == 0 {
				// An idle gap past the timeout: the next kernel wakes.
				clk.Advance(cfg.IdleTimeoutNs + 20_000_000)
			}
			var k *Kernel
			var err error
			switch mode {
			case "launch":
				k, err = d.Launch(spec)
			case "tail":
				tail.Reset()
				k, err = d.LaunchWithSink(spec, tail)
			case "stream":
				stream.Reset()
				k, err = d.LaunchWithSink(spec, stream)
			}
			if err != nil {
				t.Fatal(err)
			}
			// A ramped clock change lands mid-kernel.
			clk.Advance(5_000_000)
			target := 1500.0
			if n%2 == 0 {
				target = 600
			}
			if _, err := d.SetFrequency(target); err != nil {
				t.Fatal(err)
			}
			clamped = clamped || d.clampMHz > 0
			d.Synchronize()

			word(k.StartNs())
			word(k.EndNs())
			word(clk.Now())
			switch mode {
			case "launch":
				for _, block := range k.Samples() {
					word(int64(len(block)))
					for _, s := range block {
						word(s.StartNs)
						word(s.EndNs)
					}
				}
			case "tail":
				word(int64(tail.NumBlocks()))
				for b := range tail.NumBlocks() {
					meanStd(tail.BlockTail(b))
				}
			case "stream":
				word(int64(stream.N()))
				meanStd(stream.MeanStd())
				float(stream.Skewness())
				float(stream.ExcessKurtosis())
				word(int64(stream.NumBlocks()))
				for b := range stream.NumBlocks() {
					meanStd(stream.BlockTail(b))
				}
			}
			float(d.Temperature())
			word(int64(d.ThrottleReasons()))
			float(d.EnergyJ())
		}
	}
	for _, inj := range d.Injections() {
		word(inj.RequestNs)
		word(inj.ApplyNs)
		word(inj.CompleteNs)
		float(inj.InitMHz)
		float(inj.TargetMHz)
	}
	if !clamped {
		t.Fatal("no kernel ran under the throttle clamp")
	}
	return rec
}
