package gpu

import (
	"testing"

	"golatest/internal/sim/clock"
)

// BenchmarkKernelMaterialization measures the simulator's hot path: the
// per-iteration timeline integration across a mid-kernel clock change.
func BenchmarkKernelMaterialization(b *testing.B) {
	benchKernel(b, 4, nil)
}

// BenchmarkKernelMaterializationTailSink runs the same kernel into the
// warm-up check's tail-only sink, which skips timestamping every
// iteration before each block's last 100.
func BenchmarkKernelMaterializationTailSink(b *testing.B) {
	benchKernel(b, 4, NewTailStats(100))
}

// BenchmarkKernelMaterialization64Blocks materialises the same kernel on
// a 64-SM device, one block per SM: the shape of the core-count
// ablation's widest device, whose blocks run on every available core.
func BenchmarkKernelMaterialization64Blocks(b *testing.B) {
	benchKernel(b, 64, nil)
}

// benchKernel launches a 2000-iteration kernel, one block per SM on a
// device with sms SMs, with a clock change 5 ms in, materialised when
// tail is nil and streamed into tail otherwise.
func benchKernel(b *testing.B, sms int, tail *TailStats) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clk := clock.New()
		d, err := New(Config{
			Name:     "bench-gpu",
			SMCount:  sms,
			FreqsMHz: []float64{600, 1200},
			Latency:  fixedModel{bus: 50_000, dur: 10_000_000},
			Seed:     uint64(i),
		}, clk)
		if err != nil {
			b.Fatal(err)
		}
		spec := KernelSpec{Iters: 2000, CyclesPerIter: 150_000}
		var k *Kernel
		if tail == nil {
			k, err = d.Launch(spec)
		} else {
			tail.Reset()
			k, err = d.LaunchWithSink(spec, tail)
		}
		if err != nil {
			b.Fatal(err)
		}
		clk.Advance(5_000_000)
		if _, err := d.SetFrequency(600); err != nil {
			b.Fatal(err)
		}
		d.Synchronize()
		if !k.Done() {
			b.Fatal("kernel not materialised")
		}
	}
}

// BenchmarkTimelineLookups measures randomish-access frequency queries
// against a long timeline.
func BenchmarkTimelineLookups(b *testing.B) {
	tl := newTimeline(0, 1000)
	for t := int64(1); t <= 1000; t++ {
		tl.add(t*1_000_000, 500+float64(t%100)*10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.freqAt(int64(i%1000) * 997_000)
	}
}

// BenchmarkDeviceTimeAt measures the timestamp conversion used for every
// recorded iteration boundary.
func BenchmarkDeviceTimeAt(b *testing.B) {
	d, err := New(Config{
		Name:          "bench-gpu",
		SMCount:       1,
		FreqsMHz:      []float64{1000},
		ClockOffsetNs: 123_456_789,
		ClockDriftPPM: 3,
		Latency:       fixedModel{},
		Seed:          1,
	}, clock.New())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.DeviceTimeAt(int64(i) * 1013)
	}
}
