package gpu

import (
	"testing"

	"golatest/internal/sim/clock"
)

// TestWalkerMatchesIntegrate is the walker's bit-identity property: over
// generated timelines — ramps of 0 to 32 intermediate steps, a wake
// window, a thermal or power clamp, and a clock change issued while the
// kernel is queued — every iteration's walker duration equals integrate
// run afresh from the same start time, and runSM's block equals a
// reference loop built on integrate alone. The cases are drawn from a
// fixed seed, so a failure replays exactly.
func TestWalkerMatchesIntegrate(t *testing.T) {
	gen := clock.NewRand(0x77616c6b, 0x6572) // "walker"
	freqs := []float64{300, 600, 900, 1200, 1500}
	var iters, crossings, wakeCrossings, floored int
	for c := range 165 {
		steps := c % 33
		cfg := Config{
			Name:            "walker-gpu",
			SMCount:         2,
			FreqsMHz:        freqs,
			RampSteps:       steps,
			WakeDelayNs:     int64(gen.Uniform(1e4, 2e6)),
			IterJitterSigma: gen.Uniform(0.001, 0.3),
			Latency:         fixedModel{bus: int64(gen.Uniform(1e3, 1e5)), dur: int64(gen.Uniform(5e4, 3e6))},
			Seed:            uint64(c) + 1,
		}
		if c%3 == 2 {
			cfg.PowerCapMHz = 900
		}
		clk := clock.New()
		d, err := New(cfg, clk)
		if err != nil {
			t.Fatal(err)
		}
		// Clock history before the kernel, so the walk starts mid-timeline.
		for range gen.IntN(3) {
			clk.Advance(int64(gen.Uniform(0, 2e6)))
			if _, err := d.SetFrequency(freqs[gen.IntN(len(freqs))]); err != nil {
				t.Fatal(err)
			}
		}
		switch c % 3 {
		case 1:
			d.reasons |= ThrottleThermal
			d.refreshClamp()
		case 2:
			d.reasons |= ThrottlePower
			d.refreshClamp()
		}
		cycles := gen.Uniform(2e3, 4e5)
		if c%11 == 0 {
			cycles = gen.Uniform(0.1, 0.9) // sub-nanosecond: the < 1 floor
		}
		spec := KernelSpec{Iters: 1500, CyclesPerIter: cycles, Blocks: 1}
		k, err := d.Launch(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Clock changes land while the kernel is queued, inside its run.
		for range 1 + gen.IntN(2) {
			clk.Advance(int64(gen.Uniform(0, 3e6)))
			if _, err := d.SetFrequency(freqs[gen.IntN(len(freqs))]); err != nil {
				t.Fatal(err)
			}
		}
		start := k.enqueuedNs
		wakeEnd := int64(0)
		if c%4 != 3 {
			wakeEnd = start + d.cfg.WakeDelayNs
		}
		speed := gen.Uniform(0.9, 1.1)

		s1, s2 := uint64(c), uint64(0x6a)
		r := clock.NewRand(s1, s2)
		w := d.newWalker(start, wakeEnd, speed)
		ts := start
		for i := range spec.Iters {
			n := spec.CyclesPerIter * jitter(r, d.cfg.IterJitterSigma)
			got := w.iterNs(ts, n)
			cur := d.tl.cursor()
			if want := d.integrate(ts, n, speed, wakeEnd, &cur); got != want {
				t.Fatalf("case %d (ramp %d, clamp %v, wake end %d), iteration %d at t=%d, %v cycles: walker %d ns, integrate %d ns",
					c, steps, d.clampMHz, wakeEnd, i, ts, n, got, want)
			}
			_, segEnd := cur.freqAt(ts)
			switch {
			case ts < wakeEnd && ts+got > wakeEnd:
				wakeCrossings++
			case ts+got > segEnd:
				crossings++
			}
			if got == 1 {
				floored++
			}
			ts += got
			iters++
		}

		// The whole block, through runSM, against the same loop on
		// integrate alone.
		out := make([]IterSample, spec.Iters/2)
		end := d.runSM(k, 0, start, wakeEnd, clock.NewRand(s1, s2), out)
		r = clock.NewRand(s1, s2)
		ts = start
		from := spec.Iters - len(out)
		for i := range spec.Iters {
			cur := d.tl.cursor()
			ts0 := ts
			ts += d.integrate(ts, spec.CyclesPerIter*jitter(r, d.cfg.IterJitterSigma), d.smSpeed[0], wakeEnd, &cur)
			if i >= from {
				want := IterSample{StartNs: d.DeviceTimeAt(ts0), EndNs: d.DeviceTimeAt(ts)}
				if out[i-from] != want {
					t.Fatalf("case %d: runSM iteration %d = %+v, integrate loop %+v", c, i, out[i-from], want)
				}
			}
		}
		if end != ts {
			t.Fatalf("case %d: runSM ends at %d, integrate loop at %d", c, end, ts)
		}
	}
	if crossings == 0 || wakeCrossings == 0 || floored == 0 {
		t.Fatalf("paths not reached: %d segment crossings, %d wake-end crossings, %d floored iterations",
			crossings, wakeCrossings, floored)
	}
	t.Logf("%d iterations: %d segment crossings, %d wake-end crossings, %d floored",
		iters, crossings, wakeCrossings, floored)
}
