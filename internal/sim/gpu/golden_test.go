package gpu

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// goldenTraceHash pins the simulator's output bit for bit. Hot-loop
// optimisations must leave every random draw, integration step and
// timestamp quantisation exactly where it was; if this constant has to
// change, the change altered the simulation, not just its speed.
const goldenTraceHash uint64 = 0x3abc96b5ef53d00b

// TestGoldenTrace hashes materialised traces that exercise every input
// of the per-iteration timestamp path: a wake window (first kernel, and
// again after an idle gap), a mid-kernel clock change with a ramped
// transition, and a device clock displaced by both offset and drift. The
// device state the kernels leave behind is hashed too.
func TestGoldenTrace(t *testing.T) {
	cfg := testConfig()
	cfg.ClockOffsetNs = 987_654_321
	cfg.ClockDriftPPM = 12.5
	cfg.RampSteps = 3
	d, clk := newTestDevice(t, cfg)

	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	hashKernel := func(k *Kernel) {
		put(uint64(k.StartNs()))
		put(uint64(k.EndNs()))
		for _, block := range k.Samples() {
			put(uint64(len(block)))
			for _, s := range block {
				put(uint64(s.StartNs))
				put(uint64(s.EndNs))
			}
		}
	}

	// Kernel 1: wakes the device, then the clock drops mid-kernel.
	k1, err := d.Launch(KernelSpec{Iters: 600, CyclesPerIter: 120_000})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(40_000_000)
	if _, err := d.SetFrequency(600); err != nil {
		t.Fatal(err)
	}
	d.Synchronize()
	hashKernel(k1)

	// Kernel 2: after an idle gap longer than the idle timeout, so the
	// wake window applies again, with a clock rise mid-kernel.
	clk.Advance(200_000_000)
	k2, err := d.Launch(KernelSpec{Iters: 400, CyclesPerIter: 90_000, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(20_000_000)
	if _, err := d.SetFrequency(1500); err != nil {
		t.Fatal(err)
	}
	d.Synchronize()
	hashKernel(k2)

	put(uint64(clk.Now()))
	put(math.Float64bits(d.Temperature()))
	put(uint64(d.ThrottleReasons()))
	put(math.Float64bits(d.EnergyJ()))

	if got := h.Sum64(); got != goldenTraceHash {
		t.Fatalf("golden trace hash = %#x, want %#x", got, goldenTraceHash)
	}
}
