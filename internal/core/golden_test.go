package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"
)

// goldenCampaignHash pins a small fixed-seed campaign bit for bit: the
// phase-1 characterisation and every accepted measurement. Simulator or
// runner optimisations must leave it unchanged; a different value means
// the methodology now observes a different device, not a faster one.
const goldenCampaignHash uint64 = 0x67027e4342167f69

// TestGoldenCampaign runs the reference three-clock campaign serially and
// hashes what phase 1 and phases 2-3 report.
func TestGoldenCampaign(t *testing.T) {
	dev := testDevice(t, pairModel{upNs: 10_000_000, downNs: 5_000_000}, nil)
	cfg := quickConfig(600, 900, 1200)
	cfg.Parallelism = 1
	r, err := NewRunner(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }

	freqs := make([]float64, 0, len(res.Phase1.Stats))
	for f := range res.Phase1.Stats {
		freqs = append(freqs, f)
	}
	sort.Float64s(freqs)
	for _, f := range freqs {
		s := res.Phase1.Stats[f]
		putF(s.FreqMHz)
		put(uint64(s.Iter.N))
		putF(s.Iter.Mean)
		putF(s.Iter.Std)
		if s.Normalish {
			put(1)
		} else {
			put(0)
		}
	}
	measured := 0
	for _, pr := range res.Pairs {
		putF(pr.Pair.InitMHz)
		putF(pr.Pair.TargetMHz)
		put(uint64(len(pr.Measurements)))
		for _, m := range pr.Measurements {
			putF(m.LatencyMs)
			put(uint64(m.TsDevNs))
			put(uint64(m.TeDevNs))
			put(uint64(m.SM))
			put(uint64(m.TransitionIndex))
			measured++
		}
	}
	if measured == 0 {
		t.Fatal("campaign accepted no measurements; the pin would cover nothing")
	}

	if got := h.Sum64(); got != goldenCampaignHash {
		t.Fatalf("golden campaign hash = %#x, want %#x (%d measurements)", got, goldenCampaignHash, measured)
	}
}
