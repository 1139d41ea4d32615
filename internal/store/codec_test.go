package store

import (
	"bytes"
	"math"
	"os"
	"testing"

	"golatest/internal/cluster"
	"golatest/internal/core"
	"golatest/internal/stats"
)

// adversarialResults is the fixture set the codec is pinned against:
// every structural edge the body layout can express — nil-vs-empty
// slices, absent optionals, nil pair elements, exotic strings, NaN
// payloads, infinities, negative zero and extreme magnitudes. Several
// of them (the float switches, the escapes) are edges of the retired
// JSON renderer, kept because testdata pins their encodings.
func adversarialResults() map[string]*core.Result {
	nan := math.NaN()
	oddNaN := math.Float64frombits(0x7ff8_dead_beef_0001) // payload bits ≠ canonical NaN
	inf := math.Inf(1)
	return map[string]*core.Result{
		"zero": {},
		"empty-slices": {
			Pairs: []*core.PairResult{}, // append-built: decodes nil
			Phase1: &core.Phase1Result{
				Stats:      map[float64]core.FreqStats{}, // decodes empty
				ValidPairs: []core.Pair{},                // stays empty
				Excluded:   nil,                          // stays nil
				Unstable:   []float64{},                  // stays empty
			},
		},
		"nil-pair-element": {
			DeviceName: "H100",
			Pairs: []*core.PairResult{
				nil,
				{Pair: core.Pair{InitMHz: 210, TargetMHz: 1980}},
			},
		},
		"strings": {
			DeviceName:   `<A100 & "friends">`,
			Architecture: "ctl:\x01\x02\t\n\r\b\f del:\x7f bad:\xff\xe4\xb8 sep:   uni:héllo→世界",
			Pairs: []*core.PairResult{{
				Skipped:    true,
				SkipReason: `power "throttling" <unsustainable> & hot`,
			}},
		},
		"float-switches": {
			Phase1: &core.Phase1Result{
				Stats: map[float64]core.FreqStats{
					1410: {FreqMHz: 1410, Iter: stats.MeanStd{N: 3, Mean: nan, Std: inf}, Normalish: true},
					210:  {FreqMHz: 210, Iter: stats.MeanStd{N: 1, Mean: -inf, Std: math.MaxFloat64}},
					825:  {FreqMHz: 825, Iter: stats.MeanStd{N: 2, Mean: math.SmallestNonzeroFloat64}},
				},
				// Magnitudes around 1e-6 and 1e21, and negative zero.
				Unstable: []float64{
					0, math.Copysign(0, -1), 1e-6, 9.9e-7, 1e-30,
					1e21, 5e20, -1e21, 1234567.875,
				},
			},
			Pairs: []*core.PairResult{{
				Pair:    core.Pair{InitMHz: 1e21, TargetMHz: 9.9e-7},
				Samples: []float64{nan, oddNaN, inf, math.Inf(-1), -0.0625},
				Summary: stats.Summarize(nil), // all-NaN summary, N=0
				Kept:    []float64{},
				// Outliers nil next to Kept's empty slice
				FinalRSE: nan,
			}},
		},
		"clusters": {
			CaptureHintNs: -9_223_372_036_854_775_808,
			Pairs: []*core.PairResult{
				{
					Pair:     core.Pair{InitMHz: 210, TargetMHz: 825},
					Samples:  []float64{1.5, 2.5, 3.5},
					Clusters: &cluster.Result{Labels: []int{0, 0, cluster.Noise}, NumClusters: 1, Eps: nan, MinPts: 4},
				},
				{
					Pair:     core.Pair{InitMHz: 825, TargetMHz: 210},
					Clusters: &cluster.Result{Labels: []int{}, Eps: 0.25},
				},
				{
					Clusters: &cluster.Result{}, // Labels nil
				},
			},
		},
		"measurements": {
			DeviceName:   "A100-SXM4[0]",
			Architecture: "sm_80",
			Pairs: []*core.PairResult{{
				Pair: core.Pair{InitMHz: 330, TargetMHz: 1410},
				Measurements: []core.Measurement{
					{
						Pair:      core.Pair{InitMHz: 330, TargetMHz: 1410},
						LatencyMs: 12.25, TsDevNs: 100, TeDevNs: 12_350_100,
						SM: 107, TransitionIndex: 9_999, InjectedMs: nan,
						SyncSpreadNs: -1,
					},
					{LatencyMs: oddNaN, InjectedMs: inf},
				},
				Samples:  []float64{12.25, 13},
				Injected: []float64{nan, inf},
				Attempts: 7, Failures: 2, DiscardedByThrottle: 3, ThrottleEvents: 1,
				Kept: []float64{12.25}, Outliers: []float64{13},
				Summary:  stats.Summarize([]float64{12.25}),
				FinalRSE: 0.03125,
			}},
		},
		"test-fixture":  testResult(),
		"codec-fixture": codecResult(),
	}
}

// TestCanonicalWriterRejectsNonFiniteFloats: plain float64 fields (pair
// frequencies, unstable clocks) cannot hold NaN or ±Inf. The encoder
// refuses such a result, and Put writes nothing for it.
func TestCanonicalWriterRejectsNonFiniteFloats(t *testing.T) {
	k := Key{Digest: "cafe", Profile: "p", Instance: 0}
	bad := map[string]*core.Result{
		"nan-pair": {Pairs: []*core.PairResult{{Pair: core.Pair{InitMHz: math.NaN()}}}},
		"inf-unstable": {Phase1: &core.Phase1Result{
			Unstable: []float64{math.Inf(1)},
		}},
	}
	for name, res := range bad {
		t.Run(name, func(t *testing.T) {
			if _, err := EncodeBlobV3(k, res); err == nil {
				t.Fatal("encoder accepted a non-finite plain float")
			}
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(k, res); err == nil {
				t.Fatal("Put accepted a non-finite plain float")
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				t.Errorf("Put of a refused result left %s behind", e.Name())
			}
			if s.Len() != 0 || s.Counters().Puts != 0 {
				t.Fatalf("refused Put was indexed: Len=%d counters=%+v", s.Len(), s.Counters())
			}
		})
	}
}

// TestV3RoundTrip: for every adversarial fixture, the blob decodes back
// to a result that re-encodes to the identical bytes, the encoder is
// deterministic, and RawBytes is the inflated body size.
func TestV3RoundTrip(t *testing.T) {
	k := Key{Digest: "cafe", Profile: "a100-sxm4", Instance: 2}
	for name, res := range adversarialResults() {
		t.Run(name, func(t *testing.T) {
			blob, err := EncodeBlobV3(k, res)
			if err != nil {
				t.Fatal(err)
			}
			vb, err := ValidateBlobBytes(blob, k.Digest)
			if err != nil {
				t.Fatalf("blob does not validate: %v", err)
			}
			if vb.Key() != k {
				t.Fatalf("envelope key = %+v, want %+v", vb.Key(), k)
			}
			body, err := inflateV3(blob)
			if err != nil {
				t.Fatal(err)
			}
			if vb.RawBytes() != int64(body.Len()) {
				t.Fatalf("RawBytes = %d, want the body size %d", vb.RawBytes(), body.Len())
			}
			putDecodeBuf(body)
			back, err := EncodeBlobV3(k, vb.Result())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, blob) {
				t.Fatal("round-tripped result re-encodes differently")
			}
			again, err := EncodeBlobV3(k, res)
			if err != nil || !bytes.Equal(again, blob) {
				t.Fatalf("EncodeBlobV3 is not deterministic (err=%v)", err)
			}
		})
	}
}

// TestV3NaNCanonicalization: NaN payload bits are not part of a
// result's identity, so the encoder must canonicalize them — otherwise
// two results equal up to NaN payload would produce different blobs and
// concurrent writers of one digest would not converge.
func TestV3NaNCanonicalization(t *testing.T) {
	k := Key{Digest: "cafe", Profile: "p", Instance: 0}
	build := func(bits uint64) *core.Result {
		v := math.Float64frombits(bits)
		return &core.Result{Pairs: []*core.PairResult{{
			Samples:  []float64{v, 1},
			FinalRSE: v,
		}}}
	}
	a, err := EncodeBlobV3(k, build(math.Float64bits(math.NaN())))
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeBlobV3(k, build(0x7ff8_0123_4567_89ab))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("v3 bytes depend on NaN payload bits")
	}
}
