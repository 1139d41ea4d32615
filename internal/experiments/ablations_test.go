package experiments

import (
	"math"
	"reflect"
	"runtime"
	"testing"
)

func TestRampAblation(t *testing.T) {
	rows, err := RampAblation([]int{0, 4, 16}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The step model must measure with small positive error and few
	// discards.
	step := rows[0]
	if step.MeanErrMs < 0 || step.MeanErrMs > 1 {
		t.Errorf("step-model mean error = %v ms", step.MeanErrMs)
	}
	if step.FailShare > 0.2 {
		t.Errorf("step-model fail share = %v", step.FailShare)
	}
	// Gradual ramps may detect during adaptation: the error envelope
	// widens downward (earlier detections) and/or discards appear.
	grad := rows[2]
	if grad.MeanErrMs >= step.MeanErrMs && grad.FailShare <= step.FailShare {
		t.Errorf("16-step ramp indistinguishable from step model: %+v vs %+v", grad, step)
	}
}

func TestDetectionAblation(t *testing.T) {
	rows, err := DetectionAblation(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	sigma, ci := rows[0], rows[1]
	if sigma.Mode != "2-sigma" || ci.Mode != "ci" {
		t.Fatalf("modes: %+v", rows)
	}
	// §V-A: the population band accepts nearly every run; the CI band
	// starves (few or no acceptances, and when it does accept, only after
	// scanning far past the transition).
	if sigma.AcceptedShare < 0.8 {
		t.Errorf("2σ accepted share = %v, want ≈1", sigma.AcceptedShare)
	}
	if ci.AcceptedShare > sigma.AcceptedShare/2 {
		t.Errorf("CI accepted share = %v not clearly degraded vs %v",
			ci.AcceptedShare, sigma.AcceptedShare)
	}
	if !math.IsNaN(ci.MeanErrMs) && ci.MeanErrMs < sigma.MeanErrMs {
		t.Errorf("CI detections not delayed: %v vs %v", ci.MeanErrMs, sigma.MeanErrMs)
	}
}

func TestSyncAblation(t *testing.T) {
	rows, err := SyncAblation([]float64{0, 200, 800}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The PTP estimator bias is +asym/2 toward the device, which shifts
	// t_s later on the device timeline and therefore *shrinks* measured
	// latencies: bias decreases monotonically with asymmetry.
	if !(rows[0].MeanBiasMs > rows[1].MeanBiasMs && rows[1].MeanBiasMs > rows[2].MeanBiasMs) {
		t.Fatalf("bias not monotone in asymmetry: %+v", rows)
	}
	// 800 µs of one-sided delay ⇒ ≈0.4 ms earlier t_s estimate.
	shift := rows[0].MeanBiasMs - rows[2].MeanBiasMs
	if shift < 0.25 || shift > 0.6 {
		t.Fatalf("800 µs asymmetry shifted bias by %v ms, want ≈0.4", shift)
	}
}

func TestCoreCountStudy(t *testing.T) {
	rows, err := CoreCountStudy([]int{1, 32}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	small, wide := rows[0], rows[1]
	// The phase-1 population grows with core count.
	if wide.Phase1N <= small.Phase1N {
		t.Fatalf("population did not grow: %d vs %d", small.Phase1N, wide.Phase1N)
	}
	// The 2σ band is width-independent...
	if small.SigmaAcceptedShare < 0.8 || wide.SigmaAcceptedShare < 0.8 {
		t.Fatalf("2σ shares degraded: %+v", rows)
	}
	// ...while the CI band sits below the 1 µs timer quantum at every
	// width (the paper's footnote 1, in its strongest form).
	if small.CIAcceptedShare > 0.3 || wide.CIAcceptedShare > 0.3 {
		t.Fatalf("CI band unexpectedly viable: %+v", rows)
	}
}

// TestCoreCountStudyIdenticalAcrossGOMAXPROCS runs the core-count
// ablation's 16-SM campaign, whose kernels fan their blocks out across
// cores, with one core and with four: the rows must be identical.
func TestCoreCountStudyIdenticalAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	serial, err := CoreCountStudy([]int{16}, 4)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	concurrent, err := CoreCountStudy([]int{16}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, concurrent) {
		t.Fatalf("rows differ:\nGOMAXPROCS=1: %+v\nGOMAXPROCS=4: %+v", serial, concurrent)
	}
}
