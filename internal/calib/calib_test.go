package calib

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestPaperTargetsValid(t *testing.T) {
	if err := PaperTargets().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTargetsValidate(t *testing.T) {
	bad := []Targets{
		{WCHDStart: 0, WCHDEnd: 0.03, FHW: 0.6, Months: 24},
		{WCHDStart: 0.6, WCHDEnd: 0.7, FHW: 0.6, Months: 24},
		{WCHDStart: 0.03, WCHDEnd: 0.02, FHW: 0.6, Months: 24},
		{WCHDStart: 0.02, WCHDEnd: 0.03, FHW: 0, Months: 24},
		{WCHDStart: 0.02, WCHDEnd: 0.03, FHW: 1.2, Months: 24},
		{WCHDStart: 0.02, WCHDEnd: 0.03, FHW: 0.6, Months: 0},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: invalid targets accepted: %+v", i, b)
		}
	}
}

func TestNewPopulationErrors(t *testing.T) {
	if _, err := NewPopulation(0, 0, 100, 8); err == nil {
		t.Error("lambda=0 accepted")
	}
	if _, err := NewPopulation(1, 0, 4, 8); err == nil {
		t.Error("tiny grid accepted")
	}
	if _, err := NewPopulation(1, 0, 100, 0); err == nil {
		t.Error("zero span accepted")
	}
}

func TestPopulationWeightsNormalised(t *testing.T) {
	pop, err := NewPopulation(17, 5.7, 1001, 8)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, w := range pop.Weight {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestMuForFHW(t *testing.T) {
	// FHW = Phi(mu/sqrt(1+lambda^2)) must hold after solving for mu.
	for _, fhw := range []float64{0.5, 0.627, 0.7} {
		mu := MuForFHW(17, fhw)
		back := stats.Phi(mu / math.Sqrt(1+17.0*17.0))
		if math.Abs(back-fhw) > 1e-10 {
			t.Errorf("FHW %v: round trip %v", fhw, back)
		}
	}
	// Unbiased population has mu = 0.
	if mu := MuForFHW(10, 0.5); math.Abs(mu) > 1e-10 {
		t.Errorf("mu for FHW=0.5 is %v, want 0", mu)
	}
}

func TestSolveMismatchHitsTargets(t *testing.T) {
	targets := PaperTargets()
	lambda, mu, err := SolveMismatch(targets)
	if err != nil {
		t.Fatal(err)
	}
	if lambda < 5 || lambda > 100 {
		t.Fatalf("implausible lambda %v", lambda)
	}
	pop, err := NewPopulation(lambda, mu, gridN, gridSpan)
	if err != nil {
		t.Fatal(err)
	}
	pred := pop.Predict(1000, 16)
	if math.Abs(pred.FHW-targets.FHW) > 0.001 {
		t.Errorf("FHW = %v, want %v", pred.FHW, targets.FHW)
	}
	if math.Abs(pred.WCHD-targets.WCHDStart) > 0.0002 {
		t.Errorf("WCHD = %v, want %v", pred.WCHD, targets.WCHDStart)
	}
}

// TestEmergentTableIRows is the central consistency check of the whole
// reproduction: fitting only (WCHD, FHW), every *other* start-of-test row
// of Table I must emerge from the model within a small tolerance.
func TestEmergentTableIRows(t *testing.T) {
	targets := PaperTargets()
	lambda, mu, err := SolveMismatch(targets)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := NewPopulation(lambda, mu, gridN, gridSpan)
	if err != nil {
		t.Fatal(err)
	}
	pred := pop.Predict(1000, 16)

	// Paper: BCHD avg 46.79%.
	if math.Abs(pred.BCHD-0.4679) > 0.003 {
		t.Errorf("BCHD = %v, paper 0.4679", pred.BCHD)
	}
	// Paper: stable-cell ratio avg 85.9%.
	if math.Abs(pred.StableRatio-0.859) > 0.02 {
		t.Errorf("StableRatio = %v, paper 0.859", pred.StableRatio)
	}
	// Paper: noise entropy avg 3.05%.
	if math.Abs(pred.NoiseHmin-0.0305) > 0.004 {
		t.Errorf("NoiseHmin = %v, paper 0.0305", pred.NoiseHmin)
	}
	// Paper: PUF entropy 64.92%.
	if math.Abs(pred.PUFHmin-0.6492) > 0.01 {
		t.Errorf("PUFHmin = %v, paper 0.6492", pred.PUFHmin)
	}
}

func TestSolveDriftHitsEndWCHD(t *testing.T) {
	targets := PaperTargets()
	lambda, mu, err := SolveMismatch(targets)
	if err != nil {
		t.Fatal(err)
	}
	drift, err := solveDriftGivenDispersion(targets, lambda, mu, 0, coarseN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if drift <= 0 || drift > 5 {
		t.Fatalf("implausible drift %v", drift)
	}
	pop, err := agedPopulation(lambda, mu, drift, 0, coarseN, 1)
	if err != nil {
		t.Fatal(err)
	}
	pred := pop.Predict(1000, 16)
	if math.Abs(pred.WCHD-targets.WCHDEnd) > 0.0002 {
		t.Fatalf("end WCHD = %v, want %v", pred.WCHD, targets.WCHDEnd)
	}
	// The bisection's WCHD-only evaluation is Predict's term, bit for bit.
	if w := pop.WCHD(); w != pred.WCHD {
		t.Fatalf("WCHD() = %v, Predict().WCHD = %v", w, pred.WCHD)
	}
}

// TestEmergentAgedRows checks the end-of-test behaviour after the full
// two-knob calibration: WCHD and noise entropy hit their fitted targets,
// while stable-cell ratio, FHW, BCHD and PUF entropy — which are NOT
// fitted — must emerge with the paper's direction and magnitude.
func TestEmergentAgedRows(t *testing.T) {
	res, err := Calibrate(PaperTargets(), 1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Fitted: end WCHD.
	if math.Abs(res.End.WCHD-0.0297) > 0.0005 {
		t.Errorf("end WCHD = %v, fitted target 0.0297", res.End.WCHD)
	}
	// Fitted: noise entropy relative change (paper: +19.3%).
	relNoise := (res.End.NoiseHmin - res.Start.NoiseHmin) / res.Start.NoiseHmin
	if math.Abs(relNoise-0.193) > 0.04 {
		t.Errorf("noise entropy relative change = %v, paper +0.193", relNoise)
	}
	// Stable cells decrease (paper: -2.49% relative).
	relStable := (res.End.StableRatio - res.Start.StableRatio) / res.Start.StableRatio
	if relStable > -0.005 || relStable < -0.06 {
		t.Errorf("stable ratio relative change = %v, paper -0.0249", relStable)
	}
	// FHW essentially constant (paper: negligible).
	if math.Abs(res.End.FHW-res.Start.FHW) > 0.004 {
		t.Errorf("FHW moved from %v to %v, paper negligible", res.Start.FHW, res.End.FHW)
	}
	// BCHD essentially constant.
	if math.Abs(res.End.BCHD-res.Start.BCHD) > 0.004 {
		t.Errorf("BCHD moved from %v to %v, paper negligible", res.Start.BCHD, res.End.BCHD)
	}
	// PUF entropy essentially constant (paper: 64.92% -> 64.91%).
	if math.Abs(res.End.PUFHmin-res.Start.PUFHmin) > 0.01 {
		t.Errorf("PUF entropy moved from %v to %v, paper negligible", res.Start.PUFHmin, res.End.PUFHmin)
	}
}

func TestEvolveEquilibriumSeeking(t *testing.T) {
	pop, err := NewPopulation(10, 0, 101, 6)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), pop.M...)
	pop.Evolve(0.5, 0.01)
	for i, m := range pop.M {
		b := before[i]
		if b > 0.5 && m >= b {
			t.Fatalf("point %d: positive skew did not decrease (%v -> %v)", i, b, m)
		}
		if b < -0.5 && m <= b {
			t.Fatalf("point %d: negative skew did not increase (%v -> %v)", i, b, m)
		}
		// No overshoot past metastability for moderate drift.
		if b > 0.5 && m < 0 || b < -0.5 && m > 0 {
			t.Fatalf("point %d: drift overshot equilibrium (%v -> %v)", i, b, m)
		}
	}
}

func TestEvolveZeroDriftNoop(t *testing.T) {
	pop, _ := NewPopulation(10, 2, 101, 6)
	before := append([]float64(nil), pop.M...)
	pop.Evolve(0, 0.01)
	pop.Evolve(-1, 0.01)
	for i := range pop.M {
		if pop.M[i] != before[i] {
			t.Fatal("Evolve with non-positive drift changed state")
		}
	}
}

func TestExpectedPUFHmin(t *testing.T) {
	// Unbiased source over many devices approaches 1 bit... but the
	// estimator with D=16 is upward-quantised; check monotone behaviour
	// and known anchor q=0.627, D=16 ~ 0.65.
	h := ExpectedPUFHmin(16, 0.627)
	if math.Abs(h-0.65) > 0.02 {
		t.Fatalf("ExpectedPUFHmin(16, 0.627) = %v, want ~0.65", h)
	}
	if ExpectedPUFHmin(16, 0.5) <= ExpectedPUFHmin(16, 0.627) {
		t.Error("PUF entropy should decrease with bias")
	}
	if ExpectedPUFHmin(16, 0.99) > 0.1 {
		t.Error("strongly biased source should have low PUF entropy")
	}
}

func TestExpectedEmpiricalHmin(t *testing.T) {
	// Degenerate p contributes zero.
	if expectedEmpiricalHmin(1000, 0) != 0 || expectedEmpiricalHmin(1000, 1) != 0 {
		t.Fatal("degenerate p should have zero empirical entropy")
	}
	// Balanced cell: phat concentrates near 0.5, entropy near 1 bit.
	h := expectedEmpiricalHmin(1000, 0.5)
	if h < 0.9 || h > 1.0 {
		t.Fatalf("balanced cell empirical Hmin = %v", h)
	}
	// Monotone decrease away from 0.5.
	if expectedEmpiricalHmin(1000, 0.3) <= expectedEmpiricalHmin(1000, 0.1) {
		t.Fatal("empirical Hmin should decrease with skew")
	}
}

func TestExpectedMaxOfNormals(t *testing.T) {
	if ExpectedMaxOfNormals(1) != 0 {
		t.Error("E[max of 1] should be 0")
	}
	// Known value: E[max of 2] = 1/sqrt(pi) ~ 0.5642.
	if got := ExpectedMaxOfNormals(2); math.Abs(got-0.564189) > 1e-4 {
		t.Errorf("E[max of 2] = %v, want 0.5642", got)
	}
	// E[max of 16] ~ 1.766.
	if got := ExpectedMaxOfNormals(16); math.Abs(got-1.766) > 0.01 {
		t.Errorf("E[max of 16] = %v, want ~1.766", got)
	}
	if !math.IsNaN(ExpectedMaxOfNormals(0)) {
		t.Error("n=0 should be NaN")
	}
}

func TestSolveMismatchRejectsBadTargets(t *testing.T) {
	if _, _, err := SolveMismatch(Targets{WCHDStart: 0.9, WCHDEnd: 0.95, FHW: 0.6, Months: 24}); err == nil {
		t.Fatal("absurd targets accepted")
	}
}

func BenchmarkCalibrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Calibrate(PaperTargets(), 1000, 16); err != nil {
			b.Fatal(err)
		}
	}
}
