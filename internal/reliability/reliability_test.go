package reliability

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/entropy"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/sram"
	"repro/internal/stats"
)

func TestExpectedFHW(t *testing.T) {
	m := Model{Lambda: 17.13, Mu: 5.558} // the calibrated paper model
	if got := expectedFHW(m); math.Abs(got-0.627) > 0.002 {
		t.Fatalf("ExpectedFHW = %v, want ~0.627", got)
	}
}

func TestExpectedWCHDMatchesPaperModel(t *testing.T) {
	m := Model{Lambda: 17.13, Mu: 5.558}
	wchd, err := m.ExpectedWCHD()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wchd-0.0249) > 0.0005 {
		t.Fatalf("ExpectedWCHD = %v, want ~0.0249", wchd)
	}
}

func TestFitRoundTripOnKnownModel(t *testing.T) {
	// Generate exact observables from a known model and re-fit.
	truth := Model{Lambda: 17.13, Mu: 5.558}
	stable, err := truth.ExpectedStableRatio(1000)
	if err != nil {
		t.Fatal(err)
	}
	obs := Observables{FHW: expectedFHW(truth), StableRatio: stable, Window: 1000}
	fit, err := Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Lambda-truth.Lambda)/truth.Lambda > 0.02 {
		t.Fatalf("fitted lambda %v, truth %v", fit.Lambda, truth.Lambda)
	}
	if math.Abs(fit.Mu-truth.Mu)/truth.Mu > 0.03 {
		t.Fatalf("fitted mu %v, truth %v", fit.Mu, truth.Mu)
	}
}

func TestFitFromSimulatedDevice(t *testing.T) {
	// End-to-end: measure a simulated chip's window, fit, and compare to
	// the chip's actual instance parameters.
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	chip, err := sram.New(profile, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	const window = 500
	var ms []*bitvec.Vector
	for i := 0; i < window; i++ {
		w, err := chip.PowerUpWindow()
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, w)
	}
	probs, err := entropy.OneProbabilities(ms)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := observablesFromOneProbs(probs, window)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	truth := chip.Params()
	if math.Abs(fit.Lambda-truth.Lambda)/truth.Lambda > 0.15 {
		t.Fatalf("fitted lambda %v, device %v", fit.Lambda, truth.Lambda)
	}
	if math.Abs(fit.Mu-truth.Mu)/truth.Mu > 0.15 {
		t.Fatalf("fitted mu %v, device %v", fit.Mu, truth.Mu)
	}
	// The fitted model should predict the device's measured WCHD band.
	wchd, err := fit.ExpectedWCHD()
	if err != nil {
		t.Fatal(err)
	}
	if wchd < 0.015 || wchd > 0.04 {
		t.Fatalf("fitted model predicts WCHD %v", wchd)
	}
}

func TestObservablesValidation(t *testing.T) {
	if _, err := observablesFromOneProbs(nil, 100); err == nil {
		t.Error("empty probs accepted")
	}
	if _, err := observablesFromOneProbs([]float64{0.5}, 1); err == nil {
		t.Error("window 1 accepted")
	}
	if _, err := observablesFromOneProbs([]float64{1.5}, 100); err == nil {
		t.Error("out-of-range probability accepted")
	}
	obs, err := observablesFromOneProbs([]float64{0, 1, 0.5, 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if obs.StableRatio != 0.75 || obs.FHW != 0.625 {
		t.Fatalf("observables = %+v", obs)
	}
}

func TestFitRejectsDegenerateInputs(t *testing.T) {
	cases := []Observables{
		{FHW: 0.999, StableRatio: 0.85, Window: 1000},
		{FHW: 0.627, StableRatio: 1.0, Window: 1000},
		{FHW: 0.627, StableRatio: 0.001, Window: 1000},
		{FHW: 0.627, StableRatio: 0.85, Window: 1},
	}
	for i, obs := range cases {
		if _, err := Fit(obs); err == nil {
			t.Errorf("case %d: degenerate observables accepted: %+v", i, obs)
		}
	}
}

func TestKeyFailureProbability(t *testing.T) {
	// t = n never fails.
	p, err := KeyFailureProbability(0.3, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("t=n failure probability = %v", p)
	}
	// t = 0: failure = 1 - (1-ber)^n.
	p, err = KeyFailureProbability(0.1, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Pow(0.9, 5)
	if math.Abs(p-want) > 1e-12 {
		t.Fatalf("t=0 failure = %v, want %v", p, want)
	}
	// Monotone decreasing in t.
	prev := 1.0
	for tt := 0; tt <= 23; tt++ {
		p, err := KeyFailureProbability(0.03, tt, 23)
		if err != nil {
			t.Fatal(err)
		}
		if p > prev {
			t.Fatalf("failure probability not decreasing at t=%d", tt)
		}
		prev = p
	}
	if _, err := KeyFailureProbability(-0.1, 1, 10); err == nil {
		t.Error("negative BER accepted")
	}
	if _, err := KeyFailureProbability(0.1, 11, 10); err == nil {
		t.Error("t > n accepted")
	}
}

func TestRequiredCorrectionMatchesSchemeDesign(t *testing.T) {
	// Inner repetition(5) at 3.25% BER gives an effective outer BER; the
	// Golay outer code (t=3 over 23) must then push block failure below
	// 1e-9 — the design budget documented in the facade.
	innerFail, err := KeyFailureProbability(0.0325, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	outerFail, err := KeyFailureProbability(innerFail, 3, 23)
	if err != nil {
		t.Fatal(err)
	}
	if outerFail > 1e-9 {
		t.Fatalf("scheme block failure = %v, want <= 1e-9", outerFail)
	}
}

// observablesFromOneProbs summarises an evaluation window's empirical
// one-probabilities.
func observablesFromOneProbs(oneProbs []float64, window int) (Observables, error) {
	if len(oneProbs) == 0 {
		return Observables{}, errors.New("reliability: no cells")
	}
	if window < 2 {
		return Observables{}, fmt.Errorf("reliability: window %d too small", window)
	}
	var sum float64
	stable := 0
	for _, p := range oneProbs {
		if p < 0 || p > 1 {
			return Observables{}, fmt.Errorf("reliability: one-probability %v outside [0,1]", p)
		}
		sum += p
		if p == 0 || p == 1 {
			stable++
		}
	}
	return Observables{
		FHW:         sum / float64(len(oneProbs)),
		StableRatio: float64(stable) / float64(len(oneProbs)),
		Window:      window,
	}, nil
}

// expectedFHW returns the model's fractional Hamming weight.
func expectedFHW(m Model) float64 {
	return stats.Phi(m.Mu / math.Sqrt(1+m.Lambda*m.Lambda))
}
