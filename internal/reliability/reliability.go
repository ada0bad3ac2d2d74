// Package reliability implements the probabilistic SRAM PUF reliability
// model of Maes (CHES 2013, paper ref [18]) — the same hidden-variable
// model the simulator is built on — together with *inverse* inference:
// estimating the model parameters of a physical (or simulated) device
// from one evaluation window of measurements.
//
// Model: cell i has hidden skew m_i ~ N(mu, lambda^2) in noise-sigma
// units; its one-probability is p_i = Phi(m_i). Fitting recovers
// (lambda, mu) from two robust observables of a W-measurement window:
//
//	FHW          = E[Phi(m)]                   (mean one-probability)
//	StableRatio  = E[p^W + (1-p)^W]            (fraction with no flips)
//
// Both are strictly monotone in the parameters (FHW in mu, stable ratio
// in lambda at fixed FHW), so nested bisection converges unconditionally.
// The fitted model then predicts the remaining quality metrics, giving a
// device-health diagnostic that needs only one window of data.
package reliability

import (
	"fmt"

	"repro/internal/calib"
	"repro/internal/stats"
)

// Model is a fitted cell-population model.
type Model struct {
	Lambda float64 // mismatch-to-noise sigma ratio
	Mu     float64 // mismatch mean (bias)
}

const (
	gridN    = 2001
	gridSpan = 9.0
)

// predict evaluates the model's expectations for a W-measurement window.
func (m Model) predict(window int) (calib.Prediction, error) {
	pop, err := calib.NewPopulation(m.Lambda, m.Mu, gridN, gridSpan)
	if err != nil {
		return calib.Prediction{}, err
	}
	return pop.Predict(window, 16), nil
}

// ExpectedWCHD returns the model's expected within-class fractional HD
// against a same-distribution reference.
func (m Model) ExpectedWCHD() (float64, error) {
	p, err := m.predict(2)
	if err != nil {
		return 0, err
	}
	return p.WCHD, nil
}

// ExpectedStableRatio returns the expected fraction of cells with no flip
// in a window of the given size.
func (m Model) ExpectedStableRatio(window int) (float64, error) {
	p, err := m.predict(window)
	if err != nil {
		return 0, err
	}
	return p.StableRatio, nil
}

// Observables are the windowed statistics the fit consumes.
type Observables struct {
	FHW         float64 // mean one-probability over cells
	StableRatio float64 // fraction of cells with empirical p of exactly 0 or 1
	Window      int     // measurements in the window
}

// Fit recovers (lambda, mu) from the observables by nested bisection:
// for each trial lambda, mu is solved in closed form from FHW; the stable
// ratio then increases monotonically with lambda.
func Fit(obs Observables) (Model, error) {
	switch {
	case obs.FHW <= 0.01 || obs.FHW >= 0.99:
		return Model{}, fmt.Errorf("reliability: FHW %v too extreme to fit", obs.FHW)
	case obs.StableRatio <= 0.02 || obs.StableRatio >= 0.9999:
		return Model{}, fmt.Errorf("reliability: stable ratio %v outside fittable range", obs.StableRatio)
	case obs.Window < 2:
		return Model{}, fmt.Errorf("reliability: window %d too small", obs.Window)
	}
	stableAt := func(lambda float64) (float64, error) {
		m := Model{Lambda: lambda, Mu: calib.MuForFHW(lambda, obs.FHW)}
		return m.ExpectedStableRatio(obs.Window)
	}
	lo, hi := 0.5, 500.0
	sLo, err := stableAt(lo)
	if err != nil {
		return Model{}, err
	}
	sHi, err := stableAt(hi)
	if err != nil {
		return Model{}, err
	}
	if !(sLo < obs.StableRatio && obs.StableRatio < sHi) {
		return Model{}, fmt.Errorf("reliability: stable ratio %v not bracketed (%v..%v)", obs.StableRatio, sLo, sHi)
	}
	for iter := 0; iter < 60 && hi-lo > 1e-6*hi; iter++ {
		mid := 0.5 * (lo + hi)
		s, err := stableAt(mid)
		if err != nil {
			return Model{}, err
		}
		if s < obs.StableRatio {
			lo = mid
		} else {
			hi = mid
		}
	}
	lambda := 0.5 * (lo + hi)
	return Model{Lambda: lambda, Mu: calib.MuForFHW(lambda, obs.FHW)}, nil
}

// KeyFailureProbability returns the probability that more than t of n
// response bits are erroneous at the given per-bit error rate — the
// block-failure model for a t-error-correcting code over n bits.
func KeyFailureProbability(ber float64, t, n int) (float64, error) {
	if ber < 0 || ber > 1 {
		return 0, fmt.Errorf("reliability: BER %v outside [0,1]", ber)
	}
	if t < 0 || n < 1 || t > n {
		return 0, fmt.Errorf("reliability: invalid (t=%d, n=%d)", t, n)
	}
	ok := 0.0
	for k := 0; k <= t; k++ {
		ok += stats.BinomialPMF(n, k, ber)
	}
	p := 1 - ok
	if p < 0 {
		p = 0
	}
	return p, nil
}
