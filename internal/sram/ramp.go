package sram

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
)

// Voltage ramp model, after Cortez et al. (TCAD 2015, paper ref [17]):
// the rate of the supply ramp at power-up controls how much thermal noise
// is integrated while the cell resolves. A slower ramp gives each cell
// more time to settle toward its static preference (less noise, fewer
// flips, better for key generation); a faster ramp leaves more noise in
// the decision (more flips, more harvestable entropy, better for TRNG).
//
// The model scales the effective noise sigma as
//
//	sigma_eff(T_ramp) = (T_ref / T_ramp)^RampExponent
//
// relative to the calibrated sigma of 1 at the reference ramp time.

// Ramp parameters of the simulated supply.
const (
	// ReferenceRampSeconds is the ramp time at which the device profiles
	// are calibrated (sigma_eff = 1).
	ReferenceRampSeconds = 1e-3
	// RampExponent is the sensitivity of the effective noise to the ramp
	// rate.
	RampExponent = 0.5
)

// EffectiveNoiseSigma returns the noise sigma for a given supply ramp
// time in seconds.
func EffectiveNoiseSigma(rampSeconds float64) (float64, error) {
	if rampSeconds <= 0 {
		return 0, fmt.Errorf("sram: ramp time %v must be positive", rampSeconds)
	}
	return math.Pow(ReferenceRampSeconds/rampSeconds, RampExponent), nil
}

// PowerUpWithRamp samples one power-up of every simulated cell with the
// supply ramped over rampSeconds, scaling the decision noise accordingly.
func (a *Array) PowerUpWithRamp(dst *bitvec.Vector, rampSeconds float64) error {
	sigma, err := EffectiveNoiseSigma(rampSeconds)
	if err != nil {
		return err
	}
	return a.PowerUpFullNoise(dst, sigma)
}

// ExpectedWCHDAtRamp returns the expected within-class FHD of the read
// window when both reference and measurement are taken at the given ramp
// time: E[2 p (1-p)] with p = Phi(skew / sigma_eff).
func (a *Array) ExpectedWCHDAtRamp(rampSeconds float64) (float64, error) {
	sigma, err := EffectiveNoiseSigma(rampSeconds)
	if err != nil {
		return 0, err
	}
	n := a.profile.ReadWindowBits()
	sum := 0.0
	for i := 0; i < n; i++ {
		p := phiScaled(a.Skew(i), sigma)
		sum += 2 * p * (1 - p)
	}
	return sum / float64(n), nil
}

func phiScaled(skew, sigma float64) float64 {
	return 0.5 * math.Erfc(-skew/(sigma*math.Sqrt2))
}
