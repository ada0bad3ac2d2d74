// Package sram simulates the power-up behaviour of an on-chip SRAM array
// over its lifetime.
//
// An Array holds one simulated chip: per-cell static skew (process
// variation), per-transistor BTI threshold shifts (aging state), a per-cell
// aging-rate dispersion coefficient, and a deterministic noise stream.
// PowerUpWindowInto draws one power-up pattern exactly as the physical
// chip would produce it; AgeTo advances the BTI state to a target age in
// months, integrating the occupancy-weighted drift of package aging in
// drift space.
//
// Only the read window is simulated: the paper reads out the first
// ReadWindowBytes of the SRAM, so an Array holds, samples and ages just
// those cells. The physical size stays in the profile
// (silicon.DeviceProfile.Cells). Simulating the window alone reads out
// the same bits as simulating every cell would: the cell models fill skew
// prefix-stably (silicon.CellModel.SampleSkew), AgeTo updates each cell
// from that cell's own state with a step count that depends only on the
// drift, and power-up noise draws only ever covered the window.
//
// Power-ups are sampled by a Bernoulli fast path, statistically identical
// to adding one Gaussian noise draw per cell to the skew (the tests keep
// that literal path as an oracle). It draws one Uint64 per cell and
// compares its top 53 bits, as an integer, against the cell's cached
// threshold ceil(p·2^53) (rng.BernoulliThreshold), 64 cells to a word
// (rng.Source.BernoulliWords). That is exactly the comparison
// Float64() < p, so it samples the same bits as a per-cell float test.
package sram

import (
	"fmt"
	"math"

	"repro/internal/aging"
	"repro/internal/bitvec"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/stats"
)

// Array is one simulated SRAM chip instance. Its per-cell state covers
// the profile's read window (ReadWindowBits cells), so its size does not
// grow with the physical SRAM.
type Array struct {
	profile silicon.DeviceProfile
	model   silicon.CellModel
	params  silicon.DeviceParams

	// Aging response cached from the profile's cell model at construction:
	// AgeTo integrates with these instead of reaching into profile fields,
	// so a model can substitute its own kinetics.
	kin  aging.Kinetics
	disp float64

	// Per-cell state over the read window. Skew quantities are in
	// noise-sigma units. The five shift slices are the aging state: they
	// stay nil until the first AgeTo that integrates a nonzero drift, and
	// an unaged chip reads every shift as 0 (see allocShifts).
	static []float64 // static skew from process variation
	dP1    []float64 // NBTI Vth shift of P1 (skew-weighted), stressed by state 1
	dP2    []float64 // NBTI Vth shift of P2, stressed by state 0
	dN1    []float64 // PBTI Vth shift of N1, stressed by state 0
	dN2    []float64 // PBTI Vth shift of N2, stressed by state 1
	dDisp  []float64 // accumulated aging-rate dispersion drift
	gamma  []float64 // per-cell dispersion coefficient draw ~ N(0,1)

	ageMonths  float64
	noise      *rng.Source
	noiseScale float64 // relative power-up noise sigma (1 at nominal conditions)

	// thresh holds each cell's Bernoulli threshold
	// rng.BernoulliThreshold(Phi(skew/noiseScale)) at the current age
	// and noise scale. Aging, a noise-scale change and Reset invalidate
	// it; the next power-up rebuilds it.
	thresh      []uint64
	threshValid bool

	powerUps uint64 // number of power cycles sampled so far

	// derived is Reset's derivation scratch, so rebuilding a chip in
	// place (the lazy-construction hot path) allocates nothing.
	derived rng.Source
}

// New creates a chip instance of the given profile, simulating its read
// window. The seed stream determines both the chip's process variation
// and its noise sequence; the same seed always reproduces the same chip
// and measurement history. The chip starts unaged and holds 24 bytes per
// cell (static skew, dispersion coefficient, threshold); the aging state
// is allocated by the first aging step.
func New(profile silicon.DeviceProfile, seed *rng.Source) (*Array, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	model, err := profile.CellModel()
	if err != nil {
		return nil, err
	}
	n := profile.ReadWindowBits()
	a := &Array{
		profile:    profile,
		model:      model,
		params:     model.SampleParams(profile, seed.Derive(0)),
		static:     make([]float64, n),
		gamma:      make([]float64, n),
		noise:      seed.Derive(2),
		noiseScale: 1,
		thresh:     make([]uint64, n),
	}
	a.kin, a.disp = model.AgingResponse(profile)
	mfg := seed.Derive(1) // manufacturing variation stream
	model.SampleSkew(profile, a.params, mfg, a.static, a.gamma)
	return a, nil
}

// Reset re-derives the chip in place from seed, as if freshly built with
// New(profile, seed), reusing every per-cell slice: age returns to zero
// (aging state already allocated is kept, zeroed), skews and parameters
// are resampled from the seed's derivation streams, the noise stream
// restarts, and the noise scale returns to nominal. It is the rebuild
// step of lazy chip construction — a worker slot holds one Array per
// profile and Resets it to whichever device it measures next — and is
// bit-identical to a fresh New because derivation is label-based and the
// parent seed is never advanced.
func (a *Array) Reset(seed *rng.Source) {
	seed.DeriveInto(0, &a.derived)
	a.params = a.model.SampleParams(a.profile, &a.derived)
	zero(a.dP1)
	zero(a.dP2)
	zero(a.dN1)
	zero(a.dN2)
	zero(a.dDisp)
	seed.DeriveInto(1, &a.derived)
	a.model.SampleSkew(a.profile, a.params, &a.derived, a.static, a.gamma)
	seed.DeriveInto(2, a.noise)
	a.noiseScale = 1
	a.ageMonths = 0
	a.threshValid = false
	a.powerUps = 0
}

func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// JumpNoise fast-forwards the chip's noise stream by the jump's step
// count without sampling — how a lazily rebuilt chip skips the uniform
// draws that earlier evaluation windows consumed. Each Bernoulli-path
// power-up of n cells consumes exactly n Uint64 draws, so the jump for a
// window of w power-ups over an n-bit read window is NewJump(w*n). The
// power-up counter is NOT advanced: PowerUps() counts samples this Array
// actually produced.
func (a *Array) JumpNoise(j *rng.Jump) { j.Apply(a.noise) }

// Params returns this chip instance's sampled parameters.
func (a *Array) Params() silicon.DeviceParams { return a.params }

// Cells returns the number of simulated cells: the read window's bits.
// The chip's physical size is its profile's Cells().
func (a *Array) Cells() int { return len(a.static) }

// PowerUps returns the number of power cycles sampled so far.
func (a *Array) PowerUps() uint64 { return a.powerUps }

// skew is the one definition of a cell's total power-up skew: the static
// skew, the NBTI pair's net shift, the PBTI pair's net shift and the
// dispersion drift, summed in that order.
func skew(static, dP1, dP2, dN1, dN2, dDisp float64) float64 {
	return static + (dP2 - dP1) + (dN1 - dN2) + dDisp
}

// oneProbability is Phi(x/scale) for a cell of skew x. The division is
// skipped only at scale 1, where x/1 == x exactly in IEEE 754, so both
// branches give the value the division would.
func oneProbability(x, scale float64) float64 {
	if scale != 1 {
		x /= scale
	}
	return stats.PhiFast(x)
}

// SetNoiseScale sets the relative power-up noise sigma of the chip's
// operating condition. All skews are expressed in units of the NOMINAL
// noise sigma, so a hotter (noisier) condition divides the effective skew:
// p = Phi(skew/scale). Scale 1 — the nominal point — leaves the power-up
// distribution bit-identical to a chip that never had its scale set
// (x/1.0 == x exactly in IEEE 754).
func (a *Array) SetNoiseScale(scale float64) error {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("sram: noise scale must be positive and finite, got %v", scale)
	}
	if scale != a.noiseScale {
		a.noiseScale = scale
		a.threshValid = false
	}
	return nil
}

// maxDriftStep bounds the drift-space integration step so the occupancy
// term stays accurate (q changes little per step). With h = 0.01 the
// first-order integration error is below 1e-3 sigma over a full campaign.
const maxDriftStep = 0.01

// AgeTo advances the chip's BTI state to the given age in months using the
// profile's kinetics. Ageing is one-directional; an error is returned if
// months is behind the current age.
//
// The full-imbalance drift between the two ages is integrated in
// ceil(drift/maxDriftStep) equal steps. Each step sweeps every cell once:
// the cell's occupancy q = Phi(skew/scale) at the start of the step
// weights its four BTI increments (aging.Kinetics.Resolve) and the
// dispersion drift grows by disp·gamma·h. The sweep keeps the slices,
// the split factors and the noise scale in locals; its floating-point
// operations are those of skew, Resolve and oneProbability in the same
// order, so the state it leaves is bit-identical to calling them per
// cell.
func (a *Array) AgeTo(months float64) error {
	if months < a.ageMonths {
		return fmt.Errorf("sram: cannot rejuvenate from %.3f to %.3f months", a.ageMonths, months)
	}
	if months == a.ageMonths {
		return nil
	}
	total := a.kin.DriftIncrement(a.ageMonths, months)
	if total > 0 {
		steps := int(math.Ceil(total / maxDriftStep))
		a.allocShifts()
		a.ageSteps(steps, total/float64(steps))
	}
	a.ageMonths = months
	a.threshValid = false
	return nil
}

// allocShifts gives an unaged array its aging state: five zeroed
// window-long slices carved from one allocation. Zeros are what an unaged
// chip reads, so allocating changes no result.
func (a *Array) allocShifts() {
	if a.dP1 != nil {
		return
	}
	n := len(a.static)
	buf := make([]float64, 5*n)
	a.dP1, a.dP2, a.dN1 = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n]
	a.dN2, a.dDisp = buf[3*n:4*n:4*n], buf[4*n:]
}

// ageSteps runs steps drift steps of size h over every cell. Every
// per-cell slice is resliced to the window length so the inner loop runs
// without bounds checks.
func (a *Array) ageSteps(steps int, h float64) {
	nbti, pbti := a.kin.Split(h)
	b, scale := a.disp, a.noiseScale
	static := a.static
	n := len(static)
	dP1, dP2, dN1, dN2 := a.dP1[:n], a.dP2[:n], a.dN1[:n], a.dN2[:n]
	dDisp, gamma := a.dDisp[:n], a.gamma[:n]
	for s := 0; s < steps; s++ {
		for i, st := range static {
			q := oneProbability(skew(st, dP1[i], dP2[i], dN1[i], dN2[i], dDisp[i]), scale)
			dP1[i] += nbti * q
			dP2[i] += nbti * (1 - q)
			dN1[i] += pbti * (1 - q)
			dN2[i] += pbti * q
			dDisp[i] += b * gamma[i] * h
		}
	}
}

// thresholds returns the cached per-cell Bernoulli thresholds,
// rebuilding them after aging or a noise-scale change. The rebuild is
// rng.BernoulliThreshold(oneProbability(skew, scale)) for every cell,
// swept over local slices as ageSteps does. An unaged chip sums the same zero
// shifts without reading them.
func (a *Array) thresholds() []uint64 {
	if !a.threshValid {
		scale := a.noiseScale
		static := a.static
		n := len(static)
		thresh := a.thresh[:n]
		if a.dP1 == nil {
			for i, st := range static {
				thresh[i] = rng.BernoulliThreshold(oneProbability(skew(st, 0, 0, 0, 0, 0), scale))
			}
		} else {
			dP1, dP2, dN1, dN2, dDisp := a.dP1[:n], a.dP2[:n], a.dN1[:n], a.dN2[:n], a.dDisp[:n]
			for i, st := range static {
				thresh[i] = rng.BernoulliThreshold(oneProbability(skew(st, dP1[i], dP2[i], dN1[i], dN2[i], dDisp[i]), scale))
			}
		}
		a.threshValid = true
	}
	return a.thresh
}

// PowerUpWindow samples one power-up and returns only the read window
// (the first ReadWindowBytes of the SRAM), matching the paper's read-out.
func (a *Array) PowerUpWindow() (*bitvec.Vector, error) {
	w := bitvec.New(a.Cells())
	if err := a.PowerUpWindowInto(w); err != nil {
		return nil, err
	}
	return w, nil
}

// PowerUpWindowInto samples one power-up read window into dst, which must
// have ReadWindowBits() bits, with one noise draw per cell in cell order
// against the cached thresholds (rng.Source.BernoulliWords). It is the
// allocation-free form of PowerUpWindow used by the streaming pipeline:
// the same RNG draws in the same order, so the sampled patterns are
// bit-identical.
func (a *Array) PowerUpWindowInto(dst *bitvec.Vector) error {
	if dst.Len() != a.Cells() {
		return fmt.Errorf("sram: destination has %d bits, array has %d cells", dst.Len(), a.Cells())
	}
	a.noise.BernoulliWords(a.thresholds(), dst.Words())
	a.powerUps++
	return nil
}
