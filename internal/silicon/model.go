package silicon

import (
	"fmt"
	"math"

	"repro/internal/aging"
	"repro/internal/rng"
)

// CellModel is the pluggable per-cell behaviour of a device family: how
// a chip's process variation is drawn, how its per-device instance
// parameters spread around the population, how fast its cells age, and
// how its power-up noise scales with the operating point. DeviceProfile
// carries the model by name (Model, resolved through the model
// registry); package sram samples and ages every Array exclusively
// through this interface, so a new silicon family — a cache-structured
// server SRAM, a GPU memory — plugs into every campaign layer without
// touching the array, the sources, or the engine.
//
// The calibrated i.i.d.-mismatch model of the paper's embedded SRAM is
// the "" / "iid" implementation; "correlated" adds the block-correlated
// mismatch of cache-line-structured large arrays (Van Aubel et al.,
// arXiv:1507.08514).
type CellModel interface {
	// ModelName is the registry key carried in DeviceProfile.Model.
	ModelName() string

	// LambdaFloor is the tail guard of the per-device mismatch draw: the
	// minimum per-device lambda as a fraction of the population Lambda.
	// It is part of the model contract — a model with tighter (or looser)
	// process control defines its own floor instead of silently
	// inheriting the i.i.d. one.
	LambdaFloor() float64

	// SampleParams draws the instance parameters of one physical board
	// around the profile's population values, clamped at LambdaFloor.
	// The draw is deterministic in the supplied stream.
	SampleParams(p DeviceProfile, src *rng.Source) DeviceParams

	// SampleSkew fills the per-cell static skew (noise-sigma units) and
	// per-cell aging-rate dispersion draws (~N(0,1) marginal) of one
	// chip's first len(static) == len(gamma) <= p.Cells() cells from the
	// manufacturing stream. The fill is deterministic in mfg and must be
	// prefix-stable: filling n cells yields exactly the first n cells of
	// a p.Cells()-long fill from the same stream, so a cell's values never
	// depend on how many cells are filled. package sram relies on this to
	// simulate only the read window (n = p.ReadWindowBits()) while reading
	// out the same bits as a chip that simulated every cell. A model
	// meets it by drawing in cell order and drawing anything shared by a
	// group of cells right before the group's first cell.
	SampleSkew(p DeviceProfile, d DeviceParams, mfg *rng.Source, static, gamma []float64)

	// AgingResponse returns the BTI kinetics and the aging-rate
	// dispersion coefficient the array integrates with — the model owns
	// the aging contract, profiles only carry the calibrated numbers.
	AgingResponse(p DeviceProfile) (aging.Kinetics, float64)

	// NoiseScale returns the chip's relative power-up noise sigma at the
	// profile's (possibly condition-shifted, see DeviceProfile.At)
	// operating point. 1 is the embedded nominal.
	NoiseScale(p DeviceProfile) float64

	// ValidateProfile checks the model-specific profile fields.
	ValidateProfile(p DeviceProfile) error
}

// ModelIID and ModelCorrelated are the registered names of the built-in
// cell models. An empty DeviceProfile.Model resolves to ModelIID.
const (
	ModelIID        = "iid"
	ModelCorrelated = "correlated"
)

// sampleParams is the shared instance-parameter draw: a jittered
// mismatch ratio clamped at the model's floor, and a jittered bias
// z-score mapped back through the (per-device) lambda.
func sampleParams(p DeviceProfile, floor float64, src *rng.Source) DeviceParams {
	lambda := p.Lambda * (1 + p.LambdaRelJitter*src.NormFloat64())
	if lambda < floor*p.Lambda {
		lambda = floor * p.Lambda // guard absurd tail draws
	}
	z0 := p.Mu / math.Sqrt(1+p.Lambda*p.Lambda)
	z := z0 + p.BiasZJitter*src.NormFloat64()
	mu := z * math.Sqrt(1+lambda*lambda)
	return DeviceParams{Lambda: lambda, Mu: mu}
}

// relNoise folds the profile's relative noise sigma (NoiseRel, 0 meaning
// the embedded reference 1) onto the condition scale. The nominal
// embedded path multiplies by exactly 1.0, which is the IEEE 754
// identity — bit-identical to never scaling.
func relNoise(p DeviceProfile) float64 {
	s := p.Kinetics.NoiseScale()
	if p.NoiseRel != 0 {
		s *= p.NoiseRel
	}
	return s
}

// iidModel is the paper's calibrated model: independent identically
// distributed per-cell mismatch, the 0.1·Lambda tail guard the
// AVG-to-WC calibration was performed with, and the profile's own
// kinetics and dispersion unchanged.
type iidModel struct{}

func (iidModel) ModelName() string    { return ModelIID }
func (iidModel) LambdaFloor() float64 { return 0.1 }

func (m iidModel) SampleParams(p DeviceProfile, src *rng.Source) DeviceParams {
	return sampleParams(p, m.LambdaFloor(), src)
}

// SampleSkew draws skew and dispersion interleaved per cell — the exact
// RNG consumption order of the historical sram.New loop, which is what
// keeps pre-refactor campaigns bit-identical. Cell i's pair is draws
// 2i and 2i+1, so the fill is prefix-stable.
func (iidModel) SampleSkew(p DeviceProfile, d DeviceParams, mfg *rng.Source, static, gamma []float64) {
	for i := range static {
		static[i] = d.Mu + d.Lambda*mfg.NormFloat64()
		gamma[i] = mfg.NormFloat64()
	}
}

func (iidModel) AgingResponse(p DeviceProfile) (aging.Kinetics, float64) {
	return p.Kinetics, p.AgingDispersion
}

func (iidModel) NoiseScale(p DeviceProfile) float64 { return relNoise(p) }

func (iidModel) ValidateProfile(p DeviceProfile) error {
	if p.LineBits != 0 || p.LineCorr != 0 {
		return fmt.Errorf("silicon: profile %q: line structure (LineBits=%d, LineCorr=%v) requires the %q model",
			p.Name, p.LineBits, p.LineCorr, ModelCorrelated)
	}
	return nil
}

// correlatedModel is the cache-line-structured large-array model:
// mismatch is block-correlated — every cell of a line shares a common
// component (lithographic and well-proximity gradients act per line /
// per word-line driver) with correlation LineCorr, while the marginal
// per-cell distribution stays N(Mu, Lambda²) so the profile's
// calibrated bias and reliability targets keep their meaning. The
// per-cell aging-rate dispersion draws share the same line structure,
// so within-line aging is correlated too — a structurally different
// aging response through the same interface.
type correlatedModel struct{}

func (correlatedModel) ModelName() string { return ModelCorrelated }

// LambdaFloor is deliberately NOT the i.i.d. 0.1: large-array process
// control is far tighter than the 8-bit-MCU population the embedded
// guard was calibrated for, so a draw below 0.5·Lambda is a modelling
// error, not a plausible outlier. Pinned by TestLambdaFloorContract.
func (correlatedModel) LambdaFloor() float64 { return 0.5 }

func (m correlatedModel) SampleParams(p DeviceProfile, src *rng.Source) DeviceParams {
	return sampleParams(p, m.LambdaFloor(), src)
}

// SampleSkew draws one shared (skew, dispersion) component pair per
// cache line, then per-cell residuals, combining them with the
// variance-preserving split √ρ·L + √(1−ρ)·ε. A trailing partial line
// (cells not a multiple of LineBits) forms its own short line. The fill
// is prefix-stable: each line's shared pair is drawn right before its
// cells, so a fill cut inside a line (or a whole-array line, LineBits
// 0) has drawn exactly what the longer fill had drawn by that cell.
func (correlatedModel) SampleSkew(p DeviceProfile, d DeviceParams, mfg *rng.Source, static, gamma []float64) {
	line := p.LineBits
	if line <= 0 {
		line = len(static)
	}
	shared := math.Sqrt(p.LineCorr)
	resid := math.Sqrt(1 - p.LineCorr)
	for base := 0; base < len(static); base += line {
		end := base + line
		if end > len(static) {
			end = len(static)
		}
		lineSkew := mfg.NormFloat64()
		lineGamma := mfg.NormFloat64()
		for i := base; i < end; i++ {
			static[i] = d.Mu + d.Lambda*(shared*lineSkew+resid*mfg.NormFloat64())
			gamma[i] = shared*lineGamma + resid*mfg.NormFloat64()
		}
	}
}

func (correlatedModel) AgingResponse(p DeviceProfile) (aging.Kinetics, float64) {
	return p.Kinetics, p.AgingDispersion
}

func (correlatedModel) NoiseScale(p DeviceProfile) float64 { return relNoise(p) }

func (correlatedModel) ValidateProfile(p DeviceProfile) error {
	switch {
	case p.LineBits < 0:
		return fmt.Errorf("silicon: profile %q: negative line size %d", p.Name, p.LineBits)
	case p.LineBits > p.Cells():
		return fmt.Errorf("silicon: profile %q: line size %d exceeds %d cells", p.Name, p.LineBits, p.Cells())
	case p.LineCorr < 0 || p.LineCorr >= 1:
		return fmt.Errorf("silicon: profile %q: line correlation %v outside [0, 1)", p.Name, p.LineCorr)
	}
	return nil
}
