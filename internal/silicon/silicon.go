// Package silicon defines device profiles and per-device parameter
// sampling for the simulated SRAM populations.
//
// A DeviceProfile describes a *family* of chips (the ATmega32u4 on the
// Arduino Leonardo boards of the paper, or the 65 nm CMOS comparator of the
// accelerated-aging baseline). Its numeric model parameters are not magic
// constants: they are solved by package calib from the paper's measured
// Table I targets, so the profile is exactly as biased, as noisy and as
// aging-prone as the silicon the paper measured.
//
// Per-device instance parameters (DeviceParams) add the board-to-board
// spread that produces the paper's worst-case (WC) rows: each board gets a
// jittered mismatch ratio and bias, calibrated against the AVG-to-WC gaps
// of Table I via order statistics of 16 devices.
package silicon

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/aging"
	"repro/internal/calib"
)

// DeviceProfile describes a family of SRAM devices and its calibrated
// probabilistic model. All skew quantities are in units of the power-up
// noise sigma.
type DeviceProfile struct {
	Name       string
	Technology string

	// Geometry.
	SRAMBytes       int // total on-chip SRAM (2560 = 2.5 KByte on ATmega32u4)
	ReadWindowBytes int // bytes read out per power-up (1024 in the paper)

	// Electrical operating point.
	OperatingVoltage float64
	NominalTempC     float64

	// Calibrated population model.
	Lambda float64 // mismatch-to-noise sigma ratio
	Mu     float64 // mismatch mean (bias)

	// Per-device spread (see DeviceParams).
	LambdaRelJitter float64 // relative sigma of per-device Lambda
	BiasZJitter     float64 // sigma of per-device bias z-score

	// Aging model.
	Kinetics        aging.Kinetics
	AgingDispersion float64 // per-cell aging-rate dispersion coefficient B

	// Cell model selection. Model names a registered CellModel ("" is
	// the calibrated i.i.d.-mismatch model, ModelIID); the fields below
	// parameterise the non-default models and ride JSON with the rest of
	// the profile, so a shard worker or service rebuilds the exact model
	// from the wire spec.
	Model string `json:",omitempty"`
	// LineBits is the cache-line size in cells for the block-correlated
	// model (0: one line spanning the whole array).
	LineBits int `json:",omitempty"`
	// LineCorr is the within-line mismatch correlation in [0, 1) for the
	// block-correlated model.
	LineCorr float64 `json:",omitempty"`
	// NoiseRel scales the power-up noise sigma relative to the embedded
	// reference (0 means 1 — large arrays read noisier relative to their
	// mismatch, arXiv:1507.08514 §IV).
	NoiseRel float64 `json:",omitempty"`
}

// Validate checks profile consistency.
func (p DeviceProfile) Validate() error {
	switch {
	case p.SRAMBytes <= 0:
		return fmt.Errorf("silicon: non-positive SRAM size %d", p.SRAMBytes)
	case p.ReadWindowBytes <= 0 || p.ReadWindowBytes > p.SRAMBytes:
		return fmt.Errorf("silicon: read window %d B invalid for %d B SRAM", p.ReadWindowBytes, p.SRAMBytes)
	case p.Lambda <= 0:
		return fmt.Errorf("silicon: non-positive lambda %v", p.Lambda)
	case p.LambdaRelJitter < 0 || p.LambdaRelJitter > 0.5:
		return fmt.Errorf("silicon: lambda jitter %v outside [0,0.5]", p.LambdaRelJitter)
	case p.BiasZJitter < 0:
		return fmt.Errorf("silicon: negative bias jitter %v", p.BiasZJitter)
	case p.AgingDispersion < 0:
		return fmt.Errorf("silicon: negative aging dispersion %v", p.AgingDispersion)
	case p.NoiseRel < 0:
		return fmt.Errorf("silicon: negative relative noise sigma %v", p.NoiseRel)
	}
	model, err := p.CellModel()
	if err != nil {
		return err
	}
	if err := model.ValidateProfile(p); err != nil {
		return err
	}
	return p.Kinetics.Validate()
}

// CellModel resolves the profile's cell model through the model
// registry. An empty Model is the calibrated i.i.d. model.
func (p DeviceProfile) CellModel() (CellModel, error) {
	return LookupModel(p.Model)
}

// NoiseScale returns the relative power-up noise sigma of the profile's
// operating point, through the profile's cell model — the single value
// the source constructors hand to (*sram.Array).SetNoiseScale. It is
// exactly 1 at an embedded profile's nominal scenario.
func (p DeviceProfile) NoiseScale() float64 {
	model, err := p.CellModel()
	if err != nil {
		// Validate reports the unknown model long before any sampling;
		// fall back to the condition scale so the accessor stays total.
		return p.Kinetics.NoiseScale()
	}
	return model.NoiseScale(p)
}

// Cells returns the number of SRAM bits on the device.
func (p DeviceProfile) Cells() int { return p.SRAMBytes * 8 }

// NominalScenario returns the profile's reference operating condition —
// the point at which its kinetics and noise model are calibrated.
// Applying it to the profile is the identity: AccelerationFactor and
// NoiseScale are both exactly 1.
func (p DeviceProfile) NominalScenario() aging.Scenario {
	return aging.Scenario{Name: "nominal", TempC: p.NominalTempC, Voltage: p.OperatingVoltage}
}

// At returns a copy of the profile operating under the given scenario:
// the kinetics run at the scenario's temperature and voltage (Arrhenius +
// voltage-exponent acceleration relative to the calibrated reference).
// The profile's nominal scenario leaves it unchanged.
func (p DeviceProfile) At(s aging.Scenario) (DeviceProfile, error) {
	if err := s.Validate(); err != nil {
		return DeviceProfile{}, err
	}
	p.Kinetics = p.Kinetics.WithScenario(s)
	return p, p.Validate()
}

// ReadWindowBits returns the number of bits read out per power-up.
func (p DeviceProfile) ReadWindowBits() int { return p.ReadWindowBytes * 8 }

// Spread constants, derived from the AVG-to-WC gaps of Table I.
//
// For 16 devices E[max of 16 iid normals] ~ 1.766 sigma (the integral
// of x·16·phi(x)·Phi(x)^15). The paper's WCHD gap (2.72% WC vs 2.49%
// AVG) translates into a ~5% relative sigma on the per-device mismatch
// ratio (WCHD scales ~ 1/lambda); the FHW gap (65.78% WC vs 62.70% AVG)
// into a 0.046 sigma on the per-device bias z-score
// (dFHW/dz = phi(z0) ~ 0.378 at z0 = PhiInv(0.627)).
const (
	defaultLambdaRelJitter = 0.052
	defaultBiasZJitter     = 0.046
)

// Duty cycle of the paper's measurement rig: 3.8 s powered per 5.4 s cycle.
const (
	PowerOnSeconds  = 3.8
	PowerOffSeconds = 1.6
	CycleSeconds    = PowerOnSeconds + PowerOffSeconds
)

var (
	calOnce   sync.Once
	calNom    calib.Result
	calAcc    calib.Result
	calMonths struct{ nom, acc int }
	calErr    error
)

// runCalibration solves both profiles' model parameters once per process
// (disk-cached across processes by calib.CachedCalibrate).
func runCalibration() {
	tn := calib.PaperTargets()
	calNom, calErr = calib.CachedCalibrate(tn, 1000, 16)
	if calErr != nil {
		return
	}
	calMonths.nom = tn.Months
	ta := calib.AcceleratedTargets()
	calAcc, calErr = calib.CachedCalibrate(ta, 1000, 16)
	calMonths.acc = ta.Months
}

// kineticsFromCalibration converts a calibrated total drift into a
// power-law amplitude for the given kinetics shape: A = Delta_T / t_eff^beta.
func kineticsFromCalibration(base aging.Kinetics, totalDrift float64, months int) aging.Kinetics {
	k := base
	te := k.EffectiveTime(float64(months))
	k.Amplitude = totalDrift / math.Pow(te, k.Exponent)
	return k
}

// baseNominalKinetics is the kinetics *shape* shared by both profiles:
// reaction-diffusion exponent, NBTI/PBTI split, the rig's duty factor and
// moderate BTI relaxation, with Arrhenius/voltage acceleration anchored at
// the profile's own test conditions (AF = 1 during the calibrated run).
func baseNominalKinetics(tempC, voltage float64) aging.Kinetics {
	return aging.Kinetics{
		Exponent:           0.35, // decelerating monthly change (paper §IV-D)
		NBTIShare:          0.75, // NBTI dominant, PBTI secondary (§II-B)
		DutyOn:             PowerOnSeconds / CycleSeconds,
		Recovery:           0.25,
		TempC:              tempC,
		Voltage:            voltage,
		RefTempC:           tempC,
		RefVoltage:         voltage,
		ActivationEnergyEV: 0.15,
		VoltageExponent:    3,
	}
}

// ATmega32u4 returns the calibrated profile of the paper's device: the
// SRAM of the ATmega32u4 microcontroller on an Arduino Leonardo board
// (2.5 KByte SRAM, 5 V, room temperature, first 1 KByte read out). It
// is a registry-backed wrapper: Lookup("atmega32u4") resolves the same
// profile.
func ATmega32u4() (DeviceProfile, error) { return Lookup("atmega32u4") }

func buildATmega32u4() (DeviceProfile, error) {
	calOnce.Do(runCalibration)
	if calErr != nil {
		return DeviceProfile{}, calErr
	}
	p := DeviceProfile{
		Name:             "ATmega32u4",
		Technology:       "AVR 8-bit MCU embedded SRAM",
		SRAMBytes:        2560,
		ReadWindowBytes:  1024,
		OperatingVoltage: 5.0,
		NominalTempC:     25,
		Lambda:           calNom.Lambda,
		Mu:               calNom.Mu,
		LambdaRelJitter:  defaultLambdaRelJitter,
		BiasZJitter:      defaultBiasZJitter,
		Kinetics:         kineticsFromCalibration(baseNominalKinetics(25, 5.0), calNom.TotalDrift, calMonths.nom),
		AgingDispersion:  calNom.Dispersion,
	}
	return p, p.Validate()
}

// CMOS65nmAccelerated returns the calibrated profile of the
// accelerated-aging comparator (Maes & van der Leest, HOST 2014, paper
// ref [5]): a 65 nm CMOS SRAM whose reported equivalent-time WCHD
// trajectory runs from 5.3% to 7.2% over the first two years
// (+1.28%/month). Time for this profile is *equivalent* time; the
// aging.Kinetics acceleration machinery maps it back to oven wall-clock.
// Registry-backed: Lookup("cmos65nm-accelerated") resolves the same
// profile.
func CMOS65nmAccelerated() (DeviceProfile, error) { return Lookup("cmos65nm-accelerated") }

func buildCMOS65nmAccelerated() (DeviceProfile, error) {
	calOnce.Do(runCalibration)
	if calErr != nil {
		return DeviceProfile{}, calErr
	}
	p := DeviceProfile{
		Name:             "CMOS65nm-accelerated",
		Technology:       "65 nm CMOS test chip",
		SRAMBytes:        2560, // matched geometry for like-for-like comparison
		ReadWindowBytes:  1024,
		OperatingVoltage: 1.2,
		NominalTempC:     25,
		Lambda:           calAcc.Lambda,
		Mu:               calAcc.Mu,
		LambdaRelJitter:  defaultLambdaRelJitter,
		BiasZJitter:      defaultBiasZJitter,
		Kinetics:         kineticsFromCalibration(baseNominalKinetics(25, 1.2), calAcc.TotalDrift, calMonths.acc),
		AgingDispersion:  calAcc.Dispersion,
	}
	return p, p.Validate()
}

// buildCacheArray returns a cache-line-structured large-array profile —
// the SRAM-PUF-in-large-CPUs family of Van Aubel et al.
// (arXiv:1507.08514): orders of magnitude more cells than the embedded
// parts, organised in 64-byte cache lines whose cells share a common
// mismatch component, read noisier relative to their mismatch, and
// continuously powered (no duty-cycle relaxation). The population
// mismatch is anchored to the paper's calibrated embedded model —
// slightly noisier cells (0.85·λ) with a much weaker systematic bias
// (0.25·μ, large-array peripheries are balanced by construction) — so
// the family's reliability numbers stay commensurable with Table I.
// sizeBytes ≥ MB-scale is the intended operating range. A simulated
// chip holds state only for its 1 KiB read window, so the 2 MiB and
// 64 KiB variants cost the same per device.
func buildCacheArray(name string, sizeBytes int) (DeviceProfile, error) {
	calOnce.Do(runCalibration)
	if calErr != nil {
		return DeviceProfile{}, calErr
	}
	// Continuously powered server silicon at 0.9 V / 45 °C die
	// temperature: full stress duty, weak recovery, a lower activation
	// energy and the shallower sub-0.35 power-law slope reported for
	// high-K metal-gate BTI.
	k := aging.Kinetics{
		Exponent:           0.28,
		NBTIShare:          0.6, // PBTI is a first-order effect in advanced nodes
		DutyOn:             1,
		Recovery:           0.1,
		TempC:              45,
		Voltage:            0.9,
		RefTempC:           45,
		RefVoltage:         0.9,
		ActivationEnergyEV: 0.12,
		VoltageExponent:    3,
	}
	p := DeviceProfile{
		Name:             name,
		Technology:       "server-class cache SRAM (high-K metal gate)",
		SRAMBytes:        sizeBytes,
		ReadWindowBytes:  1024, // same 1 KiB read-out as the embedded parts: fleet windows stay comparable
		OperatingVoltage: 0.9,
		NominalTempC:     45,
		Lambda:           0.85 * calNom.Lambda,
		Mu:               0.25 * calNom.Mu,
		LambdaRelJitter:  defaultLambdaRelJitter,
		BiasZJitter:      defaultBiasZJitter,
		Kinetics:         kineticsFromCalibration(k, 1.25*calNom.TotalDrift, calMonths.nom),
		AgingDispersion:  calNom.Dispersion,
		Model:            ModelCorrelated,
		LineBits:         512, // 64-byte cache line
		LineCorr:         0.35,
		NoiseRel:         1.3,
	}
	return p, p.Validate()
}

// buildFleetNode returns a small screening-node profile for
// million-device fleet campaigns: the calibrated embedded-SRAM cell
// behaviour on a deliberately tiny geometry (a 32-byte read window), so
// per-device evaluation state is a few hundred bits instead of 8K and a
// screening run over 10^5..10^6 devices is bounded by statistics, not by
// window size. correlated selects the cache-line-structured mismatch
// model so a fleet of the two variants mixes both registered models.
func buildFleetNode(name string, sizeBytes int, correlated bool) (DeviceProfile, error) {
	calOnce.Do(runCalibration)
	if calErr != nil {
		return DeviceProfile{}, calErr
	}
	p := DeviceProfile{
		Name:             name,
		Technology:       "fleet screening node (embedded SRAM)",
		SRAMBytes:        sizeBytes,
		ReadWindowBytes:  32, // shared across the family: fleetnode variants always form a fleet
		OperatingVoltage: 3.3,
		NominalTempC:     25,
		Lambda:           calNom.Lambda,
		Mu:               calNom.Mu,
		LambdaRelJitter:  defaultLambdaRelJitter,
		BiasZJitter:      defaultBiasZJitter,
		Kinetics:         kineticsFromCalibration(baseNominalKinetics(25, 3.3), calNom.TotalDrift, calMonths.nom),
		AgingDispersion:  calNom.Dispersion,
	}
	if correlated {
		p.Model = ModelCorrelated
		p.LineBits = 64
		p.LineCorr = 0.3
		p.NoiseRel = 1.15
	}
	return p, p.Validate()
}

// ProfileOption mutates a DeviceProfile under construction; see
// NewProfile.
type ProfileOption func(*DeviceProfile)

// WithTechnology sets the free-text technology description.
func WithTechnology(s string) ProfileOption { return func(p *DeviceProfile) { p.Technology = s } }

// WithGeometry sets the total SRAM size and the per-power-up read
// window, both in bytes.
func WithGeometry(sramBytes, readWindowBytes int) ProfileOption {
	return func(p *DeviceProfile) { p.SRAMBytes, p.ReadWindowBytes = sramBytes, readWindowBytes }
}

// WithOperatingPoint sets the nominal supply voltage and temperature.
func WithOperatingPoint(voltage, tempC float64) ProfileOption {
	return func(p *DeviceProfile) { p.OperatingVoltage, p.NominalTempC = voltage, tempC }
}

// WithMismatch sets the population mismatch-to-noise ratio and bias.
func WithMismatch(lambda, mu float64) ProfileOption {
	return func(p *DeviceProfile) { p.Lambda, p.Mu = lambda, mu }
}

// WithSpread sets the per-device spread parameters (relative lambda
// jitter, bias z-score jitter).
func WithSpread(lambdaRelJitter, biasZJitter float64) ProfileOption {
	return func(p *DeviceProfile) { p.LambdaRelJitter, p.BiasZJitter = lambdaRelJitter, biasZJitter }
}

// WithKinetics sets the BTI aging kinetics.
func WithKinetics(k aging.Kinetics) ProfileOption { return func(p *DeviceProfile) { p.Kinetics = k } }

// WithAgingDispersion sets the per-cell aging-rate dispersion
// coefficient.
func WithAgingDispersion(b float64) ProfileOption {
	return func(p *DeviceProfile) { p.AgingDispersion = b }
}

// WithCellModel selects a registered cell model by name ("" / ModelIID /
// ModelCorrelated / externally registered).
func WithCellModel(model string) ProfileOption { return func(p *DeviceProfile) { p.Model = model } }

// WithLineStructure sets the block-correlation parameters of the
// correlated cell model: the line size in cells and the within-line
// mismatch correlation.
func WithLineStructure(lineBits int, corr float64) ProfileOption {
	return func(p *DeviceProfile) { p.LineBits, p.LineCorr = lineBits, corr }
}

// WithNoiseRel sets the power-up noise sigma relative to the embedded
// reference.
func WithNoiseRel(rel float64) ProfileOption { return func(p *DeviceProfile) { p.NoiseRel = rel } }

// NewProfile builds a validated device profile from functional options,
// starting from the paper's rig geometry, spread constants, and the
// calibrated nominal mismatch/kinetics as defaults — a profile built
// with no options is the paper's device under a different name. It is
// the supported construction path for custom profiles: the profile is
// validated — including its cell model's own field checks — at build
// time, so an inconsistent profile fails here rather than deep inside a
// campaign. Direct struct construction still works for compatibility
// but is deprecated; see DESIGN.md ("Device models and fleets").
func NewProfile(name string, opts ...ProfileOption) (DeviceProfile, error) {
	if name == "" {
		return DeviceProfile{}, fmt.Errorf("silicon: profile needs a name")
	}
	calOnce.Do(runCalibration)
	if calErr != nil {
		return DeviceProfile{}, calErr
	}
	p := DeviceProfile{
		Name:             name,
		SRAMBytes:        2560,
		ReadWindowBytes:  1024,
		OperatingVoltage: 5.0,
		NominalTempC:     25,
		Lambda:           calNom.Lambda,
		Mu:               calNom.Mu,
		LambdaRelJitter:  defaultLambdaRelJitter,
		BiasZJitter:      defaultBiasZJitter,
		Kinetics:         kineticsFromCalibration(baseNominalKinetics(25, 5.0), calNom.TotalDrift, calMonths.nom),
		AgingDispersion:  calNom.Dispersion,
	}
	for _, opt := range opts {
		opt(&p)
	}
	return p, p.Validate()
}

// DeviceParams are the per-board instance parameters drawn around the
// profile's population values.
type DeviceParams struct {
	Lambda float64 // this board's mismatch sigma ratio
	Mu     float64 // this board's mismatch mean
}
