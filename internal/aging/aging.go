// Package aging models Bias Temperature Instability (BTI) degradation of
// SRAM cells — the silicon aging mechanism the paper identifies as dominant
// (§II-B).
//
// Physical picture (paper §II-B): while a cell stores a value, the PMOS
// transistor that is switched on suffers NBTI (threshold-voltage increase);
// with high-k gate dielectrics the switched-on NMOS additionally suffers
// PBTI. Both effects weaken the transistor pair holding the current state,
// so the cell's power-up skew drifts *toward* metastability at a rate
// proportional to the occupancy imbalance (2q-1), where q is the fraction
// of time the cell holds state 1. A fully-skewed cell therefore degrades
// fastest; a balanced cell does not drift at all; a cell that crosses over
// reverses its own drift — reproducing the non-monotonic |ΔVth| trajectory
// the paper discusses in §IV-D.
//
// Kinetics: BTI threshold shift follows a saturating power law
// ΔVth(t) = A·t_eff^β with β ≈ 0.1–0.3 (reaction–diffusion theory); this
// package uses the cumulative-drift form with an effective stress time that
// accounts for the power-cycle duty factor, partial recovery during
// power-off, and temperature/voltage acceleration (Arrhenius + power-law
// voltage dependence). The acceleration machinery is what lets the same
// model express both the paper's nominal-condition test (AF = 1) and the
// accelerated-aging comparator of Maes & van der Leest (HOST 2014, ref [5]).
package aging

import (
	"errors"
	"fmt"
	"math"
)

// BoltzmannEV is the Boltzmann constant in eV/K.
const BoltzmannEV = 8.617333262e-5

// Kinetics captures the BTI drift law of one device population under one
// set of environmental conditions. Drift amplitudes are expressed in units
// of the cell power-up noise sigma (the natural unit of the probabilistic
// SRAM PUF model), per effective-month^Exponent.
type Kinetics struct {
	// Amplitude A of the cumulative skew drift Δ(t) = A·t_eff^Exponent,
	// in noise-sigma units, calibrated at reference conditions.
	Amplitude float64

	// Exponent is the BTI power-law time exponent β (0 < β <= 1).
	// Reaction–diffusion NBTI theory gives β ≈ 1/6–1/4; the paper's
	// observation that monthly change decelerates after the first year
	// is reproduced by any β < 1.
	Exponent float64

	// NBTIShare is the fraction of the total skew drift contributed by
	// the PMOS (NBTI) mechanism; the remainder (PBTIShare) is carried by
	// the NMOS (PBTI) mechanism. Must be in [0,1].
	NBTIShare float64

	// DutyOn is the fraction of wall-clock time the device is powered
	// (3.8 s on / 5.4 s cycle = 0.704 in the paper's rig).
	DutyOn float64

	// Recovery is the fraction of accumulated stress healed per unit of
	// power-off time relative to stress time (BTI relaxation). 0 = no
	// recovery, 1 = complete recovery during any off period.
	Recovery float64

	// Environmental conditions of the test.
	TempC   float64
	Voltage float64

	// Reference conditions at which Amplitude is calibrated.
	RefTempC   float64
	RefVoltage float64

	// ActivationEnergyEV is the Arrhenius activation energy Ea of the
	// BTI mechanism (typically 0.1–0.2 eV for the Vth shift).
	ActivationEnergyEV float64

	// VoltageExponent is the exponent γ of the (V/Vref)^γ voltage
	// acceleration law.
	VoltageExponent float64
}

// Validate checks the kinetics parameters for physical plausibility.
func (k Kinetics) Validate() error {
	switch {
	case k.Amplitude < 0:
		return errors.New("aging: negative amplitude")
	case k.Exponent <= 0 || k.Exponent > 1:
		return fmt.Errorf("aging: exponent %v outside (0,1]", k.Exponent)
	case k.NBTIShare < 0 || k.NBTIShare > 1:
		return fmt.Errorf("aging: NBTI share %v outside [0,1]", k.NBTIShare)
	case k.DutyOn <= 0 || k.DutyOn > 1:
		return fmt.Errorf("aging: duty factor %v outside (0,1]", k.DutyOn)
	case k.Recovery < 0 || k.Recovery > 1:
		return fmt.Errorf("aging: recovery %v outside [0,1]", k.Recovery)
	case k.TempC <= -273.15 || k.RefTempC <= -273.15:
		return errors.New("aging: temperature below absolute zero")
	case k.Voltage <= 0 || k.RefVoltage <= 0:
		return errors.New("aging: non-positive voltage")
	}
	return nil
}

// PBTIShare returns the PBTI fraction of the skew drift.
func (k Kinetics) PBTIShare() float64 { return 1 - k.NBTIShare }

// AccelerationFactor returns the multiplicative speed-up of BTI stress at
// the kinetics' conditions relative to its reference conditions:
// AF = exp(Ea/kB · (1/Tref − 1/T)) · (V/Vref)^γ.
// At reference conditions AF = 1.
func (k Kinetics) AccelerationFactor() float64 {
	tRef := k.RefTempC + 273.15
	t := k.TempC + 273.15
	arrhenius := math.Exp(k.ActivationEnergyEV / BoltzmannEV * (1/tRef - 1/t))
	voltage := math.Pow(k.Voltage/k.RefVoltage, k.VoltageExponent)
	return arrhenius * voltage
}

// EffectiveTime converts wall-clock months into effective BTI stress
// months, accounting for the power-on duty factor, relaxation during the
// power-off fraction, and temperature/voltage acceleration.
func (k Kinetics) EffectiveTime(months float64) float64 {
	if months <= 0 {
		return 0
	}
	stressFraction := k.DutyOn * (1 - k.Recovery*(1-k.DutyOn))
	return months * stressFraction * k.AccelerationFactor()
}

// CumulativeDrift returns the total skew drift magnitude Δ(t) accumulated
// after the given number of wall-clock months for a cell with full
// occupancy imbalance (|2q−1| = 1), in noise-sigma units.
func (k Kinetics) CumulativeDrift(months float64) float64 {
	te := k.EffectiveTime(months)
	if te <= 0 {
		return 0
	}
	return k.Amplitude * math.Pow(te, k.Exponent)
}

// DriftIncrement returns Δ(t2) − Δ(t1), the additional full-imbalance
// drift accumulated between wall-clock months t1 and t2 (t2 >= t1 >= 0).
func (k Kinetics) DriftIncrement(t1, t2 float64) float64 {
	if t2 < t1 {
		return -k.DriftIncrement(t2, t1)
	}
	return k.CumulativeDrift(t2) - k.CumulativeDrift(t1)
}

// TransistorIncrements resolves one drift increment into the four
// per-transistor threshold-voltage increments of the 6T cell core, in skew
// units (i.e. already weighted by the skew sensitivity of each transistor).
//
// Convention: positive skew prefers power-up state 1. Holding state 0
// stresses P2 (NBTI) and N1 (PBTI), both of which push the skew positive;
// holding state 1 stresses P1 and N2, pushing it negative. q is the
// occupancy of state 1.
type TransistorIncrements struct {
	P1, P2, N1, N2 float64
}

// Split divides a full-imbalance drift increment dDelta between the two
// mechanisms: nbti = dDelta·NBTIShare goes to the PMOS pair, pbti =
// dDelta·PBTIShare to the NMOS pair. Resolve weights each by the cell's
// occupancy; a per-cell loop with one dDelta for every cell calls Split
// once and applies the same products itself.
func (k Kinetics) Split(dDelta float64) (nbti, pbti float64) {
	return dDelta * k.NBTIShare, dDelta * k.PBTIShare()
}

// Resolve splits a full-imbalance drift increment dDelta for a cell with
// occupancy q into per-transistor contributions. Their signed sum,
// (P2−P1) + (N1−N2), is −dDelta·(2q−1): cells preferring state 1 drift
// toward metastability from above, cells preferring state 0 from below.
func (k Kinetics) Resolve(q, dDelta float64) TransistorIncrements {
	nbti, pbti := k.Split(dDelta)
	return TransistorIncrements{
		// State 0 occupancy (1-q) stresses P2/N1 (skew-positive).
		P2: nbti * (1 - q),
		N1: pbti * (1 - q),
		// State 1 occupancy q stresses P1/N2 (skew-negative).
		P1: nbti * q,
		N2: pbti * q,
	}
}

// Scenario bundles a named environmental condition set.
type Scenario struct {
	Name    string
	TempC   float64
	Voltage float64
}

// Validate checks the scenario for physical plausibility. Conditions are
// external input on the sweep surface, so the checks mirror the kinetics
// environment checks exactly.
func (s Scenario) Validate() error {
	switch {
	case s.TempC <= -273.15:
		return fmt.Errorf("aging: scenario %q: temperature %v C below absolute zero", s.Name, s.TempC)
	case s.Voltage <= 0:
		return fmt.Errorf("aging: scenario %q: non-positive voltage %v", s.Name, s.Voltage)
	}
	return nil
}

// Condition returns an ad-hoc scenario named after its grid coordinates
// ("85C-5.5V") — the condition-sweep grid's point constructor.
func Condition(tempC, voltage float64) Scenario {
	return Scenario{Name: fmt.Sprintf("%gC-%gV", tempC, voltage), TempC: tempC, Voltage: voltage}
}

// Standard scenarios.
var (
	// NominalRoomTemp matches the paper's two-year test: room temperature,
	// nominal 5 V ATmega32u4 supply.
	NominalRoomTemp = Scenario{Name: "nominal-room-temp", TempC: 25, Voltage: 5.0}

	// AcceleratedHighTemp approximates the stress condition of an
	// accelerated aging test in the style of Maes & van der Leest
	// (HOST 2014, ref [5]): elevated temperature and +10% overvoltage.
	AcceleratedHighTemp = Scenario{Name: "accelerated-high-temp", TempC: 125, Voltage: 5.5}

	// Sweep corners: the screening grid of a pre-deployment condition
	// sweep ("PUF for the Commons" style operating-corner screening)
	// around the ATmega32u4's 5 V nominal point. Industrial temperature
	// range, ±10% supply.
	ColdCorner     = Scenario{Name: "cold-corner", TempC: -40, Voltage: 5.0}
	HotCorner      = Scenario{Name: "hot-corner", TempC: 85, Voltage: 5.0}
	LowVoltage     = Scenario{Name: "low-voltage", TempC: 25, Voltage: 4.5}
	HighVoltage    = Scenario{Name: "high-voltage", TempC: 25, Voltage: 5.5}
	HotHighVoltage = Scenario{Name: "hot-high-voltage", TempC: 85, Voltage: 5.5}
)

// WithScenario returns a copy of k operating under the given scenario.
func (k Kinetics) WithScenario(s Scenario) Kinetics {
	k.TempC = s.TempC
	k.Voltage = s.Voltage
	return k
}

// NoiseScale returns the power-up noise sigma at the kinetics' conditions
// relative to its reference conditions. The model combines the two
// first-order effects of the operating point on the power-up decision:
// thermal (Johnson–Nyquist) noise voltage grows with sqrt(T_K), while the
// mismatch-induced skew voltage that the noise competes against scales
// roughly with the supply overdrive (∝ V). In the simulator's
// skew-per-noise-sigma units the effective noise scale is therefore
// sqrt(T/Tref) · (Vref/V): hotter or starved cells are noisier (more
// flips, higher noise entropy), cold or overdriven cells are quieter. At
// reference conditions the scale is exactly 1.
func (k Kinetics) NoiseScale() float64 {
	t := k.TempC + 273.15
	tRef := k.RefTempC + 273.15
	return math.Sqrt(t/tRef) * (k.RefVoltage / k.Voltage)
}
