package aging

import (
	"math"
	"testing"
	"testing/quick"
)

func validKinetics() Kinetics {
	return Kinetics{
		Amplitude:          0.2,
		Exponent:           0.4,
		NBTIShare:          0.75,
		DutyOn:             3.8 / 5.4,
		Recovery:           0.2,
		TempC:              25,
		Voltage:            5.0,
		RefTempC:           25,
		RefVoltage:         5.0,
		ActivationEnergyEV: 0.15,
		VoltageExponent:    3,
	}
}

func TestValidate(t *testing.T) {
	if err := validKinetics().Validate(); err != nil {
		t.Fatalf("valid kinetics rejected: %v", err)
	}
	bad := []func(*Kinetics){
		func(k *Kinetics) { k.Amplitude = -1 },
		func(k *Kinetics) { k.Exponent = 0 },
		func(k *Kinetics) { k.Exponent = 1.5 },
		func(k *Kinetics) { k.NBTIShare = -0.1 },
		func(k *Kinetics) { k.NBTIShare = 1.1 },
		func(k *Kinetics) { k.DutyOn = 0 },
		func(k *Kinetics) { k.DutyOn = 1.2 },
		func(k *Kinetics) { k.Recovery = -0.1 },
		func(k *Kinetics) { k.TempC = -300 },
		func(k *Kinetics) { k.Voltage = 0 },
	}
	for i, mutate := range bad {
		k := validKinetics()
		mutate(&k)
		if err := k.Validate(); err == nil {
			t.Errorf("case %d: invalid kinetics accepted", i)
		}
	}
}

func TestAccelerationFactorReference(t *testing.T) {
	k := validKinetics()
	if af := k.AccelerationFactor(); math.Abs(af-1) > 1e-12 {
		t.Fatalf("AF at reference conditions = %v, want 1", af)
	}
}

// TestScenarioGoldenFactors pins every predefined scenario's acceleration
// factor and noise scale, applied to the reference kinetics shape
// (Ea = 0.15 eV, γ = 3, calibrated at 25 °C / 5 V), to golden values:
// AF = exp(Ea/kB·(1/298.15 − 1/T))·(V/5)³ and NS = sqrt(T/298.15)·(5/V)
// evaluated analytically. The pure-voltage corners are exact cubes.
func TestScenarioGoldenFactors(t *testing.T) {
	cases := []struct {
		scenario Scenario
		af       float64
		noise    float64
	}{
		{NominalRoomTemp, 1, 1},
		{AcceleratedHighTemp, 5.76772553169, 1.05054163262},
		{ColdCorner, 0.196390203571, 0.884301380608},
		{HotCorner, 2.65931828064, 1.0960113987},
		{LowVoltage, 0.729, 1.11111111111},
		{HighVoltage, 1.331, 0.909090909091},
		{HotHighVoltage, 3.53955263153, 0.996373998818},
	}
	for _, tc := range cases {
		t.Run(tc.scenario.Name, func(t *testing.T) {
			if err := tc.scenario.Validate(); err != nil {
				t.Fatalf("predefined scenario invalid: %v", err)
			}
			k := validKinetics().WithScenario(tc.scenario)
			if err := k.Validate(); err != nil {
				t.Fatalf("kinetics under scenario invalid: %v", err)
			}
			if af := k.AccelerationFactor(); math.Abs(af-tc.af) > 1e-9*tc.af {
				t.Errorf("AccelerationFactor = %.12g, want %.12g", af, tc.af)
			}
			if ns := k.NoiseScale(); math.Abs(ns-tc.noise) > 1e-9*tc.noise {
				t.Errorf("NoiseScale = %.12g, want %.12g", ns, tc.noise)
			}
		})
	}
	// The nominal point is the exact identity, not just within tolerance.
	nom := validKinetics().WithScenario(NominalRoomTemp)
	if nom.AccelerationFactor() != 1 || nom.NoiseScale() != 1 {
		t.Errorf("nominal point AF/NS = %v/%v, want exactly 1/1",
			nom.AccelerationFactor(), nom.NoiseScale())
	}
}

// TestScenarioValidate: conditions are external input on the sweep
// surface; non-physical ones must be rejected.
func TestScenarioValidate(t *testing.T) {
	bad := []Scenario{
		{Name: "below-zero-kelvin", TempC: -273.15, Voltage: 5},
		{Name: "frozen", TempC: -300, Voltage: 5},
		{Name: "unpowered", TempC: 25, Voltage: 0},
		{Name: "negative-volt", TempC: 25, Voltage: -1},
	}
	for _, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("scenario %q accepted", sc.Name)
		}
	}
	if err := Condition(85, 5.5).Validate(); err != nil {
		t.Errorf("valid condition rejected: %v", err)
	}
	if name := Condition(85, 5.5).Name; name != "85C-5.5V" {
		t.Errorf("condition name = %q, want 85C-5.5V", name)
	}
}

func TestAccelerationFactorIncreasesWithStress(t *testing.T) {
	k := validKinetics()
	hot := k.WithScenario(AcceleratedHighTemp)
	if hot.AccelerationFactor() <= 1.5 {
		t.Fatalf("accelerated AF = %v, expected well above 1", hot.AccelerationFactor())
	}
	cold := k
	cold.TempC = -10
	if cold.AccelerationFactor() >= 1 {
		t.Fatalf("cold AF = %v, expected below 1", cold.AccelerationFactor())
	}
	overV := k
	overV.Voltage = 5.5
	if af := overV.AccelerationFactor(); math.Abs(af-math.Pow(1.1, 3)) > 1e-9 {
		t.Fatalf("voltage-only AF = %v, want 1.1^3", af)
	}
}

func TestEffectiveTime(t *testing.T) {
	k := validKinetics()
	if te := k.EffectiveTime(0); te != 0 {
		t.Fatalf("EffectiveTime(0) = %v", te)
	}
	if te := k.EffectiveTime(-5); te != 0 {
		t.Fatalf("EffectiveTime(-5) = %v", te)
	}
	// With duty d and recovery r: stress fraction = d(1 - r(1-d)).
	d, r := 3.8/5.4, 0.2
	want := 10 * d * (1 - r*(1-d))
	if te := k.EffectiveTime(10); math.Abs(te-want) > 1e-12 {
		t.Fatalf("EffectiveTime(10) = %v, want %v", te, want)
	}
	// No recovery, full duty: effective time = wall time.
	k2 := k
	k2.DutyOn, k2.Recovery = 1, 0
	if te := k2.EffectiveTime(7); math.Abs(te-7) > 1e-12 {
		t.Fatalf("full-duty EffectiveTime(7) = %v", te)
	}
}

func TestCumulativeDriftPowerLaw(t *testing.T) {
	k := validKinetics()
	k.DutyOn, k.Recovery = 1, 0
	d1 := k.CumulativeDrift(1)
	d16 := k.CumulativeDrift(16)
	// With beta = 0.4: Δ(16)/Δ(1) = 16^0.4.
	want := math.Pow(16, 0.4)
	if math.Abs(d16/d1-want) > 1e-9 {
		t.Fatalf("drift ratio = %v, want %v", d16/d1, want)
	}
	if k.CumulativeDrift(0) != 0 {
		t.Fatal("drift at t=0 not zero")
	}
}

func TestDriftMonotoneAndDecelerating(t *testing.T) {
	k := validKinetics()
	prev := 0.0
	prevInc := math.Inf(1)
	for m := 1; m <= 24; m++ {
		d := k.CumulativeDrift(float64(m))
		if d <= prev {
			t.Fatalf("drift not increasing at month %d", m)
		}
		inc := d - prev
		if inc >= prevInc {
			t.Fatalf("monthly increment not decreasing at month %d (%v >= %v) — paper requires decelerating aging", m, inc, prevInc)
		}
		prev, prevInc = d, inc
	}
}

func TestDriftIncrementAdditive(t *testing.T) {
	k := validKinetics()
	f := func(rawA, rawB float64) bool {
		a := math.Abs(math.Mod(rawA, 24))
		b := math.Abs(math.Mod(rawB, 24))
		if a > b {
			a, b = b, a
		}
		whole := k.DriftIncrement(0, b)
		split := k.DriftIncrement(0, a) + k.DriftIncrement(a, b)
		return math.Abs(whole-split) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Reversed arguments negate.
	if k.DriftIncrement(5, 2) != -k.DriftIncrement(2, 5) {
		t.Fatal("DriftIncrement not antisymmetric")
	}
}

// TestMonthlyRateDecreases: the drift of one month is larger at the
// start of the test than later on — the paper's observation.
func TestMonthlyRateDecreases(t *testing.T) {
	k := validKinetics()
	r1 := k.DriftIncrement(0, 1)
	r12 := k.DriftIncrement(11, 12)
	r24 := k.DriftIncrement(23, 24)
	if !(r1 > r12 && r12 > r24 && r24 > 0) {
		t.Fatalf("monthly drift not decreasing: %v, %v, %v", r1, r12, r24)
	}
}

func TestOccupancyDrift(t *testing.T) {
	// Fully-skewed-to-1 cell drifts negative; fully-skewed-to-0 positive;
	// balanced cell does not drift.
	if d := occupancyDrift(1, 0.5); d != -0.5 {
		t.Fatalf("q=1: drift = %v, want -0.5", d)
	}
	if d := occupancyDrift(0, 0.5); d != 0.5 {
		t.Fatalf("q=0: drift = %v, want +0.5", d)
	}
	if d := occupancyDrift(0.5, 0.5); d != 0 {
		t.Fatalf("q=0.5: drift = %v, want 0", d)
	}
}

func TestOccupancyDriftEquilibriumSeeking(t *testing.T) {
	// The drift always points toward q = 1/2: sign(drift) == -sign(2q-1).
	f := func(rawQ, rawD float64) bool {
		q := math.Abs(math.Mod(rawQ, 1))
		d := math.Abs(math.Mod(rawD, 1))
		drift := occupancyDrift(q, d)
		if q > 0.5 {
			return drift <= 0
		}
		if q < 0.5 {
			return drift >= 0
		}
		return drift == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestResolveConsistentWithOccupancyDrift(t *testing.T) {
	k := validKinetics()
	f := func(rawQ, rawD float64) bool {
		q := math.Abs(math.Mod(rawQ, 1))
		d := math.Abs(math.Mod(rawD, 0.5))
		ti := k.Resolve(q, d)
		want := occupancyDrift(q, d)
		return math.Abs(skewDelta(ti)-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestResolveAllIncrementsNonNegative(t *testing.T) {
	// Vth shifts are physically one-directional (threshold increases).
	k := validKinetics()
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		ti := k.Resolve(q, 0.3)
		if ti.P1 < 0 || ti.P2 < 0 || ti.N1 < 0 || ti.N2 < 0 {
			t.Fatalf("q=%v: negative Vth increment: %+v", q, ti)
		}
	}
}

func TestResolveShares(t *testing.T) {
	k := validKinetics()
	ti := k.Resolve(0, 1) // all stress on state 0 pair
	if math.Abs(ti.P2-k.NBTIShare) > 1e-12 {
		t.Fatalf("P2 increment = %v, want NBTI share %v", ti.P2, k.NBTIShare)
	}
	if math.Abs(ti.N1-k.PBTIShare()) > 1e-12 {
		t.Fatalf("N1 increment = %v, want PBTI share %v", ti.N1, k.PBTIShare())
	}
	if ti.P1 != 0 || ti.N2 != 0 {
		t.Fatalf("state-1 pair stressed at q=0: %+v", ti)
	}
}

func TestWithScenario(t *testing.T) {
	k := validKinetics()
	hot := k.WithScenario(AcceleratedHighTemp)
	if hot.TempC != 125 || hot.Voltage != 5.5 {
		t.Fatalf("WithScenario: %+v", hot)
	}
	// Original unchanged.
	if k.TempC != 25 {
		t.Fatal("WithScenario mutated receiver")
	}
}

func TestAcceleratedDriftFasterInWallClock(t *testing.T) {
	k := validKinetics()
	hot := k.WithScenario(AcceleratedHighTemp)
	if hot.CumulativeDrift(1) <= k.CumulativeDrift(1) {
		t.Fatal("accelerated conditions should age faster per wall-clock month")
	}
}

func BenchmarkCumulativeDrift(b *testing.B) {
	k := validKinetics()
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = k.CumulativeDrift(float64(i%25) + 0.5)
	}
	_ = sink
}

// occupancyDrift returns the signed skew drift applied to a cell whose
// one-probability (occupancy of state 1) is q, for a full-imbalance drift
// increment dDelta. Cells preferring state 1 (q > 1/2) drift negative
// (toward metastability); cells preferring state 0 drift positive.
func occupancyDrift(q, dDelta float64) float64 {
	return -dDelta * (2*q - 1)
}

// skewDelta returns the net signed skew change implied by the increments
// under the sign convention documented on TransistorIncrements.
func skewDelta(ti TransistorIncrements) float64 {
	return (ti.P2 - ti.P1) + (ti.N1 - ti.N2)
}
