package silicon

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestATmega32u4Profile(t *testing.T) {
	p, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	if p.SRAMBytes != 2560 {
		t.Errorf("SRAMBytes = %d, want 2560 (2.5 KByte per the paper)", p.SRAMBytes)
	}
	if p.ReadWindowBytes != 1024 {
		t.Errorf("ReadWindowBytes = %d, want 1024 (first 1 KByte per the paper)", p.ReadWindowBytes)
	}
	if p.Cells() != 20480 || p.ReadWindowBits() != 8192 {
		t.Errorf("Cells=%d ReadWindowBits=%d", p.Cells(), p.ReadWindowBits())
	}
	if p.OperatingVoltage != 5.0 {
		t.Errorf("OperatingVoltage = %v, want 5.0", p.OperatingVoltage)
	}
	// Calibrated parameters must be in the physically plausible band.
	if p.Lambda < 5 || p.Lambda > 100 {
		t.Errorf("Lambda = %v, implausible", p.Lambda)
	}
	if p.Mu <= 0 {
		t.Errorf("Mu = %v, must be positive (FHW > 50%%)", p.Mu)
	}
	if p.Kinetics.Amplitude <= 0 {
		t.Errorf("aging amplitude = %v, must be positive", p.Kinetics.Amplitude)
	}
}

func TestProfileDutyFactor(t *testing.T) {
	p, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	want := 3.8 / 5.4
	if math.Abs(p.Kinetics.DutyOn-want) > 1e-12 {
		t.Errorf("DutyOn = %v, want %v (3.8 s on / 5.4 s cycle)", p.Kinetics.DutyOn, want)
	}
}

func TestAcceleratedProfileAgesFaster(t *testing.T) {
	nom, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	acc, err := CMOS65nmAccelerated()
	if err != nil {
		t.Fatal(err)
	}
	// The comparator's reliability trajectory is steeper in absolute terms:
	// its 24-month drift-induced WCHD change is 1.9pp vs 0.48pp nominal.
	dNom := nom.Kinetics.CumulativeDrift(24)
	dAcc := acc.Kinetics.CumulativeDrift(24)
	if dAcc <= dNom {
		t.Errorf("accelerated 24-month drift %v <= nominal %v", dAcc, dNom)
	}
}

// TestCalibrationHitsTableIStart: the checked-in paper calibration
// predicts the Table I averages it was fitted to.
func TestCalibrationHitsTableIStart(t *testing.T) {
	res := paperCalibration
	if math.Abs(res.Start.WCHD-0.0249) > 0.0003 {
		t.Errorf("start WCHD = %v, paper 0.0249", res.Start.WCHD)
	}
	if math.Abs(res.Start.FHW-0.627) > 0.001 {
		t.Errorf("start FHW = %v, paper 0.627", res.Start.FHW)
	}
	if math.Abs(res.End.WCHD-0.0297) > 0.0005 {
		t.Errorf("end WCHD = %v, paper 0.0297", res.End.WCHD)
	}
}

// TestAcceleratedCalibration: the checked-in comparator calibration
// predicts the HOST 2014 trajectory it was fitted to.
func TestAcceleratedCalibration(t *testing.T) {
	res := acceleratedCalibration
	if math.Abs(res.Start.WCHD-0.053) > 0.0006 {
		t.Errorf("accelerated start WCHD = %v, HOST2014 0.053", res.Start.WCHD)
	}
	if math.Abs(res.End.WCHD-0.072) > 0.001 {
		t.Errorf("accelerated end WCHD = %v, HOST2014 0.072", res.End.WCHD)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	mutations := []func(*DeviceProfile){
		func(p *DeviceProfile) { p.SRAMBytes = 0 },
		func(p *DeviceProfile) { p.ReadWindowBytes = 0 },
		func(p *DeviceProfile) { p.ReadWindowBytes = p.SRAMBytes + 1 },
		func(p *DeviceProfile) { p.Lambda = 0 },
		func(p *DeviceProfile) { p.LambdaRelJitter = -0.1 },
		func(p *DeviceProfile) { p.LambdaRelJitter = 0.9 },
		func(p *DeviceProfile) { p.BiasZJitter = -1 },
		func(p *DeviceProfile) { p.AgingDispersion = -1 },
		func(p *DeviceProfile) { p.Kinetics.Exponent = 0 },
	}
	for i, mutate := range mutations {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
}

func TestSampleDeviceParamsSpread(t *testing.T) {
	p, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	model, err := p.CellModel()
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1234)
	const n = 2000
	var lambdas, fhws []float64
	for i := 0; i < n; i++ {
		d := model.SampleParams(p, src.Derive(uint64(i)))
		lambdas = append(lambdas, d.Lambda)
		fhws = append(fhws, stats.Phi(d.Mu/math.Sqrt(1+d.Lambda*d.Lambda)))
	}
	meanL, meanF := 0.0, 0.0
	for i := range lambdas {
		meanL += lambdas[i]
		meanF += fhws[i]
	}
	meanL /= n
	meanF /= n
	if math.Abs(meanL-p.Lambda)/p.Lambda > 0.01 {
		t.Errorf("mean device lambda = %v, profile %v", meanL, p.Lambda)
	}
	if math.Abs(meanF-0.627) > 0.005 {
		t.Errorf("mean device FHW = %v, want ~0.627", meanF)
	}
	// Spread: FHW sigma should be ~BiasZJitter*phi(z0) ~ 1.7pp.
	var varF float64
	for _, f := range fhws {
		varF += (f - meanF) * (f - meanF)
	}
	sdF := math.Sqrt(varF / float64(n-1))
	if sdF < 0.010 || sdF > 0.025 {
		t.Errorf("device FHW sigma = %v, want ~0.017 (Table I WC gap)", sdF)
	}
}

func TestSampleDeviceParamsDeterministic(t *testing.T) {
	p, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	model, err := p.CellModel()
	if err != nil {
		t.Fatal(err)
	}
	a := model.SampleParams(p, rng.New(7))
	b := model.SampleParams(p, rng.New(7))
	if a != b {
		t.Fatalf("same seed produced different device params: %+v vs %+v", a, b)
	}
}
