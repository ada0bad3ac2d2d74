package sram

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
	"repro/internal/silicon"
)

func testArray(t *testing.T, seed uint64) *Array {
	t.Helper()
	p, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSetNoiseScale: scale 1 is the exact identity (same probabilities,
// same sampled bits), larger scales pull every cell toward metastability,
// and non-physical scales are rejected.
func TestSetNoiseScale(t *testing.T) {
	plain := testArray(t, 7)
	scaled := testArray(t, 7)
	if err := scaled.SetNoiseScale(1); err != nil {
		t.Fatal(err)
	}
	if scaled.noiseScale != 1 {
		t.Fatalf("NoiseScale = %v, want 1", scaled.noiseScale)
	}
	w1, err := plain.PowerUpWindow()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := scaled.PowerUpWindow()
	if err != nil {
		t.Fatal(err)
	}
	if !w1.Equal(w2) {
		t.Fatal("noise scale 1 changed the sampled pattern")
	}

	hot := testArray(t, 7)
	if err := hot.SetNoiseScale(1.1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hot.Cells(); i += 97 {
		p0, p1 := oneProbability(plain.Skew(i), plain.noiseScale), oneProbability(hot.Skew(i), hot.noiseScale)
		if math.Abs(p1-0.5) > math.Abs(p0-0.5)+1e-15 {
			t.Fatalf("cell %d: scale 1.1 moved p from %v to %v, away from 0.5", i, p0, p1)
		}
	}

	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := plain.SetNoiseScale(bad); err == nil {
			t.Errorf("noise scale %v accepted", bad)
		}
	}
}

func TestNewArrayGeometry(t *testing.T) {
	a := testArray(t, 1)
	if a.Cells() != a.profile.ReadWindowBits() {
		t.Fatalf("Cells = %d, want the %d-bit read window", a.Cells(), a.profile.ReadWindowBits())
	}
	if a.profile.Cells() != 20480 {
		t.Fatalf("Profile().Cells() = %d, want 20480 (2.5 KByte)", a.profile.Cells())
	}
	if a.ageMonths != 0 {
		t.Fatalf("new array age = %v", a.ageMonths)
	}
	if a.PowerUps() != 0 {
		t.Fatalf("new array power-ups = %d", a.PowerUps())
	}
}

func TestNewArrayRejectsBadProfile(t *testing.T) {
	p, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	p.SRAMBytes = 0
	if _, err := New(p, rng.New(1)); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestDeterministicChip(t *testing.T) {
	a := testArray(t, 42)
	b := testArray(t, 42)
	w1, err := a.PowerUpWindow()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := b.PowerUpWindow()
	if err != nil {
		t.Fatal(err)
	}
	if !w1.Equal(w2) {
		t.Fatal("same seed produced different power-up patterns")
	}
}

func TestDistinctChips(t *testing.T) {
	a := testArray(t, 1)
	b := testArray(t, 2)
	w1, _ := a.PowerUpWindow()
	w2, _ := b.PowerUpWindow()
	fhd, err := w1.FractionalHammingDistance(w2)
	if err != nil {
		t.Fatal(err)
	}
	// Between-class distance should be in the BCHD band (~40-50%).
	if fhd < 0.38 || fhd < 0.0 || fhd > 0.55 {
		t.Fatalf("between-chip FHD = %v, want ~0.468", fhd)
	}
}

func TestPowerUpWindowSize(t *testing.T) {
	a := testArray(t, 3)
	w, err := a.PowerUpWindow()
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 8192 {
		t.Fatalf("window = %d bits, want 8192 (1 KByte)", w.Len())
	}
	if a.PowerUps() != 1 {
		t.Fatalf("PowerUps = %d after one read", a.PowerUps())
	}
}

func TestPowerUpFullArray(t *testing.T) {
	a := testArray(t, 4)
	dst := bitvec.New(a.Cells())
	if err := a.PowerUpWindowInto(dst); err != nil {
		t.Fatal(err)
	}
	fhw := dst.FractionalHammingWeight()
	if math.Abs(fhw-0.627) > 0.03 {
		t.Fatalf("PowerUp FHW = %v, want ~0.627", fhw)
	}
	// Size mismatch must be rejected.
	if err := a.PowerUpWindowInto(bitvec.New(10)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestStartupStatisticsMatchPaper(t *testing.T) {
	// One chip, 200 power-ups: FHW ~ 62.7%, WCHD vs first readout ~ 2.5%.
	a := testArray(t, 5)
	ref, err := a.PowerUpWindow()
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	sumFHD, sumFHW := 0.0, ref.FractionalHammingWeight()
	for i := 0; i < n; i++ {
		w, err := a.PowerUpWindow()
		if err != nil {
			t.Fatal(err)
		}
		fhd, err := w.FractionalHammingDistance(ref)
		if err != nil {
			t.Fatal(err)
		}
		sumFHD += fhd
		sumFHW += w.FractionalHammingWeight()
	}
	wchd := sumFHD / n
	fhw := sumFHW / (n + 1)
	// Per-device WCHD varies with the sampled lambda; accept the Fig. 5 band.
	if wchd < 0.015 || wchd > 0.04 {
		t.Errorf("WCHD = %v, want within paper band [0.015, 0.04]", wchd)
	}
	if fhw < 0.57 || fhw > 0.70 {
		t.Errorf("FHW = %v, want within paper band [0.57, 0.70]", fhw)
	}
}

func TestAgeToIncreasesWCHDAgainstReference(t *testing.T) {
	a := testArray(t, 6)
	ref, _ := a.PowerUpWindow()
	wchdAt := func() float64 {
		s := 0.0
		const n = 60
		for i := 0; i < n; i++ {
			w, _ := a.PowerUpWindow()
			f, _ := w.FractionalHammingDistance(ref)
			s += f
		}
		return s / n
	}
	start := wchdAt()
	if err := a.AgeTo(24); err != nil {
		t.Fatal(err)
	}
	end := wchdAt()
	if end <= start {
		t.Fatalf("aging did not increase WCHD: %v -> %v", start, end)
	}
	rel := (end - start) / start
	if rel < 0.05 || rel > 0.50 {
		t.Errorf("WCHD relative change = %v, paper +0.193", rel)
	}
}

func TestAgeToPreservesFHW(t *testing.T) {
	a := testArray(t, 7)
	startFHW := expectedFHW(a)
	if err := a.AgeTo(24); err != nil {
		t.Fatal(err)
	}
	endFHW := expectedFHW(a)
	if math.Abs(endFHW-startFHW) > 0.005 {
		t.Fatalf("FHW moved %v -> %v; paper reports negligible change", startFHW, endFHW)
	}
}

func TestAgeToReducesStableCells(t *testing.T) {
	a := testArray(t, 8)
	start := stableCellCount(a, 1000, 0.5)
	if err := a.AgeTo(24); err != nil {
		t.Fatal(err)
	}
	end := stableCellCount(a, 1000, 0.5)
	if end >= start {
		t.Fatalf("stable cells did not decrease: %d -> %d", start, end)
	}
	rel := float64(end-start) / float64(start)
	if rel < -0.08 || rel > -0.002 {
		t.Errorf("stable-cell relative change = %v, paper -0.0249", rel)
	}
}

func TestAgeToMonotonicityGuard(t *testing.T) {
	a := testArray(t, 9)
	if err := a.AgeTo(10); err != nil {
		t.Fatal(err)
	}
	if err := a.AgeTo(5); err == nil {
		t.Fatal("rejuvenation accepted")
	}
	if err := a.AgeTo(10); err != nil {
		t.Fatalf("no-op AgeTo failed: %v", err)
	}
}

func TestAgeToIncremental(t *testing.T) {
	// Aging 0->24 in one go must match 0->24 in monthly steps (same
	// drift-space integration).
	a := testArray(t, 10)
	b := testArray(t, 10)
	if err := a.AgeTo(24); err != nil {
		t.Fatal(err)
	}
	for m := 1; m <= 24; m++ {
		if err := b.AgeTo(float64(m)); err != nil {
			t.Fatal(err)
		}
	}
	// One-shot and incremental integration partition the drift interval
	// differently; first-order (Euler) paths agree to O(h).
	for i := 0; i < a.Cells(); i += 997 {
		if math.Abs(a.Skew(i)-b.Skew(i)) > 5e-3 {
			t.Fatalf("cell %d: skew differs between one-shot and incremental aging: %v vs %v",
				i, a.Skew(i), b.Skew(i))
		}
	}
}

func TestTransistorShiftsPhysical(t *testing.T) {
	a := testArray(t, 11)
	if err := a.AgeTo(24); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Cells(); i += 501 {
		ti := transistorShifts(a, i)
		if ti.P1 < 0 || ti.P2 < 0 || ti.N1 < 0 || ti.N2 < 0 {
			t.Fatalf("cell %d: negative Vth shift %+v", i, ti)
		}
		// The transistor pair of the preferred state must be stressed more.
		if oneProbability(a.Skew(i), a.noiseScale) > 0.99 && ti.P1 <= ti.P2 && ti.P1 != 0 {
			t.Fatalf("cell %d prefers 1 but P1 shift %v <= P2 shift %v", i, ti.P1, ti.P2)
		}
	}
}

func TestPowerUpFullNoiseAgreesStatistically(t *testing.T) {
	a := testArray(t, 12)
	dst := bitvec.New(a.Cells())
	const n = 30
	sum := 0.0
	for i := 0; i < n; i++ {
		if err := powerUpFullNoise(a, dst, 1.0); err != nil {
			t.Fatal(err)
		}
		sum += dst.FractionalHammingWeight()
	}
	fhw := sum / n
	if math.Abs(fhw-0.627) > 0.03 {
		t.Fatalf("full-noise FHW = %v, want ~0.627", fhw)
	}
	if err := powerUpFullNoise(a, dst, 0); err == nil {
		t.Fatal("zero noise sigma accepted")
	}
	if err := powerUpFullNoise(a, bitvec.New(3), 1); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestOneProbabilityBounds(t *testing.T) {
	a := testArray(t, 14)
	for i := 0; i < a.Cells(); i += 97 {
		p := oneProbability(a.Skew(i), a.noiseScale)
		if p < 0 || p > 1 {
			t.Fatalf("cell %d: one-probability %v", i, p)
		}
	}
}

func BenchmarkPowerUpWindow(b *testing.B) {
	p, err := silicon.ATmega32u4()
	if err != nil {
		b.Fatal(err)
	}
	a, err := New(p, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.PowerUpWindow(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAgeOneMonth(b *testing.B) {
	p, err := silicon.ATmega32u4()
	if err != nil {
		b.Fatal(err)
	}
	a, err := New(p, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.AgeTo(float64(i+1) * 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// stableCellCount returns the number of cells whose one-probability is so
// extreme that a window of w power-ups is expected to show no flip, using
// the exact no-flip probability p^w + (1-p)^w >= threshold.
func stableCellCount(a *Array, w int, threshold float64) int {
	count := 0
	for i := range a.static {
		pi := oneProbability(a.Skew(i), a.noiseScale)
		noFlip := math.Pow(pi, float64(w)) + math.Pow(1-pi, float64(w))
		if noFlip >= threshold {
			count++
		}
	}
	return count
}

// expectedFHW returns the expected fractional Hamming weight of the read
// window at the current age.
func expectedFHW(a *Array) float64 {
	s := 0.0
	for i := range a.static {
		s += oneProbability(a.Skew(i), a.noiseScale)
	}
	return s / float64(a.Cells())
}

// powerUpFullNoise samples one power-up of every simulated cell with an
// explicit Gaussian noise draw per cell (skew + noise > 0): the
// physically literal path the Bernoulli thresholds stand in for.
func powerUpFullNoise(a *Array, dst *bitvec.Vector, noiseSigma float64) error {
	if dst.Len() != a.Cells() {
		return fmt.Errorf("sram: destination has %d bits, array has %d cells", dst.Len(), a.Cells())
	}
	if noiseSigma <= 0 {
		return fmt.Errorf("sram: noise sigma must be positive, got %v", noiseSigma)
	}
	for i := 0; i < a.Cells(); i++ {
		dst.Set(i, a.Skew(i)+noiseSigma*a.noise.NormFloat64() > 0)
	}
	return nil
}

// Skew returns the current total power-up skew of cell i.
func (a *Array) Skew(i int) float64 {
	if a.dP1 == nil {
		return skew(a.static[i], 0, 0, 0, 0, 0)
	}
	return skew(a.static[i], a.dP1[i], a.dP2[i], a.dN1[i], a.dN2[i], a.dDisp[i])
}

// TestPowerUpWindowsMatchesPerChip: one to four chips sampled together
// read out, round after round, exactly what each chip's twin reads out
// through PowerUpWindowInto, at different ages and noise scales, and
// count the same power-ups.
func TestPowerUpWindowsMatchesPerChip(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	chip := func(i int) *Array {
		a, err := New(profile, rng.New(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.AgeTo(float64(3 * i)); err != nil {
			t.Fatal(err)
		}
		if err := a.SetNoiseScale(1 + 0.1*float64(i)); err != nil {
			t.Fatal(err)
		}
		return a
	}
	for k := 1; k <= rng.Lanes; k++ {
		chips, twins := make([]*Array, k), make([]*Array, k)
		dst := make([]*bitvec.Vector, k)
		for i := range k {
			chips[i], twins[i], dst[i] = chip(i), chip(i), bitvec.New(profile.ReadWindowBits())
		}
		want := bitvec.New(profile.ReadWindowBits())
		for round := range 3 {
			if err := PowerUpWindows(chips, dst); err != nil {
				t.Fatal(err)
			}
			for i, twin := range twins {
				if err := twin.PowerUpWindowInto(want); err != nil {
					t.Fatal(err)
				}
				if !dst[i].Equal(want) {
					t.Fatalf("%d chips, round %d: chip %d read-out differs from its own PowerUpWindowInto", k, round, i)
				}
			}
		}
		for i := range chips {
			if chips[i].PowerUps() != twins[i].PowerUps() {
				t.Fatalf("%d chips: chip %d counts %d power-ups, twin %d", k, i, chips[i].PowerUps(), twins[i].PowerUps())
			}
		}
	}
}

func TestPowerUpWindowsRejectsBadGroups(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(profile, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(profile, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	w := profile.ReadWindowBits()
	five := make([]*Array, rng.Lanes+1)
	for name, call := range map[string]func() error{
		"no chips":       func() error { return PowerUpWindows(nil, nil) },
		"five chips":     func() error { return PowerUpWindows(five, make([]*bitvec.Vector, len(five))) },
		"count mismatch": func() error { return PowerUpWindows([]*Array{a, b}, []*bitvec.Vector{bitvec.New(w)}) },
		"short destination": func() error {
			return PowerUpWindows([]*Array{a, b}, []*bitvec.Vector{bitvec.New(w), bitvec.New(w - 8)})
		},
		"repeated chip": func() error {
			return PowerUpWindows([]*Array{a, a}, []*bitvec.Vector{bitvec.New(w), bitvec.New(w)})
		},
		"repeated destination": func() error {
			v := bitvec.New(w)
			return PowerUpWindows([]*Array{a, b}, []*bitvec.Vector{v, v})
		},
	} {
		if err := call(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
