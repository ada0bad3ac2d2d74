package sram

import (
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
	if scaled.NoiseScale() != 1 {
		t.Fatalf("NoiseScale = %v, want 1", scaled.NoiseScale())
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
		p0, p1 := plain.OneProbability(i), hot.OneProbability(i)
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
	if a.Cells() != a.Profile().ReadWindowBits() {
		t.Fatalf("Cells = %d, want the %d-bit read window", a.Cells(), a.Profile().ReadWindowBits())
	}
	if a.Profile().Cells() != 20480 {
		t.Fatalf("Profile().Cells() = %d, want 20480 (2.5 KByte)", a.Profile().Cells())
	}
	if a.AgeMonths() != 0 {
		t.Fatalf("new array age = %v", a.AgeMonths())
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
	if err := a.PowerUp(dst); err != nil {
		t.Fatal(err)
	}
	fhw := dst.FractionalHammingWeight()
	if math.Abs(fhw-0.627) > 0.03 {
		t.Fatalf("PowerUp FHW = %v, want ~0.627", fhw)
	}
	// Size mismatch must be rejected.
	if err := a.PowerUp(bitvec.New(10)); err == nil {
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
	startFHW := a.ExpectedFHW()
	if err := a.AgeTo(24); err != nil {
		t.Fatal(err)
	}
	endFHW := a.ExpectedFHW()
	if math.Abs(endFHW-startFHW) > 0.005 {
		t.Fatalf("FHW moved %v -> %v; paper reports negligible change", startFHW, endFHW)
	}
}

func TestAgeToReducesStableCells(t *testing.T) {
	a := testArray(t, 8)
	start := a.StableCellCount(1000, 0.5)
	if err := a.AgeTo(24); err != nil {
		t.Fatal(err)
	}
	end := a.StableCellCount(1000, 0.5)
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
		ti := a.TransistorShifts(i)
		if ti.P1 < 0 || ti.P2 < 0 || ti.N1 < 0 || ti.N2 < 0 {
			t.Fatalf("cell %d: negative Vth shift %+v", i, ti)
		}
		// The transistor pair of the preferred state must be stressed more.
		if a.OneProbability(i) > 0.99 && ti.P1 <= ti.P2 && ti.P1 != 0 {
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
		if err := a.PowerUpFullNoise(dst, 1.0); err != nil {
			t.Fatal(err)
		}
		sum += dst.FractionalHammingWeight()
	}
	fhw := sum / n
	if math.Abs(fhw-0.627) > 0.03 {
		t.Fatalf("full-noise FHW = %v, want ~0.627", fhw)
	}
	if err := a.PowerUpFullNoise(dst, 0); err == nil {
		t.Fatal("zero noise sigma accepted")
	}
	if err := a.PowerUpFullNoise(bitvec.New(3), 1); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestSnapshotRestore(t *testing.T) {
	a := testArray(t, 13)
	snap := a.Snapshot()
	if err := a.AgeTo(24); err != nil {
		t.Fatal(err)
	}
	agedSkew := a.Skew(100)
	if err := a.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if a.AgeMonths() != 0 {
		t.Fatalf("restored age = %v", a.AgeMonths())
	}
	if a.Skew(100) == agedSkew {
		t.Fatal("restore did not revert aging state")
	}
	// Restore of a mismatched snapshot must fail.
	bad := snap
	bad.DP1 = bad.DP1[:10]
	if err := a.Restore(bad); err == nil {
		t.Fatal("mismatched snapshot accepted")
	}
}

func TestOneProbabilityBounds(t *testing.T) {
	a := testArray(t, 14)
	for i := 0; i < a.Cells(); i += 97 {
		p := a.OneProbability(i)
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
