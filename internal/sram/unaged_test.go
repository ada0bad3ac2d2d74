package sram

import (
	"runtime"
	"testing"

	"repro/internal/aging"
	"repro/internal/bitvec"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// TestUnagedChipBitIdentical: a fresh chip, which holds no aging state,
// and the same chip whose zeroed aging state was allocated by Restore of
// its own Snapshot give the same thresholds and the same 50 power-ups,
// at the nominal noise scale and at the hot corner.
func TestUnagedChipBitIdentical(t *testing.T) {
	nominal, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	hot, err := nominal.At(aging.HotCorner)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []silicon.DeviceProfile{nominal, hot} {
		fresh, err := New(p, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		restored, err := New(p, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		snap := restored.Snapshot()
		if len(snap.DP1) != restored.Cells() || len(snap.DDisp) != restored.Cells() {
			t.Fatalf("unaged snapshot holds %d cells, want %d", len(snap.DP1), restored.Cells())
		}
		if err := restored.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if fresh.dP1 != nil || restored.dP1 == nil {
			t.Fatalf("aging state allocated: fresh %v, restored %v", fresh.dP1 != nil, restored.dP1 != nil)
		}
		for _, x := range []*Array{fresh, restored} {
			if err := x.SetNoiseScale(p.NoiseScale()); err != nil {
				t.Fatal(err)
			}
		}
		tf, tr := fresh.thresholds(), restored.thresholds()
		for i := range tf {
			if tf[i] != tr[i] {
				t.Fatalf("scale %v cell %d: threshold %d unaged, %d restored", p.NoiseScale(), i, tf[i], tr[i])
			}
			if fresh.Skew(i) != restored.Skew(i) || fresh.TransistorShifts(i) != restored.TransistorShifts(i) {
				t.Fatalf("scale %v cell %d: skew or shifts differ", p.NoiseScale(), i)
			}
		}
		vf, vr := bitvec.New(fresh.Cells()), bitvec.New(restored.Cells())
		for k := 0; k < 50; k++ {
			if err := fresh.PowerUp(vf); err != nil {
				t.Fatal(err)
			}
			if err := restored.PowerUp(vr); err != nil {
				t.Fatal(err)
			}
			if !vf.Equal(vr) {
				t.Fatalf("scale %v power-up %d differs", p.NoiseScale(), k)
			}
		}
	}
}

// TestNewAllocatesNoAgingState: New holds 24 bytes per cell (static
// skew, dispersion coefficient, threshold) plus a constant; the aging
// state appears with the first aging step.
func TestNewAllocatesNoAgingState(t *testing.T) {
	p, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	const slack = 4 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := New(p, rng.New(5))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(24*a.Cells()+slack)
	if got > limit {
		t.Fatalf("New of %d cells allocated %d bytes, want at most %d", a.Cells(), got, limit)
	}
	if a.dP1 != nil {
		t.Fatal("New allocated aging state")
	}
	if err := a.AgeTo(1); err != nil {
		t.Fatal(err)
	}
	if a.dP1 == nil {
		t.Fatal("AgeTo(1) left the chip without aging state")
	}
}
