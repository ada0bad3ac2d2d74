package metrics

import (
	"math"
	"testing"

	"repro/internal/bitvec"
)

func vec(bits ...int) *bitvec.Vector {
	v := bitvec.New(len(bits))
	for i, b := range bits {
		if b == 1 {
			v.Set(i, true)
		}
	}
	return v
}

func TestWithinClassHD(t *testing.T) {
	ref := vec(0, 0, 0, 0, 0, 0, 0, 0)
	ms := []*bitvec.Vector{
		vec(1, 0, 0, 0, 0, 0, 0, 0), // FHD 1/8
		vec(1, 1, 0, 0, 0, 0, 0, 0), // FHD 2/8
		vec(0, 0, 0, 0, 0, 0, 0, 0), // FHD 0
	}
	wc, err := WithinClassHD(ref, ms)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.125, 0.25, 0}
	for i, w := range want {
		if wc.PerMeasurement[i] != w {
			t.Errorf("measurement %d: FHD = %v, want %v", i, wc.PerMeasurement[i], w)
		}
	}
	if math.Abs(wc.Mean-0.125) > 1e-12 {
		t.Errorf("mean = %v, want 0.125", wc.Mean)
	}
	if wc.Max != 0.25 {
		t.Errorf("max = %v, want 0.25", wc.Max)
	}
}

func TestWithinClassHDErrors(t *testing.T) {
	ref := vec(0, 0)
	if _, err := WithinClassHD(nil, []*bitvec.Vector{ref}); err == nil {
		t.Error("nil reference accepted")
	}
	if _, err := WithinClassHD(ref, nil); err == nil {
		t.Error("empty measurement set accepted")
	}
	if _, err := WithinClassHD(ref, []*bitvec.Vector{vec(0, 0, 0)}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestBetweenClassHD(t *testing.T) {
	refs := []*bitvec.Vector{
		vec(0, 0, 0, 0),
		vec(1, 1, 0, 0), // vs 0: 0.5
		vec(1, 1, 1, 1), // vs 0: 1.0, vs 1: 0.5
	}
	bc, err := BetweenClassHD(refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(bc.Pairwise) != 3 {
		t.Fatalf("pairwise count = %d, want 3", len(bc.Pairwise))
	}
	if math.Abs(bc.Mean-(0.5+1.0+0.5)/3) > 1e-12 {
		t.Errorf("mean = %v", bc.Mean)
	}
	if bc.Min != 0.5 || bc.Max != 1.0 {
		t.Errorf("min/max = %v/%v", bc.Min, bc.Max)
	}
}

func TestBetweenClassHDErrors(t *testing.T) {
	if _, err := BetweenClassHD([]*bitvec.Vector{vec(0)}); err == nil {
		t.Error("single device accepted")
	}
	if _, err := BetweenClassHD([]*bitvec.Vector{vec(0), vec(0, 0)}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestFractionalHW(t *testing.T) {
	ms := []*bitvec.Vector{
		vec(1, 1, 0, 0), // 0.5
		vec(1, 0, 0, 0), // 0.25
	}
	w, err := FractionalHW(ms)
	if err != nil {
		t.Fatal(err)
	}
	if w.PerMeasurement[0] != 0.5 || w.PerMeasurement[1] != 0.25 {
		t.Errorf("per-measurement = %v", w.PerMeasurement)
	}
	if math.Abs(w.Mean-0.375) > 1e-12 {
		t.Errorf("mean = %v", w.Mean)
	}
	if _, err := FractionalHW(nil); err == nil {
		t.Error("empty set accepted")
	}
}
