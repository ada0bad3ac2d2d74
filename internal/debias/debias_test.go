package debias

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

func biasedVector(src *rng.Source, n int, p float64) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.Set(i, src.Bernoulli(p))
	}
	return v
}

func TestIndexSelection(t *testing.T) {
	src := rng.New(4)
	ref := biasedVector(src, 8192, 0.627)
	sel, err := NewIndexSelectionMasked(ref, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.indices) != 2000 {
		t.Fatalf("output length = %d", len(sel.indices))
	}
	// Applied to the reference itself the output is perfectly balanced.
	out, err := sel.Apply(ref)
	if err != nil {
		t.Fatal(err)
	}
	if out.FractionalHammingWeight() != 0.5 {
		t.Fatalf("selection on reference has FHW %v, want exactly 0.5", out.FractionalHammingWeight())
	}
	// Indices are public helper data and must be within range and unique.
	seen := map[int]bool{}
	for _, idx := range sel.indices {
		if idx < 0 || idx >= 8192 || seen[idx] {
			t.Fatalf("bad index %d", idx)
		}
		seen[idx] = true
	}
}

func TestIndexSelectionErrors(t *testing.T) {
	ref := fromBools([]bool{true, true, false})
	if _, err := NewIndexSelectionMasked(ref, nil, 2); err == nil {
		t.Error("insufficient zeros accepted")
	}
	if _, err := NewIndexSelectionMasked(ref, nil, 0); err == nil {
		t.Error("zero pairs accepted")
	}
	sel, err := NewIndexSelectionMasked(ref, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Apply(bitvec.New(5)); err == nil {
		t.Error("wrong-length measurement accepted")
	}
}

// TestNilInputsReturnTypedError: every data-driven entry point must fail
// with ErrNilInput instead of panicking inside bitvec.
func TestNilInputsReturnTypedError(t *testing.T) {
	if _, err := NewIndexSelectionMasked(nil, nil, 1); err != ErrNilInput {
		t.Errorf("NewIndexSelectionMasked(nil) = %v, want ErrNilInput", err)
	}
	sel, err := NewIndexSelectionMasked(fromBools([]bool{true, false}), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Apply(nil); err != ErrNilInput {
		t.Errorf("Apply(nil) = %v, want ErrNilInput", err)
	}
}

// TestIndexSelectionMasked: only mask-eligible positions may be selected,
// and the masked selection still balances ones and zeros exactly.
func TestIndexSelectionMasked(t *testing.T) {
	src := rng.New(8)
	ref := biasedVector(src, 4096, 0.627)
	mask := biasedVector(src, 4096, 0.8)
	sel, err := NewIndexSelectionMasked(ref, mask, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range sel.indices {
		if !mask.Get(idx) {
			t.Fatalf("selected index %d is not in the mask", idx)
		}
	}
	out, err := sel.Apply(ref)
	if err != nil {
		t.Fatal(err)
	}
	if out.FractionalHammingWeight() != 0.5 {
		t.Fatalf("masked selection on reference has FHW %v, want exactly 0.5", out.FractionalHammingWeight())
	}
	// A nil mask admits every position: the first 500 ones and the first
	// 500 zeros of the reference, interleaved.
	all, err := NewIndexSelectionMasked(ref, nil, 500)
	if err != nil {
		t.Fatal(err)
	}
	var ones, zeros []int
	for i := 0; i < ref.Len(); i++ {
		if ref.Get(i) {
			ones = append(ones, i)
		} else {
			zeros = append(zeros, i)
		}
	}
	for i := 0; i < 500; i++ {
		if all.indices[2*i] != ones[i] || all.indices[2*i+1] != zeros[i] {
			t.Fatalf("nil-mask selection diverges at pair %d: %v", i, all.indices[2*i:2*i+2])
		}
	}
	// Mask/reference length mismatch is rejected.
	if _, err := NewIndexSelectionMasked(ref, bitvec.New(8), 1); err == nil {
		t.Error("mismatched mask length accepted")
	}
}

// fromBools builds a vector from a bool slice.
func fromBools(b []bool) *bitvec.Vector {
	v := bitvec.New(len(b))
	for i, x := range b {
		v.Set(i, x)
	}
	return v
}
