package fuzzy

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/rng"
)

// corruptFn flips bits of the codeword-sized response so the underlying
// decode is guaranteed (or overwhelmingly likely) to land on a different
// message than the enrolled one.
type corruptFn func(resp *bitvec.Vector)

// flipRange flips bits [from, from+count).
func flipRange(v *bitvec.Vector, from, count int) {
	for i := from; i < from+count; i++ {
		v.Set(i, !v.Get(i))
	}
}

// TestFailureModeMatrix: beyond-t error patterns must surface as a typed
// error — a decode error or ErrReconstructFailed from the check digest —
// and never as a silently wrong key. Each pattern is constructed so the
// decoder provably cannot return the enrolled message:
//
//   - repetition(5): 3 flips in a block defeat the majority vote;
//   - Golay(23,12): the code is perfect with covering radius 3, so any
//     weight-4+ error is closer to a DIFFERENT codeword and miscorrects;
//   - concatenated / blocked: majority-defeating flips in 4 distinct inner
//     repetition blocks hand the outer Golay 4 hard errors (> t = 3).
func TestFailureModeMatrix(t *testing.T) {
	golay := ecc.NewGolay()
	rep5, err := ecc.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	concat, err := ecc.NewConcatenated(golay, rep5)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := ecc.NewBlocked(concat, 11)
	if err != nil {
		t.Fatal(err)
	}

	// breakConcat defeats the repetition majority in 4 distinct inner
	// blocks starting at bit `base`, exceeding the outer Golay budget.
	breakConcatAt := func(base int) corruptFn {
		return func(resp *bitvec.Vector) {
			for blk := 0; blk < 4; blk++ {
				flipRange(resp, base+blk*5, 3)
			}
		}
	}

	cases := []struct {
		name    string
		code    ecc.Code
		corrupt corruptFn
	}{
		{"repetition-majority-defeated", rep5, func(r *bitvec.Vector) { flipRange(r, 1, 3) }},
		{"golay-weight4", golay, func(r *bitvec.Vector) { flipRange(r, 0, 4) }},
		{"golay-weight7", golay, func(r *bitvec.Vector) { flipRange(r, 8, 7) }},
		{"concatenated-4-inner-blocks", concat, breakConcatAt(0)},
		{"blocked-one-block-broken", blocked, breakConcatAt(5 * concat.N())},
		{"blocked-all-blocks-broken", blocked, func(r *bitvec.Vector) {
			for b := 0; b < 11; b++ {
				breakConcatAt(b * concat.N())(r)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ext, err := New(tc.code)
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(0xFA11)
			resp := bitvec.New(tc.code.N())
			for i := 0; i < resp.Len(); i++ {
				resp.Set(i, src.Bernoulli(0.5))
			}
			key, helper, err := ext.Enroll(resp, src.Derive(1))
			if err != nil {
				t.Fatal(err)
			}
			noisy := resp.Clone()
			tc.corrupt(noisy)
			got, err := ext.Reconstruct(noisy, helper)
			if err == nil {
				t.Fatalf("beyond-t pattern reconstructed without error (key match: %v)",
					bytes.Equal(got, key))
			}
			if !errors.Is(err, ErrReconstructFailed) {
				t.Fatalf("err = %v, want ErrReconstructFailed", err)
			}
		})
	}
}

// FuzzFuzzyRoundTrip drives Enroll/Reconstruct with arbitrary responses
// and error masks: no input may panic, and a nil-error reconstruction
// must return the byte-identical enrolled key.
func FuzzFuzzyRoundTrip(f *testing.F) {
	f.Add([]byte{0x00}, []byte{0x00}, uint64(1))
	f.Add([]byte{0xFF, 0x13, 0x5A}, []byte{0x01}, uint64(7))
	f.Add(bytes.Repeat([]byte{0xA5}, 9), bytes.Repeat([]byte{0x0F}, 9), uint64(42))
	golay := ecc.NewGolay()
	rep3, err := ecc.NewRepetition(3)
	if err != nil {
		f.Fatal(err)
	}
	code, err := ecc.NewConcatenated(golay, rep3)
	if err != nil {
		f.Fatal(err)
	}
	ext, err := New(code)
	if err != nil {
		f.Fatal(err)
	}
	n := code.N()
	bitAt := func(data []byte, i int) bool {
		if len(data) == 0 {
			return false
		}
		b := data[(i/8)%len(data)]
		return b>>(uint(i)%8)&1 == 1
	}
	f.Fuzz(func(t *testing.T, respBytes, maskBytes []byte, seed uint64) {
		resp := bitvec.New(n)
		noisy := bitvec.New(n)
		flipped := false
		for i := 0; i < n; i++ {
			bit := bitAt(respBytes, i)
			resp.Set(i, bit)
			if bitAt(maskBytes, i) {
				bit = !bit
				flipped = true
			}
			noisy.Set(i, bit)
		}
		key, helper, err := ext.Enroll(resp, rng.New(seed))
		if err != nil {
			t.Fatalf("enroll: %v", err)
		}
		got, err := ext.Reconstruct(noisy, helper)
		if err != nil {
			if !errors.Is(err, ErrReconstructFailed) {
				t.Fatalf("reconstruct: unexpected error %v", err)
			}
			return
		}
		if !bytes.Equal(got, key) {
			t.Fatal("reconstruction succeeded with a non-identical key")
		}
		if !flipped && err != nil {
			t.Fatal("clean response failed to reconstruct")
		}
	})
}
