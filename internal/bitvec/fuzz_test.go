package bitvec

import (
	"testing"
)

// vectorFromData builds an n-bit vector whose bit i is bit i%8 of
// data[i/8] — a mask-and-build that cannot fail, unlike FromBytes, which
// rejects dirty padding.
func vectorFromData(data []byte, n int) *Vector {
	bools := make([]bool, n)
	for i := 0; i < n; i++ {
		bools[i] = data[i/8]>>(uint(i)%8)&1 == 1
	}
	return fromBools(bools)
}

// FuzzInPlaceOps holds the allocation-free primitives of the streaming
// pipeline (OrDiffInPlace, CopyFrom, AndInPlace) to their bit-by-bit
// reference semantics, including the tail invariant: padding bits beyond
// the vector length stay zero, which the Hex/ParseHex round trip rejects
// if violated.
func FuzzInPlaceOps(f *testing.F) {
	f.Add([]byte{0xff}, []byte{0x00}, []byte{0xaa}, 8)
	f.Add([]byte{0xde, 0xad}, []byte{0xbe, 0xef}, []byte{0x00, 0x00}, 13)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0}, 65)
	f.Add([]byte{0x80}, []byte{0x80}, []byte{0x80}, 1)
	f.Fuzz(func(t *testing.T, ab, bb, vb []byte, n int) {
		max := len(ab)
		if len(bb) < max {
			max = len(bb)
		}
		if len(vb) < max {
			max = len(vb)
		}
		max *= 8
		if n <= 0 || n > max {
			t.Skip()
		}
		a := vectorFromData(ab, n)
		b := vectorFromData(bb, n)
		v := vectorFromData(vb, n)

		// OrDiffInPlace: v |= a XOR b, bit by bit.
		want := make([]bool, n)
		for i := 0; i < n; i++ {
			want[i] = v.Get(i) || (a.Get(i) != b.Get(i))
		}
		if err := v.OrDiffInPlace(a, b); err != nil {
			t.Fatalf("OrDiffInPlace: %v", err)
		}
		for i := 0; i < n; i++ {
			if v.Get(i) != want[i] {
				t.Fatalf("OrDiffInPlace bit %d = %v, want %v", i, v.Get(i), want[i])
			}
		}
		assertCleanTail(t, v, "OrDiffInPlace")

		// The inputs must not have been touched.
		if !a.Equal(vectorFromData(ab, n)) || !b.Equal(vectorFromData(bb, n)) {
			t.Fatal("OrDiffInPlace modified an input vector")
		}

		// CopyFrom: exact overwrite.
		w := New(n)
		if err := w.CopyFrom(a); err != nil {
			t.Fatalf("CopyFrom: %v", err)
		}
		if !w.Equal(a) {
			t.Fatal("CopyFrom result differs from source")
		}
		assertCleanTail(t, w, "CopyFrom")

		// AndInPlace: w &= b, bit by bit.
		for i := 0; i < n; i++ {
			want[i] = a.Get(i) && b.Get(i)
		}
		if err := w.AndInPlace(b); err != nil {
			t.Fatalf("AndInPlace: %v", err)
		}
		for i := 0; i < n; i++ {
			if w.Get(i) != want[i] {
				t.Fatalf("AndInPlace bit %d = %v, want %v", i, w.Get(i), want[i])
			}
		}
		assertCleanTail(t, w, "AndInPlace")

		// Length mismatches fail typed, never panic.
		if n > 1 {
			short := New(n - 1)
			if err := short.OrDiffInPlace(a, b); err == nil {
				t.Fatal("OrDiffInPlace accepted mismatched lengths")
			}
			if err := short.CopyFrom(a); err == nil {
				t.Fatal("CopyFrom accepted mismatched lengths")
			}
			if err := short.AndInPlace(a); err == nil {
				t.Fatal("AndInPlace accepted mismatched lengths")
			}
		}
	})
}

// assertCleanTail asserts padding bits beyond the length are zero by
// round-tripping through the serialisation, which rejects dirty padding.
func assertCleanTail(t *testing.T, v *Vector, op string) {
	t.Helper()
	back, err := ParseHex(v.Hex(), v.Len())
	if err != nil {
		t.Fatalf("%s left dirty padding: %v", op, err)
	}
	if !back.Equal(v) {
		t.Fatalf("%s: hex round trip differs", op)
	}
}

// FuzzBytesRoundTrip holds FromBytes, Bytes and AppendBytes to the
// per-byte reference packing (bit i is bit i%8 of byte i/8), whichever
// path the host's byte order selects: FromBytes accepts exactly the
// clean, long-enough inputs, and a decoded vector packs back to the
// bytes it came from.
func FuzzBytesRoundTrip(f *testing.F) {
	f.Add([]byte{0xff}, 8)
	f.Add([]byte{0x0f}, 4)
	f.Add([]byte{0xff}, 4)
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5}, 65)
	f.Add([]byte{1, 2}, 24)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 8*len(data)+64 {
			t.Skip()
		}
		need := (n + 7) / 8
		v, err := FromBytes(data, n)
		if need > len(data) {
			if err == nil {
				t.Fatalf("FromBytes accepted %d bytes for %d bits", len(data), n)
			}
			return
		}
		if dirty := n%8 != 0 && data[need-1]>>(uint(n)%8) != 0; dirty {
			if err == nil {
				t.Fatal("FromBytes accepted dirty padding")
			}
			return
		}
		if err != nil {
			t.Fatalf("FromBytes rejected clean input: %v", err)
		}
		if !v.Equal(vectorFromData(data, n)) {
			t.Fatal("FromBytes differs from the per-bit reference")
		}
		want := data[:need]
		if got := v.Bytes(); string(got) != string(want) {
			t.Fatalf("Bytes = %x, want %x", got, want)
		}
		prefix := []byte{0xaa, 0x55}
		if got := v.AppendBytes(prefix); string(got) != string(prefix)+string(want) {
			t.Fatalf("AppendBytes = %x, want %x%x", got, prefix, want)
		}
		assertCleanTail(t, v, "FromBytes")
	})
}
