package bitvec

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 8192} {
		v := New(n)
		if v.Len() != n {
			t.Fatalf("Len = %d, want %d", v.Len(), n)
		}
		if w := v.HammingWeight(); w != 0 {
			t.Fatalf("n=%d: weight of new vector = %d, want 0", n, w)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGet(t *testing.T) {
	v := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.Set(i, true)
	}
	for _, i := range idx {
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if got := v.HammingWeight(); got != len(idx) {
		t.Fatalf("weight = %d, want %d", got, len(idx))
	}
	for _, i := range idx {
		v.Set(i, false)
	}
	if got := v.HammingWeight(); got != 0 {
		t.Fatalf("weight after clear = %d, want 0", got)
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	v := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func TestBit(t *testing.T) {
	v := New(8)
	v.Set(3, true)
	if v.Bit(3) != 1 || v.Bit(4) != 0 {
		t.Fatalf("Bit: got %d,%d want 1,0", v.Bit(3), v.Bit(4))
	}
}

func TestFromBools(t *testing.T) {
	b := []bool{true, false, true, true, false, false, false, true, true}
	v := FromBools(b)
	if v.Len() != len(b) {
		t.Fatalf("Len = %d, want %d", v.Len(), len(b))
	}
	for i, x := range b {
		if v.Get(i) != x {
			t.Errorf("bit %d = %v, want %v", i, v.Get(i), x)
		}
	}
	got := v.Bools()
	for i := range b {
		if got[i] != b[i] {
			t.Errorf("Bools[%d] = %v, want %v", i, got[i], b[i])
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 8192, 8191} {
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i, rnd.Intn(2) == 1)
		}
		data := v.Bytes()
		if len(data) != (n+7)/8 {
			t.Fatalf("n=%d: Bytes len = %d", n, len(data))
		}
		u, err := FromBytes(data, n)
		if err != nil {
			t.Fatalf("n=%d: FromBytes: %v", n, err)
		}
		if !v.Equal(u) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestFromBytesErrors(t *testing.T) {
	if _, err := FromBytes([]byte{0xff}, 16); err == nil {
		t.Error("short buffer accepted")
	}
	// 0xFF for a 4-bit vector has dirty padding.
	if _, err := FromBytes([]byte{0xff}, 4); err == nil {
		t.Error("dirty padding accepted")
	}
	if v, err := FromBytes([]byte{0x0f}, 4); err != nil || v.HammingWeight() != 4 {
		t.Errorf("clean padding rejected: v=%v err=%v", v, err)
	}
}

func TestHexRoundTrip(t *testing.T) {
	v := New(12)
	v.Set(0, true)
	v.Set(11, true)
	s := v.Hex()
	u, err := ParseHex(s, 12)
	if err != nil {
		t.Fatalf("ParseHex: %v", err)
	}
	if !v.Equal(u) {
		t.Fatalf("hex round trip: got %v want %v", u, v)
	}
	if _, err := ParseHex("zz", 8); err == nil {
		t.Error("invalid hex accepted")
	}
}

func TestHammingDistance(t *testing.T) {
	v := New(100)
	u := New(100)
	for i := 0; i < 10; i++ {
		u.Set(i*7, true)
	}
	d, err := v.HammingDistance(u)
	if err != nil {
		t.Fatal(err)
	}
	if d != 10 {
		t.Fatalf("HD = %d, want 10", d)
	}
	f, err := v.FractionalHammingDistance(u)
	if err != nil {
		t.Fatal(err)
	}
	if f != 0.1 {
		t.Fatalf("FHD = %v, want 0.1", f)
	}
}

func TestLengthMismatch(t *testing.T) {
	v, u := New(10), New(11)
	if _, err := v.HammingDistance(u); err == nil {
		t.Error("HammingDistance: no error on mismatch")
	}
	if _, err := v.Xor(u); err == nil {
		t.Error("Xor: no error on mismatch")
	}
	if _, err := v.And(u); err == nil {
		t.Error("And: no error on mismatch")
	}
	if _, err := v.Or(u); err == nil {
		t.Error("Or: no error on mismatch")
	}
	if err := v.XorInPlace(u); err == nil {
		t.Error("XorInPlace: no error on mismatch")
	}
	if _, err := v.CountDiffWindow(u, 0, 5); err == nil {
		t.Error("CountDiffWindow: no error on mismatch")
	}
}

func TestXorProperties(t *testing.T) {
	// HD(v,u) == HW(v XOR u), and v XOR v == 0.
	f := func(a, b [16]byte) bool {
		v, err1 := FromBytes(a[:], 128)
		u, err2 := FromBytes(b[:], 128)
		if err1 != nil || err2 != nil {
			return false
		}
		x, err := v.Xor(u)
		if err != nil {
			return false
		}
		d, err := v.HammingDistance(u)
		if err != nil {
			return false
		}
		if x.HammingWeight() != d {
			return false
		}
		self, err := v.Xor(v)
		if err != nil {
			return false
		}
		return self.HammingWeight() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXorInPlaceMatchesXor(t *testing.T) {
	f := func(a, b [8]byte) bool {
		v, _ := FromBytes(a[:], 64)
		u, _ := FromBytes(b[:], 64)
		want, _ := v.Xor(u)
		if err := v.XorInPlace(u); err != nil {
			return false
		}
		return v.Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeMorganProperty(t *testing.T) {
	// NOT(a AND b) == NOT(a) OR NOT(b)
	f := func(a, b [9]byte) bool {
		v, _ := FromBytes(a[:], 72)
		u, _ := FromBytes(b[:], 72)
		and, _ := v.And(u)
		left := and.Not()
		right, _ := v.Not().Or(u.Not())
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNotClearsTail(t *testing.T) {
	v := New(10)
	nv := v.Not()
	if nv.HammingWeight() != 10 {
		t.Fatalf("NOT of zero 10-bit vector has weight %d, want 10", nv.HammingWeight())
	}
	if nv.tailDirty() {
		t.Fatal("Not left dirty tail bits")
	}
}

func TestSetAll(t *testing.T) {
	v := New(67)
	v.SetAll(true)
	if v.HammingWeight() != 67 {
		t.Fatalf("SetAll(true): weight %d, want 67", v.HammingWeight())
	}
	v.SetAll(false)
	if v.HammingWeight() != 0 {
		t.Fatalf("SetAll(false): weight %d, want 0", v.HammingWeight())
	}
}

func TestSlice(t *testing.T) {
	v := New(100)
	for i := 10; i < 20; i++ {
		v.Set(i, true)
	}
	s := v.Slice(10, 20)
	if s.Len() != 10 || s.HammingWeight() != 10 {
		t.Fatalf("Slice: len=%d weight=%d", s.Len(), s.HammingWeight())
	}
	s2 := v.Slice(0, 10)
	if s2.HammingWeight() != 0 {
		t.Fatalf("Slice[0,10): weight=%d, want 0", s2.HammingWeight())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid slice did not panic")
			}
		}()
		v.Slice(50, 40)
	}()
}

func TestConcat(t *testing.T) {
	a := FromBools([]bool{true, false, true})
	b := FromBools([]bool{false, true})
	c := Concat(a, b)
	want := []bool{true, false, true, false, true}
	if c.Len() != 5 {
		t.Fatalf("Concat len = %d", c.Len())
	}
	for i, w := range want {
		if c.Get(i) != w {
			t.Errorf("bit %d = %v, want %v", i, c.Get(i), w)
		}
	}
}

func TestOnesIndices(t *testing.T) {
	v := New(200)
	want := []int{0, 5, 63, 64, 100, 199}
	for _, i := range want {
		v.Set(i, true)
	}
	got := v.OnesIndices()
	if len(got) != len(want) {
		t.Fatalf("OnesIndices len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("OnesIndices[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFractionalHammingWeight(t *testing.T) {
	v := New(8)
	v.Set(0, true)
	v.Set(1, true)
	if f := v.FractionalHammingWeight(); f != 0.25 {
		t.Fatalf("FHW = %v, want 0.25", f)
	}
	if f := New(0).FractionalHammingWeight(); f != 0 {
		t.Fatalf("empty FHW = %v, want 0", f)
	}
}

func TestCountDiffWindow(t *testing.T) {
	v := New(64)
	u := New(64)
	u.Set(5, true)
	u.Set(40, true)
	d, err := v.CountDiffWindow(u, 0, 32)
	if err != nil || d != 1 {
		t.Fatalf("window [0,32): d=%d err=%v, want 1", d, err)
	}
	d, err = v.CountDiffWindow(u, 0, 64)
	if err != nil || d != 2 {
		t.Fatalf("window [0,64): d=%d err=%v, want 2", d, err)
	}
	if _, err := v.CountDiffWindow(u, 10, 5); err == nil {
		t.Error("invalid window accepted")
	}
}

func TestSetWord(t *testing.T) {
	v := New(70)
	v.SetWord(0, ^uint64(0))
	v.SetWord(1, ^uint64(0))
	if got := v.HammingWeight(); got != 70 {
		t.Fatalf("weight = %d, want 70 (tail must be cleared)", got)
	}
}

// TestLoadLE: loading the little-endian word bytes of a vector restores
// it exactly and in place; a wrong byte count or dirty padding bits are
// rejected, and the rejected load leaves the tail clean.
func TestLoadLE(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000} {
		src := New(n)
		for i := 0; i < n; i += 3 {
			src.Set(i, true)
		}
		data := make([]byte, 0, 8*len(src.Words()))
		for _, w := range src.Words() {
			data = binary.LittleEndian.AppendUint64(data, w)
		}
		dst := New(n)
		dst.SetAll(true)
		if err := dst.LoadLE(data); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !dst.Equal(src) {
			t.Fatalf("n=%d: LoadLE did not restore the vector", n)
		}
		if err := dst.LoadLE(data[:len(data)-1]); err == nil {
			t.Fatalf("n=%d: short payload accepted", n)
		}
		if n%64 != 0 {
			data[len(data)-1] |= 0x80 // bit 63 of the last word: padding
			if err := dst.LoadLE(data); err == nil {
				t.Fatalf("n=%d: dirty padding accepted", n)
			}
			if dst.HammingWeight() != src.HammingWeight() {
				t.Fatalf("n=%d: rejected load left dirty padding in the vector", n)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	v := New(64)
	v.Set(1, true)
	u := v.Clone()
	u.Set(2, true)
	if v.Get(2) {
		t.Fatal("Clone shares storage with original")
	}
	if !u.Get(1) {
		t.Fatal("Clone lost bit")
	}
}

func TestStringTruncation(t *testing.T) {
	v := New(8)
	v.Set(0, true)
	if s := v.String(); s != "10000000" {
		t.Fatalf("String = %q", s)
	}
	long := New(1000)
	if s := long.String(); len(s) > 1200 {
		t.Fatalf("String of long vector not truncated: %d chars", len(s))
	}
}

func BenchmarkHammingDistance8K(b *testing.B) {
	v := New(8192)
	u := New(8192)
	for i := 0; i < 8192; i += 3 {
		u.Set(i, true)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := v.HammingDistance(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHammingWeight8K(b *testing.B) {
	v := New(8192)
	for i := 0; i < 8192; i += 2 {
		v.Set(i, true)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.HammingWeight()
	}
}

// naiveSlice is the bit-by-bit reference the word-wise Slice must match.
func naiveSlice(v *Vector, from, to int) *Vector {
	out := New(to - from)
	for i := from; i < to; i++ {
		if v.Get(i) {
			out.Set(i-from, true)
		}
	}
	return out
}

// naiveConcat is the bit-by-bit reference the word-wise Concat must match.
func naiveConcat(v, u *Vector) *Vector {
	out := New(v.Len() + u.Len())
	for i := 0; i < v.Len(); i++ {
		out.Set(i, v.Get(i))
	}
	for i := 0; i < u.Len(); i++ {
		out.Set(v.Len()+i, u.Get(i))
	}
	return out
}

func randomVector(n int, seed uint64) *Vector {
	v := New(n)
	x := seed
	for i := 0; i < n; i++ {
		// xorshift64 — deterministic bit soup exercising every word lane.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v.Set(i, x&1 == 1)
	}
	return v
}

// TestSliceWordwiseMatchesNaive sweeps slice boundaries across word
// edges (offsets 0, mid-word, word-aligned, full-vector) and checks the
// word-wise kernel against the bit-by-bit oracle, including the tail
// invariant of the result.
func TestSliceWordwiseMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 128, 200, 1265} {
		v := randomVector(n, uint64(n)*2654435761)
		for _, from := range []int{0, 1, 63, 64, 65, n / 2, n - 1, n} {
			if from < 0 || from > n {
				continue
			}
			for _, to := range []int{from, from + 1, from + 63, from + 64, from + 65, n} {
				if to < from || to > n {
					continue
				}
				got, want := v.Slice(from, to), naiveSlice(v, from, to)
				if !got.Equal(want) {
					t.Fatalf("Slice(%d,%d) of %d bits differs from oracle", from, to, n)
				}
				if got.tailDirty() {
					t.Fatalf("Slice(%d,%d) of %d bits has a dirty tail", from, to, n)
				}
			}
		}
	}
}

// TestConcatWordwiseMatchesNaive sweeps both operand lengths across word
// boundaries and checks the word-wise kernel against the oracle.
func TestConcatWordwiseMatchesNaive(t *testing.T) {
	for _, vn := range []int{0, 1, 5, 63, 64, 65, 115, 128, 1265} {
		for _, un := range []int{0, 1, 63, 64, 65, 150, 1265} {
			v := randomVector(vn, uint64(vn)*40503+1)
			u := randomVector(un, uint64(un)*9176+7)
			got, want := Concat(v, u), naiveConcat(v, u)
			if !got.Equal(want) {
				t.Fatalf("Concat(%d,%d) differs from oracle", vn, un)
			}
			if got.tailDirty() {
				t.Fatalf("Concat(%d,%d) has a dirty tail", vn, un)
			}
		}
	}
}

// TestSliceConcatAllocs pins the allocation count of the reconstruction
// hot path: one Vector header plus one word slice per result, nothing
// proportional to the bit count.
func TestSliceConcatAllocs(t *testing.T) {
	v := randomVector(1265, 99)
	u := randomVector(115, 3)
	var sink *Vector
	if got := testing.AllocsPerRun(200, func() { sink = v.Slice(3, 1200) }); got > 2 {
		t.Errorf("Slice allocates %v objects, want <= 2", got)
	}
	if got := testing.AllocsPerRun(200, func() { sink = Concat(v, u) }); got > 2 {
		t.Errorf("Concat allocates %v objects, want <= 2", got)
	}
	_ = sink
}

func BenchmarkSlice1265(b *testing.B) {
	v := randomVector(8192, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Slice(17, 17+1265)
	}
}

func BenchmarkConcat1265(b *testing.B) {
	v := randomVector(1265, 1)
	u := randomVector(115, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Concat(v, u)
	}
}
