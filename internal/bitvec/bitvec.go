// Package bitvec implements fixed-length packed bit vectors.
//
// A Vector is the fundamental measurement payload of the repository: every
// SRAM power-up pattern read out by the measurement harness is stored as one
// Vector. The package provides the Hamming-space operations (weight,
// distance, XOR) that all PUF quality metrics in the paper are built from,
// plus serialisation to bytes and hex for the JSON measurement archive.
package bitvec

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// ErrLengthMismatch is returned by binary operations on vectors of
// different lengths.
var ErrLengthMismatch = errors.New("bitvec: length mismatch")

const wordBits = 64

// Vector is a fixed-length sequence of bits packed into 64-bit words.
// Bit i of the vector is bit (i % 64) of word (i / 64). The zero value is an
// empty vector of length 0.
type Vector struct {
	words []uint64
	n     int
}

// New returns a zeroed Vector of n bits. It panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromBools builds a Vector whose bit i is 1 exactly when b[i] is true.
func FromBools(b []bool) *Vector {
	v := New(len(b))
	for i, x := range b {
		if x {
			v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
		}
	}
	return v
}

// FromBytes builds a Vector of n bits from a little-endian byte packing
// (bit i is bit i%8 of data[i/8]). It returns an error if data is too short
// to hold n bits or if trailing padding bits in the final byte are non-zero.
func FromBytes(data []byte, n int) (*Vector, error) {
	need := (n + 7) / 8
	if len(data) < need {
		return nil, fmt.Errorf("bitvec: need %d bytes for %d bits, got %d", need, n, len(data))
	}
	v := New(n)
	if littleEndianHost {
		// Byte packing == memory layout: the fill is one memmove.
		copy(wordBytes(v.words), data[:need])
	} else {
		for i := 0; i < need; i++ {
			v.words[i/8] |= uint64(data[i]) << (8 * (uint(i) % 8))
		}
	}
	// Verify padding above bit n is clean, then force-clear it so internal
	// invariants hold regardless.
	if v.tailDirty() {
		return nil, errors.New("bitvec: non-zero padding bits beyond length")
	}
	return v, nil
}

// LoadLE overwrites v's contents from little-endian 64-bit words — the
// binary record codec's payload layout — without allocating: one
// memmove on a little-endian host, where that layout is v's memory
// layout, a per-word byte-order loop elsewhere. It returns an error if
// data does not hold exactly v's word count or if padding bits beyond
// the length are non-zero (corrupt input must never violate the tail
// invariant the Hamming kernels rely on).
func (v *Vector) LoadLE(data []byte) error {
	if len(data) != 8*len(v.words) {
		return fmt.Errorf("bitvec: need %d bytes for %d bits, got %d", 8*len(v.words), v.n, len(data))
	}
	if littleEndianHost {
		copy(wordBytes(v.words), data)
	} else {
		for i := range v.words {
			v.words[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
	}
	if v.tailDirty() {
		v.clearTail()
		return errors.New("bitvec: non-zero padding bits beyond length")
	}
	return nil
}

// ParseHex decodes a Vector of n bits from the hex encoding produced by Hex.
func ParseHex(s string, n int) (*Vector, error) {
	data, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("bitvec: %w", err)
	}
	return FromBytes(data, n)
}

// tailDirty reports whether any bit at position >= n is set.
func (v *Vector) tailDirty() bool {
	if v.n%wordBits == 0 {
		return false
	}
	last := v.words[len(v.words)-1]
	mask := (uint64(1) << (uint(v.n) % wordBits)) - 1
	return last&^mask != 0
}

// clearTail zeroes all bits at position >= n.
func (v *Vector) clearTail() {
	if v.n%wordBits == 0 || len(v.words) == 0 {
		return
	}
	mask := (uint64(1) << (uint(v.n) % wordBits)) - 1
	v.words[len(v.words)-1] &= mask
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Get returns bit i as a boolean. It panics if i is out of range.
func (v *Vector) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
	return v.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Bit returns bit i as 0 or 1. It panics if i is out of range.
func (v *Vector) Bit(i int) int {
	if v.Get(i) {
		return 1
	}
	return 0
}

// Set sets bit i to b. It panics if i is out of range.
func (v *Vector) Set(i int, b bool) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
	if b {
		v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// SetAll sets every bit to b.
func (v *Vector) SetAll(b bool) {
	var w uint64
	if b {
		w = ^uint64(0)
	}
	for i := range v.words {
		v.words[i] = w
	}
	v.clearTail()
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	w := New(v.n)
	copy(w.words, v.words)
	return w
}

// Equal reports whether v and u have identical length and contents.
func (v *Vector) Equal(u *Vector) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// HammingWeight returns the number of 1 bits.
func (v *Vector) HammingWeight() int {
	w := 0
	for _, x := range v.words {
		w += bits.OnesCount64(x)
	}
	return w
}

// FractionalHammingWeight returns HammingWeight divided by the length.
// It returns 0 for an empty vector.
func (v *Vector) FractionalHammingWeight() float64 {
	if v.n == 0 {
		return 0
	}
	return float64(v.HammingWeight()) / float64(v.n)
}

// HammingDistance returns the number of positions at which v and u differ.
func (v *Vector) HammingDistance(u *Vector) (int, error) {
	if v.n != u.n {
		return 0, fmt.Errorf("%w: %d vs %d bits", ErrLengthMismatch, v.n, u.n)
	}
	d := 0
	for i := range v.words {
		d += bits.OnesCount64(v.words[i] ^ u.words[i])
	}
	return d, nil
}

// FractionalHammingDistance returns HammingDistance divided by the length.
func (v *Vector) FractionalHammingDistance(u *Vector) (float64, error) {
	d, err := v.HammingDistance(u)
	if err != nil {
		return 0, err
	}
	if v.n == 0 {
		return 0, nil
	}
	return float64(d) / float64(v.n), nil
}

// Xor returns the bitwise XOR of v and u as a new vector.
func (v *Vector) Xor(u *Vector) (*Vector, error) {
	if v.n != u.n {
		return nil, fmt.Errorf("%w: %d vs %d bits", ErrLengthMismatch, v.n, u.n)
	}
	out := New(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] ^ u.words[i]
	}
	return out, nil
}

// XorInPlace sets v = v XOR u.
func (v *Vector) XorInPlace(u *Vector) error {
	if v.n != u.n {
		return fmt.Errorf("%w: %d vs %d bits", ErrLengthMismatch, v.n, u.n)
	}
	for i := range v.words {
		v.words[i] ^= u.words[i]
	}
	return nil
}

// And returns the bitwise AND of v and u as a new vector.
func (v *Vector) And(u *Vector) (*Vector, error) {
	if v.n != u.n {
		return nil, fmt.Errorf("%w: %d vs %d bits", ErrLengthMismatch, v.n, u.n)
	}
	out := New(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] & u.words[i]
	}
	return out, nil
}

// Or returns the bitwise OR of v and u as a new vector.
func (v *Vector) Or(u *Vector) (*Vector, error) {
	if v.n != u.n {
		return nil, fmt.Errorf("%w: %d vs %d bits", ErrLengthMismatch, v.n, u.n)
	}
	out := New(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] | u.words[i]
	}
	return out, nil
}

// AndInPlace sets v = v AND u without allocating — the mask-intersection
// update of the cross-condition stable-cell fold.
func (v *Vector) AndInPlace(u *Vector) error {
	if v.n != u.n {
		return fmt.Errorf("%w: %d vs %d bits", ErrLengthMismatch, v.n, u.n)
	}
	for i := range v.words {
		v.words[i] &= u.words[i]
	}
	return nil
}

// OrDiffInPlace sets v |= a XOR b without allocating — the streaming
// flip-bitmap update: every position where a and b disagree is marked in v.
func (v *Vector) OrDiffInPlace(a, b *Vector) error {
	if v.n != a.n || v.n != b.n {
		return fmt.Errorf("%w: %d vs %d vs %d bits", ErrLengthMismatch, v.n, a.n, b.n)
	}
	for i := range v.words {
		v.words[i] |= a.words[i] ^ b.words[i]
	}
	return nil
}

// CopyFrom overwrites v's contents with u's without allocating.
func (v *Vector) CopyFrom(u *Vector) error {
	if v.n != u.n {
		return fmt.Errorf("%w: %d vs %d bits", ErrLengthMismatch, v.n, u.n)
	}
	copy(v.words, u.words)
	return nil
}

// Not returns the bitwise complement of v as a new vector.
func (v *Vector) Not() *Vector {
	out := New(v.n)
	for i := range v.words {
		out.words[i] = ^v.words[i]
	}
	out.clearTail()
	return out
}

// Slice returns a copy of bits [from, to) as a new vector.
// It panics if the range is invalid.
func (v *Vector) Slice(from, to int) *Vector {
	if from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("bitvec: invalid slice [%d,%d) of %d bits", from, to, v.n))
	}
	out := New(to - from)
	if to == from {
		return out
	}
	wi, off := from/wordBits, uint(from)%wordBits
	if off == 0 {
		copy(out.words, v.words[wi:wi+len(out.words)])
	} else {
		for i := range out.words {
			w := v.words[wi+i] >> off
			if wi+i+1 < len(v.words) {
				w |= v.words[wi+i+1] << (wordBits - off)
			}
			out.words[i] = w
		}
	}
	out.clearTail()
	return out
}

// Concat returns the concatenation v || u as a new vector.
func Concat(v, u *Vector) *Vector {
	out := New(v.n + u.n)
	copy(out.words, v.words)
	if u.n == 0 {
		return out
	}
	wi, off := v.n/wordBits, uint(v.n)%wordBits
	if off == 0 {
		copy(out.words[wi:], u.words)
		return out
	}
	// v's tail invariant guarantees bits >= v.n of out.words[wi] are zero,
	// so u's words can be OR-shifted in; u's own clean tail keeps bits
	// beyond out.n zero.
	for i, w := range u.words {
		out.words[wi+i] |= w << off
		if wi+i+1 < len(out.words) {
			out.words[wi+i+1] = w >> (wordBits - off)
		}
	}
	return out
}

// Bytes returns the little-endian byte packing of v
// (bit i is bit i%8 of byte i/8). Padding bits are zero.
func (v *Vector) Bytes() []byte { return v.AppendBytes(make([]byte, 0, (v.n+7)/8)) }

// AppendBytes appends the byte packing of Bytes to dst and returns the
// extended slice — the allocation-free form for callers that reuse a
// buffer across read-outs.
func (v *Vector) AppendBytes(dst []byte) []byte {
	n := (v.n + 7) / 8
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	if littleEndianHost {
		copy(out, wordBytes(v.words))
	} else {
		for i := range out {
			out[i] = byte(v.words[i/8] >> (8 * (uint(i) % 8)))
		}
	}
	return dst[:len(dst)+n]
}

// Hex returns the hexadecimal encoding of Bytes.
func (v *Vector) Hex() string { return hex.EncodeToString(v.Bytes()) }

// Bools returns the vector expanded to a boolean slice.
func (v *Vector) Bools() []bool {
	out := make([]bool, v.n)
	for i := range out {
		out[i] = v.Get(i)
	}
	return out
}

// OnesIndices returns the positions of all 1 bits in increasing order.
func (v *Vector) OnesIndices() []int {
	out := make([]int, 0, v.HammingWeight())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// String renders short vectors as a 0/1 string and long vectors as a
// truncated summary; intended for debugging output.
func (v *Vector) String() string {
	const maxShow = 128
	var sb strings.Builder
	n := v.n
	trunc := false
	if n > maxShow {
		n = maxShow
		trunc = true
	}
	for i := 0; i < n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if trunc {
		fmt.Fprintf(&sb, "... (%d bits, weight %d)", v.n, v.HammingWeight())
	}
	return sb.String()
}

// Words exposes the underlying word slice for word-level fast paths.
// A caller that writes through it must leave the padding bits beyond
// Len clear, as rng.Source.BernoulliWords does for the SRAM power-up
// sampler.
func (v *Vector) Words() []uint64 { return v.words }

// SetWord stores the given 64-bit word at word index wi. Bits beyond the
// vector length in the final word are cleared. It panics if wi is out of
// range. It is the word-at-a-time writer of the stream accumulators.
func (v *Vector) SetWord(wi int, w uint64) {
	v.words[wi] = w
	if wi == len(v.words)-1 {
		v.clearTail()
	}
}

// CountDiffWindow returns the Hamming distance between v and u restricted
// to bit positions [from, to).
func (v *Vector) CountDiffWindow(u *Vector, from, to int) (int, error) {
	if v.n != u.n {
		return 0, fmt.Errorf("%w: %d vs %d bits", ErrLengthMismatch, v.n, u.n)
	}
	if from < 0 || to > v.n || from > to {
		return 0, fmt.Errorf("bitvec: invalid window [%d,%d) of %d bits", from, to, v.n)
	}
	d := 0
	for i := from; i < to; i++ {
		if v.Get(i) != u.Get(i) {
			d++
		}
	}
	return d, nil
}
