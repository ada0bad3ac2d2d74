package rng

import (
	"math/bits"
	"sync"
)

// Jump is a precomputed n-step jump of the xoshiro256** state: applying it
// to a Source advances the stream exactly as n calls to Uint64 would,
// without generating the intermediate outputs. The state transition of
// xoshiro256** is linear over GF(2), so any fixed number of steps is a
// 256×256 bit matrix; Jump stores that matrix column-wise (column j holds
// the image of the basis state with only bit j set) and Apply multiplies
// the current state by it in O(popcount) conditional XORs.
//
// Jumps compose: NewJump(a).Mul(NewJump(b)) is the (a+b)-step jump.
// The lazy source builds one jump per Measure over every draw earlier
// months consumed instead of replaying those windows draw by draw.
type Jump struct {
	// cols[j] is T^n applied to the basis vector e_j, packed as the four
	// 64-bit state words (s0,s1,s2,s3). Bit j of the input state selects
	// whether cols[j] is XORed into the output.
	cols [256][4]uint64
}

// powers is the shared table of power-of-two jumps: powers[i] is the
// 2^i-step matrix T^(2^i). It grows on demand, one squaring per new
// entry, only up to the highest bit any NewJump has asked for, so it
// holds ~8 KB × log2(n) for the largest n seen. Entries are immutable
// once appended; powersMu guards the growth, so concurrent campaigns
// (two lazy sources in one service, two sweep corners) share the table
// race-free.
var (
	powersMu sync.Mutex
	powers   []*Jump
)

// powersTo returns the table's first hi+1 entries, growing it first if
// needed. The returned slice is safe to read without the lock: later
// growth only appends past it.
func powersTo(hi int) []*Jump {
	powersMu.Lock()
	defer powersMu.Unlock()
	if len(powers) == 0 {
		powers = append(powers, stepMatrix())
	}
	for len(powers) <= hi {
		last := powers[len(powers)-1]
		powers = append(powers, last.Mul(last))
	}
	return powers[:hi+1]
}

// stepMatrix builds the 1-step transition matrix by pushing each basis
// state through the Uint64 transition.
func stepMatrix() *Jump {
	m := &Jump{}
	for j := 0; j < 256; j++ {
		var s Source
		switch j >> 6 {
		case 0:
			s.s0 = 1 << (uint(j) & 63)
		case 1:
			s.s1 = 1 << (uint(j) & 63)
		case 2:
			s.s2 = 1 << (uint(j) & 63)
		default:
			s.s3 = 1 << (uint(j) & 63)
		}
		s.Uint64()
		m.cols[j] = [4]uint64{s.s0, s.s1, s.s2, s.s3}
	}
	return m
}

// identityJump returns the 0-step jump (the identity matrix).
func identityJump() *Jump {
	m := &Jump{}
	for j := 0; j < 256; j++ {
		m.cols[j][j>>6] = 1 << (uint(j) & 63)
	}
	return m
}

// apply multiplies the packed state vector v by the matrix m (v as a
// column of input bits selecting columns of m).
func (m *Jump) apply(v [4]uint64) [4]uint64 {
	var out [4]uint64
	for w := 0; w < 4; w++ {
		word := v[w]
		base := w << 6
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			c := &m.cols[base+b]
			out[0] ^= c[0]
			out[1] ^= c[1]
			out[2] ^= c[2]
			out[3] ^= c[3]
		}
	}
	return out
}

// Mul returns the composition m∘other: applying the result equals applying
// other first, then m. For jump matrices the order is immaterial (powers of
// one matrix commute), so Mul(NewJump(a), NewJump(b)) is the (a+b)-step
// jump either way.
func (m *Jump) Mul(other *Jump) *Jump {
	out := &Jump{}
	for j := 0; j < 256; j++ {
		out.cols[j] = m.apply(other.cols[j])
	}
	return out
}

// NewJump returns the n-step jump: the product of the cached
// power-of-two matrices T^(2^i) over the set bits of n, popcount(n)-1
// matrix products once the table reaches bit log2(n). Building a jump
// costs tens of microseconds; applying one costs microseconds.
func NewJump(n uint64) *Jump {
	if n == 0 {
		return identityJump()
	}
	table := powersTo(bits.Len64(n) - 1)
	var result *Jump
	for i, p := range table {
		if n>>uint(i)&1 == 0 {
			continue
		}
		if result == nil {
			cp := *p
			result = &cp
		} else {
			result = result.Mul(p)
		}
	}
	return result
}

// Apply advances r's state by the jump's step count, exactly as that many
// Uint64 calls would. The Gaussian spare cache is cleared: a jump lands the
// stream at a draw boundary, and the uniform-only consumers (power-up
// noise) never populate the spare, so clearing is the correct (and safe)
// behaviour for mixed callers.
func (m *Jump) Apply(r *Source) {
	out := m.apply([4]uint64{r.s0, r.s1, r.s2, r.s3})
	r.s0, r.s1, r.s2, r.s3 = out[0], out[1], out[2], out[3]
	r.hasSpare = false
	r.spare = 0
}
