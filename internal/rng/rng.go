// Package rng provides the deterministic random number generation used by
// every stochastic component of the simulator.
//
// Reproducibility is a hard requirement of the reproduction: a campaign run
// with the same seed must produce bit-identical measurement archives. The
// package therefore implements its own xoshiro256** generator (Blackman &
// Vigna) with SplitMix64 seeding instead of relying on math/rand's global
// state, and supports hierarchical stream derivation so that every device,
// cell population and month gets an independent, stable substream.
package rng

import (
	"math"
)

// Source is a xoshiro256** pseudo-random generator. It is NOT safe for
// concurrent use; derive one Source per goroutine with Derive.
type Source struct {
	s0, s1, s2, s3 uint64
	spare          float64 // cached second Gaussian from the polar method
	hasSpare       bool
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and stream derivation, as recommended by the
// xoshiro authors.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed via SplitMix64.
// Distinct seeds yield statistically independent streams.
func New(seed uint64) *Source {
	st := seed
	r := &Source{}
	r.s0 = splitMix64(&st)
	r.s1 = splitMix64(&st)
	r.s2 = splitMix64(&st)
	r.s3 = splitMix64(&st)
	// All-zero state is invalid for xoshiro; SplitMix64 cannot emit four
	// zeros in a row, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// Derive returns a new independent Source identified by label. Deriving the
// same label from the same parent always yields the same stream; distinct
// labels yield independent streams. The parent is not advanced.
func (r *Source) Derive(label uint64) *Source {
	d := &Source{}
	r.DeriveInto(label, d)
	return d
}

// DeriveInto is Derive writing into an existing Source — the
// allocation-free form used by hot paths that re-derive per-device
// streams in a reused scratch (lazy chip rebuilds re-derive three
// streams per device per month). Any prior state of d, including a
// cached Gaussian spare, is overwritten; deriving into the parent
// itself is allowed (the mixed state is computed first).
func (r *Source) DeriveInto(label uint64, d *Source) {
	// Mix the parent state with the label through SplitMix64 so sibling
	// streams decorrelate even for adjacent labels.
	st := r.s0 ^ rotl(r.s1, 13) ^ rotl(r.s2, 29) ^ rotl(r.s3, 43) ^ (label * 0xd1342543de82ef95)
	d.s0 = splitMix64(&st)
	d.s1 = splitMix64(&st)
	d.s2 = splitMix64(&st)
	d.s3 = splitMix64(&st)
	d.spare, d.hasSpare = 0, false
	if d.s0|d.s1|d.s2|d.s3 == 0 {
		d.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// BernoulliThreshold returns the integer threshold t for which a draw
// u = Uint64() satisfies u>>11 < t exactly when float64(u>>11)/2^53 < p,
// the Float64() < p test: t = ceil(p·2^53), clamped to [0, 2^53]. The
// product is exact (a power-of-two scaling), and an integer m lies below
// a real x exactly when it lies below ceil(x). NaN maps to 0, as no
// Float64() is below NaN.
func BernoulliThreshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// BernoulliWords samples one Bernoulli bit per threshold and packs them
// 64 to a word: bit i%64 of dst[i/64] is set when the i-th draw u has
// u>>11 < thresholds[i]. With thresholds from BernoulliThreshold this is
// the per-cell Float64() < p loop bit for bit, and the generator ends
// where len(thresholds) Uint64 calls would leave it. The state stays in
// locals for the whole call and the comparison is branch-free. Bits past
// the last threshold, and any words of dst past the last one needed, are
// cleared. dst must hold at least (len(thresholds)+63)/64 words.
func (r *Source) BernoulliWords(thresholds, dst []uint64) {
	n := len(thresholds)
	if len(dst) < (n+63)/64 {
		panic("rng: BernoulliWords destination too short")
	}
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for wi := range dst {
		lo := min(wi*64, n)
		dst[wi], s0, s1, s2, s3 = bernoulliWord(thresholds[lo:min(lo+64, n)], s0, s1, s2, s3)
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// bernoulliWord draws one output per threshold (at most 64) from the
// xoshiro256** state s0..s3 and returns the outcomes packed from bit 0,
// with the advanced state. It is BernoulliWords' inner loop, a function of
// its own so the state, the word and the loop fit in registers.
func bernoulliWord(thresholds []uint64, s0, s1, s2, s3 uint64) (uint64, uint64, uint64, uint64, uint64) {
	// Each outcome enters at bit 63 and moves down one bit per later
	// cell, so after the last one, shifting right by the number of
	// missing cells puts cell b at bit b (a shift by 64 yields 0).
	var word uint64
	for _, t := range thresholds {
		x := rotl(s1*5, 7) * 9
		u := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= u
		s3 = rotl(s3, 45)
		// x>>11 and t are both at most 2^53, so the difference's sign
		// bit is set exactly when x>>11 < t.
		word = word>>1 | ((x>>11)-t)&(1<<63)
	}
	return word >> (64 - len(thresholds)), s0, s1, s2, s3
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	c := t >> 32
	t = aHi*bLo + c
	tLo := t & mask32
	tHi := t >> 32
	t = aLo*bHi + tLo
	lo |= (t & mask32) << 32
	hi = aHi*bHi + tHi + t>>32
	return hi, lo
}

// Bernoulli returns true with probability p. Values of p outside [0,1]
// are clamped.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method with a cached spare.
func (r *Source) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (r *Source) Normal(mean, std float64) float64 {
	return mean + std*r.NormFloat64()
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomises the order of n elements using Fisher-Yates.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Fill writes uniformly random bytes into p.
func (r *Source) Fill(p []byte) {
	i := 0
	for ; i+8 <= len(p); i += 8 {
		v := r.Uint64()
		p[i] = byte(v)
		p[i+1] = byte(v >> 8)
		p[i+2] = byte(v >> 16)
		p[i+3] = byte(v >> 24)
		p[i+4] = byte(v >> 32)
		p[i+5] = byte(v >> 40)
		p[i+6] = byte(v >> 48)
		p[i+7] = byte(v >> 56)
	}
	if i < len(p) {
		v := r.Uint64()
		for ; i < len(p); i++ {
			p[i] = byte(v)
			v >>= 8
		}
	}
}
