package ecc

import (
	"repro/internal/bitvec"
)

// Golay is the perfect binary Golay (23,12,7) code. It corrects any
// pattern of up to 3 bit errors; because the code is perfect, its 2^11
// syndromes are in one-to-one correspondence with the correctable error
// patterns, so decoding is an exact syndrome table lookup.
type Golay struct {
	// syndromeTable maps each 11-bit syndrome to its 23-bit error pattern
	// (as a uint32 bit mask).
	syndromeTable []uint32
}

const (
	golayN = 23
	golayK = 12
	// golayGen is the generator polynomial
	// g(x) = x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1, bit i = coefficient
	// of x^i.
	golayGen = 0xC75 // 1100 0111 0101
	golayT   = 3
)

// NewGolay constructs the code and its 2048-entry syndrome table.
func NewGolay() *Golay {
	g := &Golay{syndromeTable: make([]uint32, 1<<11)}
	// Enumerate all error patterns of weight 0..3 over 23 bits; the
	// perfect-code property guarantees each syndrome occurs exactly once.
	var fill func(start int, pattern uint32, weight int)
	fill = func(start int, pattern uint32, weight int) {
		g.syndromeTable[golaySyndrome(pattern)] = pattern
		if weight == golayT {
			return
		}
		for i := start; i < golayN; i++ {
			fill(i+1, pattern|1<<uint(i), weight+1)
		}
	}
	fill(0, 0, 0)
	return g
}

// golaySyndrome computes word mod g(x) over GF(2), where bit i of word is
// the coefficient of x^i.
func golaySyndrome(word uint32) uint32 {
	// Polynomial long division: reduce from the top bit down.
	for i := golayN - 1; i >= 11; i-- {
		if word&(1<<uint(i)) != 0 {
			word ^= golayGen << uint(i-11)
		}
	}
	return word & 0x7FF
}

// Name implements Code.
func (g *Golay) Name() string { return "golay(23,12)" }

// K implements Code.
func (g *Golay) K() int { return golayK }

// N implements Code.
func (g *Golay) N() int { return golayN }

// Encode implements Code using systematic encoding: the message occupies
// bits 11..22 (coefficients of x^11..x^22) and the parity bits 0..10 are
// the remainder of msg(x)·x^11 divided by g(x).
func (g *Golay) Encode(msg *bitvec.Vector) (*bitvec.Vector, error) {
	if err := checkLen(msg, golayK, "message"); err != nil {
		return nil, err
	}
	var m uint32
	for i := 0; i < golayK; i++ {
		if msg.Get(i) {
			m |= 1 << uint(i)
		}
	}
	shifted := m << 11
	parity := golaySyndrome(shifted)
	word := shifted | parity
	out := bitvec.New(golayN)
	for i := 0; i < golayN; i++ {
		if word&(1<<uint(i)) != 0 {
			out.Set(i, true)
		}
	}
	return out, nil
}

// Decode implements Code: syndrome lookup, error removal, message
// extraction. Words with more than 3 errors decode to a (wrong) nearby
// codeword, as with any bounded-distance decoder of a perfect code.
func (g *Golay) Decode(word *bitvec.Vector) (*bitvec.Vector, error) {
	if err := checkLen(word, golayN, "word"); err != nil {
		return nil, err
	}
	var w uint32
	for i := 0; i < golayN; i++ {
		if word.Get(i) {
			w |= 1 << uint(i)
		}
	}
	w ^= g.syndromeTable[golaySyndrome(w)]
	out := bitvec.New(golayK)
	for i := 0; i < golayK; i++ {
		if w&(1<<uint(11+i)) != 0 {
			out.Set(i, true)
		}
	}
	return out, nil
}
