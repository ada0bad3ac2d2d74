// Package ecc provides the error-correcting codes used by SRAM-PUF key
// generation (paper §II-A1): a helper-data scheme must correct the
// within-class bit error rate (2.5%–3.3% over the device lifetime, per
// Table I) with comfortable margin. Implemented codes:
//
//   - repetition codes (the classic inner code of PUF fuzzy extractors),
//   - the perfect binary Golay (23,12) code (3-error-correcting, syndrome
//     table decoding),
//   - code concatenation (outer code over repetition-coded inner bits).
package ecc

import (
	"errors"
	"fmt"

	"repro/internal/bitvec"
)

// Code is a binary block code.
type Code interface {
	// Name identifies the code, e.g. "repetition(5)".
	Name() string
	// K returns the message length in bits.
	K() int
	// N returns the codeword length in bits.
	N() int
	// Encode maps a K-bit message to an N-bit codeword.
	Encode(msg *bitvec.Vector) (*bitvec.Vector, error)
	// Decode maps a (possibly corrupted) N-bit word to the most likely
	// K-bit message.
	Decode(word *bitvec.Vector) (*bitvec.Vector, error)
}

// ErrBlockLength signals a message or word of the wrong size.
var ErrBlockLength = errors.New("ecc: wrong block length")

func checkLen(v *bitvec.Vector, want int, what string) error {
	if v == nil {
		return fmt.Errorf("%w: nil %s", ErrBlockLength, what)
	}
	if v.Len() != want {
		return fmt.Errorf("%w: %s has %d bits, want %d", ErrBlockLength, what, v.Len(), want)
	}
	return nil
}

// MinDistance returns the minimum Hamming distance of the code when it is
// known analytically: n for repetition(n), 7 for Golay(23,12), the product
// for concatenations, and the base distance for blocked codes (one block
// failing corrupts the whole message). The second return is false for
// codes without a known distance (a Code implemented outside this
// package).
func MinDistance(c Code) (int, bool) {
	switch v := c.(type) {
	case *Repetition:
		return v.n, true
	case *Golay:
		return 2*golayT + 1, true
	case *Concatenated:
		do, okOuter := MinDistance(v.outer)
		di, okInner := MinDistance(v.inner)
		if okOuter && okInner {
			return do * di, true
		}
	case *Blocked:
		return MinDistance(v.base)
	}
	return 0, false
}

// CorrectionRadius returns the guaranteed per-block correction budget
// t = (d-1)/2 of the code, when its minimum distance is known. For a
// Blocked code this is the budget of each base-code block, the quantity
// the key-lifecycle margin metric is measured against.
func CorrectionRadius(c Code) (int, bool) {
	d, ok := MinDistance(c)
	if !ok {
		return 0, false
	}
	return (d - 1) / 2, true
}

// ---------------------------------------------------------------------------
// Repetition code

// Repetition is the n-fold repetition code (n odd), decoded by majority.
type Repetition struct {
	n int
}

// NewRepetition returns a repetition code of odd length n >= 1.
func NewRepetition(n int) (*Repetition, error) {
	if n < 1 || n%2 == 0 {
		return nil, fmt.Errorf("ecc: repetition length must be odd and positive, got %d", n)
	}
	return &Repetition{n: n}, nil
}

// Name implements Code.
func (r *Repetition) Name() string { return fmt.Sprintf("repetition(%d)", r.n) }

// K implements Code.
func (r *Repetition) K() int { return 1 }

// N implements Code.
func (r *Repetition) N() int { return r.n }

// Encode implements Code.
func (r *Repetition) Encode(msg *bitvec.Vector) (*bitvec.Vector, error) {
	if err := checkLen(msg, 1, "message"); err != nil {
		return nil, err
	}
	out := bitvec.New(r.n)
	if msg.Get(0) {
		out.SetAll(true)
	}
	return out, nil
}

// Decode implements Code.
func (r *Repetition) Decode(word *bitvec.Vector) (*bitvec.Vector, error) {
	if err := checkLen(word, r.n, "word"); err != nil {
		return nil, err
	}
	out := bitvec.New(1)
	if 2*word.HammingWeight() > r.n {
		out.Set(0, true)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Block adapter: apply a base code across a multi-bit message

// Blocked applies a base code independently to consecutive message blocks,
// turning any (n,k) code into an (m*n, m*k) code.
type Blocked struct {
	base   Code
	blocks int
}

// NewBlocked wraps base to cover blocks consecutive message blocks.
func NewBlocked(base Code, blocks int) (*Blocked, error) {
	if base == nil {
		return nil, errors.New("ecc: nil base code")
	}
	if blocks < 1 {
		return nil, fmt.Errorf("ecc: need >= 1 block, got %d", blocks)
	}
	return &Blocked{base: base, blocks: blocks}, nil
}

// Name implements Code.
func (b *Blocked) Name() string { return fmt.Sprintf("%dx%s", b.blocks, b.base.Name()) }

// Base returns the per-block base code.
func (b *Blocked) Base() Code { return b.base }

// Blocks returns the number of independent base-code blocks.
func (b *Blocked) Blocks() int { return b.blocks }

// K implements Code.
func (b *Blocked) K() int { return b.blocks * b.base.K() }

// N implements Code.
func (b *Blocked) N() int { return b.blocks * b.base.N() }

// Encode implements Code.
func (b *Blocked) Encode(msg *bitvec.Vector) (*bitvec.Vector, error) {
	if err := checkLen(msg, b.K(), "message"); err != nil {
		return nil, err
	}
	out := bitvec.New(b.N())
	for i := 0; i < b.blocks; i++ {
		cw, err := b.base.Encode(msg.Slice(i*b.base.K(), (i+1)*b.base.K()))
		if err != nil {
			return nil, fmt.Errorf("ecc: block %d: %w", i, err)
		}
		for j := 0; j < cw.Len(); j++ {
			if cw.Get(j) {
				out.Set(i*b.base.N()+j, true)
			}
		}
	}
	return out, nil
}

// Decode implements Code.
func (b *Blocked) Decode(word *bitvec.Vector) (*bitvec.Vector, error) {
	if err := checkLen(word, b.N(), "word"); err != nil {
		return nil, err
	}
	out := bitvec.New(b.K())
	for i := 0; i < b.blocks; i++ {
		msg, err := b.base.Decode(word.Slice(i*b.base.N(), (i+1)*b.base.N()))
		if err != nil {
			return nil, fmt.Errorf("ecc: block %d: %w", i, err)
		}
		for j := 0; j < msg.Len(); j++ {
			if msg.Get(j) {
				out.Set(i*b.base.K()+j, true)
			}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Concatenation: outer code protected by an inner code

// Concatenated applies an inner code to every bit of the outer codeword —
// the classic PUF key-generation construction (outer algebraic code, inner
// repetition).
type Concatenated struct {
	outer Code
	inner Code
}

// NewConcatenated builds outer ∘ inner. The inner code must have K = 1
// (it protects individual outer codeword bits).
func NewConcatenated(outer, inner Code) (*Concatenated, error) {
	if outer == nil || inner == nil {
		return nil, errors.New("ecc: nil component code")
	}
	if inner.K() != 1 {
		return nil, fmt.Errorf("ecc: inner code must have K=1, got %d", inner.K())
	}
	return &Concatenated{outer: outer, inner: inner}, nil
}

// Name implements Code.
func (c *Concatenated) Name() string {
	return fmt.Sprintf("%s ∘ %s", c.outer.Name(), c.inner.Name())
}

// K implements Code.
func (c *Concatenated) K() int { return c.outer.K() }

// N implements Code.
func (c *Concatenated) N() int { return c.outer.N() * c.inner.N() }

// Encode implements Code.
func (c *Concatenated) Encode(msg *bitvec.Vector) (*bitvec.Vector, error) {
	cw, err := c.outer.Encode(msg)
	if err != nil {
		return nil, err
	}
	out := bitvec.New(c.N())
	one := bitvec.New(1)
	for i := 0; i < cw.Len(); i++ {
		one.Set(0, cw.Get(i))
		inner, err := c.inner.Encode(one)
		if err != nil {
			return nil, err
		}
		for j := 0; j < inner.Len(); j++ {
			if inner.Get(j) {
				out.Set(i*c.inner.N()+j, true)
			}
		}
	}
	return out, nil
}

// Decode implements Code.
func (c *Concatenated) Decode(word *bitvec.Vector) (*bitvec.Vector, error) {
	if err := checkLen(word, c.N(), "word"); err != nil {
		return nil, err
	}
	outerWord := bitvec.New(c.outer.N())
	for i := 0; i < c.outer.N(); i++ {
		bit, err := c.inner.Decode(word.Slice(i*c.inner.N(), (i+1)*c.inner.N()))
		if err != nil {
			return nil, err
		}
		outerWord.Set(i, bit.Get(0))
	}
	return c.outer.Decode(outerWord)
}
