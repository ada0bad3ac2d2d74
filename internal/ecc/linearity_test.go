package ecc

import (
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// linearCode asserts the GF(2) linearity of an encoder:
// Encode(a XOR b) == Encode(a) XOR Encode(b), and Encode(0) == 0.
func assertLinear(t *testing.T, c Code, seed uint64) {
	t.Helper()
	zero, err := c.Encode(bitvec.New(c.K()))
	if err != nil {
		t.Fatalf("%s: encode zero: %v", c.Name(), err)
	}
	if zero.HammingWeight() != 0 {
		t.Fatalf("%s: zero message encodes to weight %d", c.Name(), zero.HammingWeight())
	}
	src := rng.New(seed)
	f := func(raw uint64) bool {
		gen := src.Derive(raw)
		a := bitvec.New(c.K())
		b := bitvec.New(c.K())
		for i := 0; i < c.K(); i++ {
			a.Set(i, gen.Bernoulli(0.5))
			b.Set(i, gen.Bernoulli(0.5))
		}
		ca, err := c.Encode(a)
		if err != nil {
			return false
		}
		cb, err := c.Encode(b)
		if err != nil {
			return false
		}
		ab, err := a.Xor(b)
		if err != nil {
			return false
		}
		cab, err := c.Encode(ab)
		if err != nil {
			return false
		}
		want, err := ca.Xor(cb)
		if err != nil {
			return false
		}
		return cab.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatalf("%s: linearity violated: %v", c.Name(), err)
	}
}

func TestGolayLinearity(t *testing.T) {
	assertLinear(t, NewGolay(), 1)
}

func TestRepetitionLinearity(t *testing.T) {
	r, err := NewRepetition(7)
	if err != nil {
		t.Fatal(err)
	}
	assertLinear(t, r, 3)
}

func TestConcatenatedLinearity(t *testing.T) {
	rep, err := NewRepetition(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConcatenated(NewGolay(), rep)
	if err != nil {
		t.Fatal(err)
	}
	assertLinear(t, c, 4)
}

func TestBlockedLinearity(t *testing.T) {
	b, err := NewBlocked(NewGolay(), 3)
	if err != nil {
		t.Fatal(err)
	}
	assertLinear(t, b, 5)
}

// TestDecodeEncodeFixedPoint: decoding an uncorrupted codeword always
// returns the original message (property over random messages).
func TestDecodeEncodeFixedPoint(t *testing.T) {
	codes := []Code{NewGolay()}
	if rep, err := NewRepetition(9); err == nil {
		codes = append(codes, rep)
	}
	src := rng.New(6)
	for _, c := range codes {
		f := func(raw uint64) bool {
			gen := src.Derive(raw)
			msg := bitvec.New(c.K())
			for i := 0; i < c.K(); i++ {
				msg.Set(i, gen.Bernoulli(0.5))
			}
			cw, err := c.Encode(msg)
			if err != nil {
				return false
			}
			dec, err := c.Decode(cw)
			if err != nil {
				return false
			}
			return dec.Equal(msg)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: clean decode not identity: %v", c.Name(), err)
		}
	}
}
