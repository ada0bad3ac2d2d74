// Package trng implements the SRAM-PUF true random number generator of
// paper §II-A2, following the construction of van der Leest et al.
// (paper ref [12]): every power-up pattern carries noise entropy from the
// unstable cells (~3% min-entropy per bit, Table I); a conditioning
// function compresses each pattern into a short full-entropy seed.
//
// The generator applies continuous health tests in the spirit of NIST SP
// 800-90B: a flip-count test on consecutive patterns (detects a stuck or
// cloned source) and a repetition test on conditioned output blocks.
package trng

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"repro/internal/bitvec"
)

// PatternSource supplies successive SRAM power-up patterns — typically
// (*sram.Array).PowerUpWindow, or a board read-out in a real deployment.
type PatternSource func() (*bitvec.Vector, error)

// Config tunes the generator.
type Config struct {
	// BytesPerPattern is the conditioned output per power-up pattern. It
	// must stay safely below the measured noise min-entropy of the
	// pattern (paper: ~3% of 8192 bits = 249 bits; the default emits 128
	// bits, a 2x safety margin).
	BytesPerPattern int

	// MinFlipFraction / MaxFlipFraction bound the fractional Hamming
	// distance between consecutive patterns. Outside the band the source
	// is declared unhealthy: near-zero flips indicate a stuck source
	// (e.g. non-volatile retention), excessive flips indicate a
	// malfunction. The paper's WCHD band motivates the defaults.
	MinFlipFraction float64
	MaxFlipFraction float64
}

// DefaultConfig matches an 8192-bit read window with the paper's
// measured noise statistics.
func DefaultConfig() Config {
	return Config{
		BytesPerPattern: 16,
		MinFlipFraction: 0.002,
		MaxFlipFraction: 0.25,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.BytesPerPattern < 1:
		return fmt.Errorf("trng: BytesPerPattern %d < 1", c.BytesPerPattern)
	case c.MinFlipFraction < 0 || c.MaxFlipFraction <= c.MinFlipFraction || c.MaxFlipFraction > 1:
		return fmt.Errorf("trng: flip band [%v,%v] invalid", c.MinFlipFraction, c.MaxFlipFraction)
	}
	return nil
}

// ErrUnhealthy is returned when a health test trips; the generator latches
// the failure and refuses further output, per SP 800-90B practice.
var ErrUnhealthy = errors.New("trng: health test failure")

// Generator is a health-tested, conditioned random byte stream.
// It implements io.Reader.
type Generator struct {
	cfg     Config
	source  PatternSource
	prev    *bitvec.Vector
	buf     []byte
	counter uint64
	failed  error
	lastOut [32]byte
	haveOut bool

	patterns uint64
	emitted  uint64
}

// New creates a generator over the pattern source.
func New(source PatternSource, cfg Config) (*Generator, error) {
	if source == nil {
		return nil, errors.New("trng: nil pattern source")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, source: source}, nil
}

// Patterns returns the number of power-up patterns consumed.
func (g *Generator) Patterns() uint64 { return g.patterns }

// Emitted returns the number of random bytes produced.
func (g *Generator) Emitted() uint64 { return g.emitted }

// Read implements io.Reader. It never returns a short read unless the
// source fails or a health test trips.
func (g *Generator) Read(p []byte) (int, error) {
	if g.failed != nil {
		return 0, g.failed
	}
	n := 0
	for n < len(p) {
		if len(g.buf) == 0 {
			if err := g.refill(); err != nil {
				g.failed = err
				return n, err
			}
		}
		c := copy(p[n:], g.buf)
		g.buf = g.buf[c:]
		n += c
	}
	g.emitted += uint64(n)
	return n, nil
}

// refill consumes one pattern, health-tests it and conditions it into
// output bytes.
func (g *Generator) refill() error {
	pattern, err := g.source()
	if err != nil {
		return fmt.Errorf("trng: source: %w", err)
	}
	g.patterns++
	if g.prev != nil {
		fhd, err := pattern.FractionalHammingDistance(g.prev)
		if err != nil {
			return fmt.Errorf("trng: %w", err)
		}
		if fhd < g.cfg.MinFlipFraction || fhd > g.cfg.MaxFlipFraction {
			return fmt.Errorf("%w: consecutive-pattern flip fraction %.5f outside [%v, %v]",
				ErrUnhealthy, fhd, g.cfg.MinFlipFraction, g.cfg.MaxFlipFraction)
		}
	}
	g.prev = pattern.Clone()

	// Conditioning: domain-separated SHA-256 over the raw pattern and a
	// counter; output truncated to the entropy budget.
	h := sha256.New()
	h.Write([]byte("sram-puf-trng-v1"))
	var ctr [8]byte
	for i := 0; i < 8; i++ {
		ctr[i] = byte(g.counter >> (8 * uint(i)))
	}
	g.counter++
	h.Write(ctr[:])
	h.Write(pattern.Bytes())
	sum := h.Sum(nil)

	// Repetition health test on conditioned blocks: two identical
	// consecutive digests mean the source (and counter) repeated — an
	// impossible event for a live noise source.
	var block [32]byte
	copy(block[:], sum)
	if g.haveOut && block == g.lastOut {
		return fmt.Errorf("%w: repeated conditioned block", ErrUnhealthy)
	}
	g.lastOut = block
	g.haveOut = true

	out := g.cfg.BytesPerPattern
	if out > len(sum) {
		// Stretch via repeated hashing when more than 32 bytes per
		// pattern are requested (entropy budget permitting).
		for len(sum) < out {
			h2 := sha256.Sum256(sum)
			sum = append(sum, h2[:]...)
		}
	}
	g.buf = append(g.buf, sum[:out]...)
	return nil
}

var _ io.Reader = (*Generator)(nil)
