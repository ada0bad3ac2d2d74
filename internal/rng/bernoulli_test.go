package rng

import (
	"math"
	"testing"
)

// edgeProbabilities are the one-probabilities where an integer threshold
// could disagree with the float comparison: the ends of [0, 1], the
// smallest positive draw value, dyadic k/2^53 and their neighbouring
// floats, and values outside [0, 1].
func edgeProbabilities() []float64 {
	ps := []float64{0, 0.5, 1, 1 - 0x1p-53, -0.25, 1.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 0x1p-60}
	for _, k := range []float64{1, 2, 3, 1 << 20, 1<<52 + 1, 1<<53 - 1, 6004799503160661} {
		p := k / (1 << 53)
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	return ps
}

// TestBernoulliThresholdExact checks u>>11 < BernoulliThreshold(p) against
// Float64() < p for the draw values on both sides of every threshold.
func TestBernoulliThresholdExact(t *testing.T) {
	for _, p := range edgeProbabilities() {
		th := BernoulliThreshold(p)
		if th > 1<<53 {
			t.Fatalf("p=%v: threshold %d above 2^53", p, th)
		}
		for _, d := range []int64{-2, -1, 0, 1, 2} {
			m := int64(th) + d
			if m < 0 || m >= 1<<53 {
				continue
			}
			float := float64(m)/(1<<53) < p
			if integer := uint64(m) < th; integer != float {
				t.Fatalf("p=%v threshold %d: draw %d integer test %v, float test %v", p, th, m, integer, float)
			}
		}
	}
}

// TestBernoulliWordsMatchesFloatLoop: the bulk sampler sets exactly the
// bits the per-cell Float64() < p loop would, clears everything past the
// last cell, and leaves the generator where one Uint64 per cell would.
func TestBernoulliWordsMatchesFloatLoop(t *testing.T) {
	edges := edgeProbabilities()
	for _, n := range []int{1, 63, 64, 65, 8192} {
		pr := New(uint64(n))
		ps := make([]float64, n)
		thresholds := make([]uint64, n)
		for i := range ps {
			if i%2 == 0 {
				ps[i] = edges[(i/2)%len(edges)]
			} else {
				ps[i] = pr.Float64()
			}
			thresholds[i] = BernoulliThreshold(ps[i])
		}

		words := (n + 63) / 64
		want := make([]uint64, words+1)
		ref := New(7)
		for i, p := range ps {
			if ref.Float64() < p {
				want[i/64] |= 1 << uint(i%64)
			}
		}

		got := make([]uint64, words+1)
		for i := range got {
			got[i] = ^uint64(0) // every stale bit must be overwritten
		}
		src := New(7)
		src.BernoulliWords(thresholds, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: word %d = %#x, want %#x", n, i, got[i], want[i])
			}
		}
		if a, b := src.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("n=%d: generator left at %#x, want %#x", n, a, b)
		}
	}
}

func TestBernoulliWordsShortDestinationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("65 thresholds into one word did not panic")
		}
	}()
	New(1).BernoulliWords(make([]uint64, 65), make([]uint64, 1))
}

func BenchmarkBernoulliWords(b *testing.B) {
	thresholds := make([]uint64, 8192)
	r := New(1)
	for i := range thresholds {
		thresholds[i] = BernoulliThreshold(r.Float64())
	}
	dst := make([]uint64, 128)
	for b.Loop() {
		r.BernoulliWords(thresholds, dst)
	}
}
