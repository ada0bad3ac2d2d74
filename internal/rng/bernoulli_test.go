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

// String names the kernel in sub-test, benchmark and log lines.
func (k laneKernel) String() string {
	return [...]string{"fallback", "avx2", "avx512vl"}[k]
}

// laneKernels lists the kernels BernoulliLanes can run on this host: the
// per-lane fallback and every later kernel up to hostLaneKernel's.
// lanesKernel is restored when the test ends.
func laneKernels(tb testing.TB) []laneKernel {
	old := lanesKernel
	tb.Cleanup(func() { lanesKernel = old })
	var kernels []laneKernel
	for k := fallbackKernel; k <= hostLaneKernel(); k++ {
		kernels = append(kernels, k)
	}
	return kernels
}

// laneThresholds fills n thresholds from the edge values {0, 1, 2^53-1,
// 2^53} and uniform ones, chosen by r.
func laneThresholds(r *Source, n int) []uint64 {
	edges := []uint64{0, 1, 1<<53 - 1, 1 << 53}
	th := make([]uint64, n)
	for i := range th {
		if c := r.Intn(8); c < len(edges) {
			th[i] = edges[c]
		} else {
			th[i] = r.Uint64() >> 11
		}
	}
	return th
}

// checkLanes runs calls rounds of BernoulliLanes over k lanes of n cells
// and holds every lane to its own BernoulliWords calls: the same words
// each round, the same generator state after the last, every word past
// the last cell cleared, and the guard word after each destination
// untouched.
func checkLanes(t *testing.T, seed uint64, n, k, calls int) {
	t.Helper()
	const guard = 0x5a5a5a5a5a5a5a5a
	words := (n + 63) / 64
	r := New(seed)
	srcs := make([]*Source, k)
	refs := make([]*Source, k)
	ths := make([][]uint64, k)
	dst := make([][]uint64, k)
	buf := make([]uint64, k*(words+2))
	for i := range k {
		srcs[i] = r.Derive(uint64(i))
		refs[i] = r.Derive(uint64(i))
		ths[i] = laneThresholds(r, n)
		dst[i] = buf[i*(words+2) : i*(words+2)+words+1]
	}
	want := make([]uint64, words+1)
	for call := range calls {
		for i := range buf {
			buf[i] = guard
		}
		BernoulliLanes(srcs, ths, dst)
		for i := range k {
			refs[i].BernoulliWords(ths[i], want)
			for w := range want {
				if dst[i][w] != want[w] {
					t.Fatalf("n=%d k=%d call %d lane %d: word %d = %#x, want %#x", n, k, call, i, w, dst[i][w], want[w])
				}
			}
			if g := buf[i*(words+2)+words+1]; g != guard {
				t.Fatalf("n=%d k=%d call %d lane %d: guard word overwritten with %#x", n, k, call, i, g)
			}
		}
	}
	for i := range k {
		if *srcs[i] != *refs[i] {
			t.Fatalf("n=%d k=%d lane %d: state %+v, want %+v", n, k, i, *srcs[i], *refs[i])
		}
	}
}

// TestBernoulliLanesMatchScalar: on every kernel, each of one to four
// lanes (the four-lane kernels pad fewer than four) draws exactly what
// its own BernoulliWords calls would, across calls, for lengths on and
// off a word boundary.
func TestBernoulliLanesMatchScalar(t *testing.T) {
	for _, kernel := range laneKernels(t) {
		t.Run(kernel.String(), func(t *testing.T) {
			lanesKernel = kernel
			for _, n := range []int{0, 1, 63, 64, 128, 200, 8192} {
				for k := 1; k <= Lanes; k++ {
					checkLanes(t, uint64(100*n+k), n, k, 3)
				}
			}
		})
	}
}

func TestBernoulliLanesPanics(t *testing.T) {
	one := []*Source{New(1)}
	for name, call := range map[string]func(){
		"no lanes":   func() { BernoulliLanes(nil, nil, nil) },
		"five lanes": func() { BernoulliLanes(make([]*Source, 5), make([][]uint64, 5), make([][]uint64, 5)) },
		"short dst":  func() { BernoulliLanes(one, [][]uint64{make([]uint64, 65)}, [][]uint64{make([]uint64, 1)}) },
		"mixed sizes": func() {
			BernoulliLanes([]*Source{New(1), New(2)}, [][]uint64{make([]uint64, 2), make([]uint64, 3)}, make([][]uint64, 2))
		},
		"repeated source": func() {
			r := New(1)
			BernoulliLanes([]*Source{r, r}, [][]uint64{make([]uint64, 64), make([]uint64, 64)}, [][]uint64{make([]uint64, 1), make([]uint64, 1)})
		},
		"overlapping destinations": func() {
			words := make([]uint64, 3)
			BernoulliLanes([]*Source{New(1), New(2)}, [][]uint64{make([]uint64, 128), make([]uint64, 128)}, [][]uint64{words[:2], words[1:]})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzBernoulliLanes holds every kernel's lanes to BernoulliWords over
// fuzzed seeds, lengths and lane counts.
func FuzzBernoulliLanes(f *testing.F) {
	f.Add(uint64(1), uint16(8192), uint8(4))
	f.Add(uint64(2), uint16(65), uint8(3))
	f.Add(uint64(3), uint16(1), uint8(1))
	kernels := laneKernels(f)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, k uint8) {
		for _, kernel := range kernels {
			lanesKernel = kernel
			checkLanes(t, seed, int(n%4096), int(k%Lanes)+1, 2)
		}
	})
}

// BenchmarkBernoulliLanes reports ns per draw over an 8,192-cell window:
// one stream through BernoulliWords, and four streams through
// BernoulliLanes on every kernel the host has.
func BenchmarkBernoulliLanes(b *testing.B) {
	const n = 8192
	r := New(1)
	srcs, ths, dst := make([]*Source, Lanes), make([][]uint64, Lanes), make([][]uint64, Lanes)
	for i := range Lanes {
		srcs[i], ths[i], dst[i] = r.Derive(uint64(i)), laneThresholds(r, n), make([]uint64, n/64)
	}
	perDraw := func(b *testing.B, draws int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(draws), "ns/draw")
	}
	b.Run("scalar", func(b *testing.B) {
		for b.Loop() {
			srcs[0].BernoulliWords(ths[0], dst[0])
		}
		perDraw(b, n)
	})
	for _, kernel := range laneKernels(b) {
		b.Run(kernel.String(), func(b *testing.B) {
			lanesKernel = kernel
			for b.Loop() {
				BernoulliLanes(srcs, ths, dst)
			}
			perDraw(b, Lanes*n)
		})
	}
}
