package entropy

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

func vec(bits ...int) *bitvec.Vector {
	v := bitvec.New(len(bits))
	for i, b := range bits {
		if b == 1 {
			v.Set(i, true)
		}
	}
	return v
}

func TestOneProbabilities(t *testing.T) {
	ms := []*bitvec.Vector{
		vec(1, 0, 1, 0),
		vec(1, 0, 0, 0),
		vec(1, 0, 1, 0),
		vec(1, 0, 0, 0),
	}
	p, err := OneProbabilities(ms)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0, 0.5, 0}
	for i := range want {
		if p[i] != want[i] {
			t.Errorf("bit %d: p = %v, want %v", i, p[i], want[i])
		}
	}
}

func TestOneProbabilitiesErrors(t *testing.T) {
	if _, err := OneProbabilities(nil); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := OneProbabilities([]*bitvec.Vector{vec(0), vec(0, 1)}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestOneProbabilitiesWideVector(t *testing.T) {
	// Exercise the word-packed fast path across word boundaries.
	const n = 200
	a := bitvec.New(n)
	b := bitvec.New(n)
	for i := 0; i < n; i += 3 {
		a.Set(i, true)
	}
	p, err := OneProbabilities([]*bitvec.Vector{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 0.0
		if i%3 == 0 {
			want = 0.5
		}
		if p[i] != want {
			t.Fatalf("bit %d: p = %v, want %v", i, p[i], want)
		}
	}
}

func TestStableCells(t *testing.T) {
	// Over 1000 measurements: counts 0 and 1000 are stable; 500, 999 and 1
	// are not.
	counts := []int{0, 1000, 500, 999, 1, 1000, 0}
	idx := stableCells(counts, 1000)
	want := []int{0, 1, 5, 6}
	if len(idx) != len(want) {
		t.Fatalf("stable indices = %v, want %v", idx, want)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("stable indices = %v, want %v", idx, want)
		}
	}
	r, err := StableCellRatio(counts, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-4.0/7.0) > 1e-12 {
		t.Fatalf("ratio = %v, want 4/7", r)
	}
	if _, err := StableCellRatio(nil, 0); err == nil {
		t.Error("empty counts accepted")
	}
}

// TestStableCellsCountBasedRegression is the ROADMAP p == 1 bug as a test:
// for n = 49, float64(49)*(1/float64(49)) != 1, so the historical
// probability comparison classified a fully-stable one-cell as unstable.
// The count-based comparison must not.
func TestStableCellsCountBasedRegression(t *testing.T) {
	const n = 49
	if float64(n)*(1/float64(n)) == 1 {
		t.Fatalf("n = %d no longer exhibits the rounding the regression guards", n)
	}
	// One measurement set: a cell stuck at one, a cell stuck at zero, and
	// a cell that flipped once.
	ms := make([]*bitvec.Vector, n)
	for k := range ms {
		v := bitvec.New(3)
		v.Set(0, true)
		v.Set(2, k == 7)
		ms[k] = v
	}
	counts, got, err := OneCounts(ms)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("measurement count = %d, want %d", got, n)
	}
	idx := stableCells(counts, n)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Fatalf("stable indices = %v, want [0 1]", idx)
	}
	r, err := StableCellRatio(counts, n)
	if err != nil {
		t.Fatal(err)
	}
	if r != 2.0/3.0 {
		t.Fatalf("ratio = %v, want 2/3", r)
	}
}

func TestNoiseMinEntropy(t *testing.T) {
	// One perfectly balanced bit contributes 1; stable bits contribute 0.
	probs := []float64{0, 1, 0.5, 1, 0, 0, 0, 0}
	h, err := NoiseMinEntropy(probs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-1.0/8.0) > 1e-12 {
		t.Fatalf("Hmin = %v, want 0.125", h)
	}
	// p = 0.75 contributes -log2(0.75).
	h2, err := NoiseMinEntropy([]float64{0.75})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h2+math.Log2(0.75)) > 1e-12 {
		t.Fatalf("Hmin = %v, want %v", h2, -math.Log2(0.75))
	}
	if _, err := NoiseMinEntropy(nil); err == nil {
		t.Error("empty probs accepted")
	}
}

func TestNoiseMinEntropySymmetric(t *testing.T) {
	a, _ := NoiseMinEntropy([]float64{0.3})
	b, _ := NoiseMinEntropy([]float64{0.7})
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("Hmin(0.3)=%v != Hmin(0.7)=%v", a, b)
	}
}

func TestPUFMinEntropy(t *testing.T) {
	// 4 devices, bit 0 split 2/2 (entropy 1), bit 1 all same (entropy 0),
	// bit 2 split 3/1 (entropy -log2(0.75)).
	patterns := []*bitvec.Vector{
		vec(1, 1, 1),
		vec(1, 1, 1),
		vec(0, 1, 1),
		vec(0, 1, 0),
	}
	h, err := PUFMinEntropy(patterns)
	if err != nil {
		t.Fatal(err)
	}
	want := (1 + 0 - math.Log2(0.75)) / 3
	if math.Abs(h-want) > 1e-12 {
		t.Fatalf("PUF Hmin = %v, want %v", h, want)
	}
	if _, err := PUFMinEntropy(patterns[:1]); err == nil {
		t.Error("single device accepted")
	}
}

func TestPUFMinEntropyUnbiasedSource(t *testing.T) {
	// 16 synthetic devices with unbiased random patterns: entropy should
	// be high (>0.6) but below 1 (finite-sample quantisation).
	src := rng.New(99)
	var patterns []*bitvec.Vector
	for d := 0; d < 16; d++ {
		v := bitvec.New(4096)
		for i := 0; i < 4096; i++ {
			v.Set(i, src.Bernoulli(0.5))
		}
		patterns = append(patterns, v)
	}
	h, err := PUFMinEntropy(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if h < 0.6 || h > 1 {
		t.Fatalf("PUF Hmin of unbiased source = %v", h)
	}
}

func BenchmarkOneProbabilities(b *testing.B) {
	src := rng.New(1)
	var ms []*bitvec.Vector
	for k := 0; k < 100; k++ {
		v := bitvec.New(8192)
		for i := 0; i < 8192; i++ {
			v.Set(i, src.Bernoulli(0.627))
		}
		ms = append(ms, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OneProbabilities(ms); err != nil {
			b.Fatal(err)
		}
	}
}

// stableCells returns the indices of cells that took the same value in
// every one of the n measurements — the paper's definition of a stable
// cell over one evaluation window (§IV-C1). The comparison is count-based
// (one-count exactly 0 or exactly n): the historical float test
// `p == 0 || p == 1` missed fully-stable cells for window sizes n where
// float64(n)*(1/float64(n)) != 1 (e.g. n = 49).
func stableCells(counts []int, n int) []int {
	var out []int
	for i, c := range counts {
		if c == 0 || c == n {
			out = append(out, i)
		}
	}
	return out
}
