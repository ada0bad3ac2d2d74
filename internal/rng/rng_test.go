package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeeds(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical outputs for distinct seeds", same)
	}
}

func TestDeriveDeterministicAndIndependent(t *testing.T) {
	parent := New(7)
	c1 := parent.Derive(3)
	c2 := parent.Derive(3)
	c3 := parent.Derive(4)
	for i := 0; i < 100; i++ {
		v1, v2, v3 := c1.Uint64(), c2.Uint64(), c3.Uint64()
		if v1 != v2 {
			t.Fatalf("same-label derivation diverged at %d", i)
		}
		if v1 == v3 {
			t.Fatalf("distinct-label derivation collided at %d", i)
		}
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Derive(1)
	_ = a.Derive(2)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Derive advanced the parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	// Standard error is 1/sqrt(12n) ~ 0.00065; allow 5 sigma.
	if math.Abs(mean-0.5) > 0.0033 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]int)
	const n = 30000
	for i := 0; i < n; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v]++
	}
	for v := 0; v < 7; v++ {
		// Expected n/7 ~ 4285; allow wide tolerance.
		if seen[v] < 3800 || seen[v] > 4800 {
			t.Fatalf("Intn(7) value %d seen %d times, expected ~%d", v, seen[v], n/7)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(0).Intn(0)
}

func TestBernoulli(t *testing.T) {
	r := New(6)
	const n = 100000
	for _, p := range []float64{0.0, 0.1, 0.5, 0.9, 1.0} {
		count := 0
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				count++
			}
		}
		got := float64(count) / n
		tol := 5 * math.Sqrt(p*(1-p)/n) // 5 sigma
		if math.Abs(got-p) > tol+1e-12 {
			t.Fatalf("Bernoulli(%v): frequency %v", p, got)
		}
	}
	if r.Bernoulli(-0.5) {
		t.Error("Bernoulli(-0.5) returned true")
	}
	if !r.Bernoulli(1.5) {
		t.Error("Bernoulli(1.5) returned false")
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.015 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPerm(t *testing.T) {
	r := New(10)
	p := r.Perm(50)
	if len(p) != 50 {
		t.Fatalf("Perm len = %d", len(p))
	}
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.NormFloat64()
	}
	_ = sink
}

func BenchmarkBernoulli(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		if r.Bernoulli(0.627) {
			n++
		}
	}
	_ = n
}
