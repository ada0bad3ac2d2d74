package sram

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// correlatedTestProfile builds a small cache-line-structured profile so
// model tests and the benchmark don't pay MB-scale allocation.
func correlatedTestProfile(t testing.TB) silicon.DeviceProfile {
	t.Helper()
	p, err := silicon.NewProfile("corr-test",
		silicon.WithGeometry(8192, 1024),
		silicon.WithCellModel(silicon.ModelCorrelated),
		silicon.WithLineStructure(512, 0.35),
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEmptyModelIsIID pins the compatibility contract of the model
// registry: a profile with Model == "" resolves to the i.i.d. model and
// produces the bit-identical chip it did before models existed.
func TestEmptyModelIsIID(t *testing.T) {
	base, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	if base.Model != "" {
		t.Fatalf("ATmega32u4 profile carries Model=%q, want empty (legacy form)", base.Model)
	}
	explicit := base
	explicit.Model = silicon.ModelIID

	a, err := New(base, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(explicit, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if a.Params() != b.Params() {
		t.Fatalf("device params diverge: %+v vs %+v", a.Params(), b.Params())
	}
	if err := a.AgeTo(3); err != nil {
		t.Fatal(err)
	}
	if err := b.AgeTo(3); err != nil {
		t.Fatal(err)
	}
	wa, err := a.PowerUpWindow()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := b.PowerUpWindow()
	if err != nil {
		t.Fatal(err)
	}
	fhd, err := wa.FractionalHammingDistance(wb)
	if err != nil {
		t.Fatal(err)
	}
	if fhd != 0 {
		t.Fatal("power-up patterns diverge between Model=\"\" and Model=\"iid\"")
	}
}

// TestCorrelatedLineStructure verifies the physical signature of the
// correlated model: the static skew of cells within one cache line is
// positively correlated (they share a per-line component) while cells in
// different lines are not, and the marginal distribution still matches
// the device's (Mu, Lambda) so calibrated reliability targets carry over.
// Only the read window is simulated (16 lines of this profile), so the
// test draws 512 devices: as many line pairs and skew samples as 64
// whole 128-line arrays would give.
func TestCorrelatedLineStructure(t *testing.T) {
	p := correlatedTestProfile(t)
	const devices = 512
	line := p.LineBits
	lines := p.ReadWindowBits() / line

	var within, cross float64 // products of centred line-mean pairs
	var nW, nC int
	var sum, sumSq float64
	root := rng.New(4242)
	for d := 0; d < devices; d++ {
		a, err := New(p, root.Derive(uint64(d)+1))
		if err != nil {
			t.Fatal(err)
		}
		mu := a.Params().Mu
		for i := 0; i < a.Cells(); i++ {
			s := a.Skew(i) - mu
			sum += s
			sumSq += s * s
		}
		// Correlation proxy: products of centred skew pairs. Same line →
		// shares the line component; adjacent lines → independent.
		for l := 0; l < lines-1; l++ {
			i := l * line
			within += (a.Skew(i) - mu) * (a.Skew(i+line/2) - mu)
			cross += (a.Skew(i) - mu) * (a.Skew(i+line) - mu)
			nW++
			nC++
		}
	}
	lambda := 0.0
	{
		// Pool the marginal moments across devices (per-device Lambda
		// jitters, so compare against the population value loosely).
		n := float64(devices * p.ReadWindowBits())
		lambda = math.Sqrt(sumSq/n - (sum/n)*(sum/n))
	}
	wAvg, cAvg := within/float64(nW), cross/float64(nC)
	if wAvg <= 0 {
		t.Fatalf("within-line covariance %v, want positive", wAvg)
	}
	if wAvg < 4*math.Abs(cAvg) {
		t.Fatalf("within-line covariance %v not clearly above cross-line %v", wAvg, cAvg)
	}
	if lambda < 0.7*p.Lambda || lambda > 1.3*p.Lambda {
		t.Fatalf("marginal skew sigma %v far from population Lambda %v — correlation split not variance-preserving", lambda, p.Lambda)
	}
}

// TestCorrelatedWindowIntoDoesNotAllocate extends the zero-alloc pin to
// the correlated model's steady-state window path: the model only shapes
// construction-time sampling, so the per-draw hot loop must stay free.
func TestCorrelatedWindowIntoDoesNotAllocate(t *testing.T) {
	a, err := New(correlatedTestProfile(t), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	dst := bitvec.New(a.Profile().ReadWindowBits())
	if err := a.PowerUpWindowInto(dst); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := a.PowerUpWindowInto(dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("correlated PowerUpWindowInto: %v allocs per draw, want 0", n)
	}
}

// BenchmarkCorrelatedPowerUp is the benchgate entry for the correlated
// model's steady-state window path. Allocs/op is pinned at zero in
// BENCH_baseline.json — the model must not leak per-draw work.
func BenchmarkCorrelatedPowerUp(b *testing.B) {
	a, err := New(correlatedTestProfile(b), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	dst := bitvec.New(a.Profile().ReadWindowBits())
	if err := a.PowerUpWindowInto(dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.PowerUpWindowInto(dst); err != nil {
			b.Fatal(err)
		}
	}
}
