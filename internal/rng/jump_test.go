package rng

import (
	"sync"
	"testing"
)

// TestNewJumpConcurrent builds jumps from many goroutines at once while
// the shared power table is still empty, so the table's growth races
// with its readers unless it is guarded; run it under -race. It comes
// first in the file so no earlier test has grown the table. Each jump
// is then checked against discarding draws.
func TestNewJumpConcurrent(t *testing.T) {
	ns := []uint64{1, 3, 64, 1000, 8192, 65_537, 250_000, 1<<20 + 5}
	jumps := make([]*Jump, len(ns))
	var wg sync.WaitGroup
	for i, n := range ns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jumps[i] = NewJump(n)
		}()
	}
	wg.Wait()
	for i, n := range ns {
		jumped, oracle := New(n), New(n)
		for k := uint64(0); k < n; k++ {
			oracle.Uint64()
		}
		jumps[i].Apply(jumped)
		if g, w := jumped.Uint64(), oracle.Uint64(); g != w {
			t.Fatalf("n=%d: output after jump = %#x, want %#x", n, g, w)
		}
	}
}

// TestJumpMatchesDiscard verifies Apply(NewJump(n)) against the oracle of
// discarding n outputs, across step counts spanning zero, small, and
// window-scale strides.
func TestJumpMatchesDiscard(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 3, 63, 64, 65, 1000, 8192, 250_000} {
		jumped := New(0xFEED_5EED ^ n)
		oracle := New(0xFEED_5EED ^ n)
		for i := uint64(0); i < n; i++ {
			oracle.Uint64()
		}
		NewJump(n).Apply(jumped)
		for i := 0; i < 16; i++ {
			if g, w := jumped.Uint64(), oracle.Uint64(); g != w {
				t.Fatalf("n=%d: output %d after jump = %#x, want %#x", n, i, g, w)
			}
		}
	}
}

// TestJumpCompose verifies that composed jumps equal the jump of the summed
// step count — the property the lazy source's cumulative fast-forward
// matrix relies on.
func TestJumpCompose(t *testing.T) {
	a, b := uint64(12_000), uint64(52_001)
	composed := NewJump(a).Mul(NewJump(b))
	direct := NewJump(a + b)
	viaComposed := New(99)
	viaDirect := New(99)
	composed.Apply(viaComposed)
	direct.Apply(viaDirect)
	for i := 0; i < 8; i++ {
		if g, w := viaComposed.Uint64(), viaDirect.Uint64(); g != w {
			t.Fatalf("output %d: composed %#x, direct %#x", i, g, w)
		}
	}
}

// TestJumpClearsSpare pins the contract that a jump lands at a draw
// boundary: any cached Gaussian spare from before the jump is dropped.
func TestJumpClearsSpare(t *testing.T) {
	r := New(7)
	r.NormFloat64() // populates the spare
	if !r.hasSpare {
		t.Fatal("expected a cached spare after one NormFloat64")
	}
	NewJump(10).Apply(r)
	if r.hasSpare {
		t.Fatal("jump must clear the Gaussian spare cache")
	}
}

func BenchmarkJumpApply(b *testing.B) {
	j := NewJump(250_000)
	r := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Apply(r)
	}
}
