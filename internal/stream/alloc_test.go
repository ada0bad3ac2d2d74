package stream

import (
	"testing"

	"repro/internal/bitvec"
)

// The steady-state per-measurement path must be allocation-free: one
// campaign is ~10^5 power-ups per device, and a single alloc per Add
// (or per window finalisation) multiplies into millions of objects.
// These tests pin the contract with the allocation counter, so a
// regression fails here before it shows up in the gated benchmarks.

// allocPatterns builds two distinct patterns of the given width.
func allocPatterns(bits int) (*bitvec.Vector, *bitvec.Vector) {
	a, b := bitvec.New(bits), bitvec.New(bits)
	for i := 0; i < bits; i += 3 {
		a.Set(i, true)
	}
	for i := 0; i < bits; i += 5 {
		b.Set(i, true)
	}
	return a, b
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s: %v allocs per call in steady state, want 0", name, n)
	}
}

func TestAccumulatorAddsDoNotAllocate(t *testing.T) {
	const bits = 512
	m1, m2 := allocPatterns(bits)

	wchd, err := NewWCHD(m1.Clone())
	if err != nil {
		t.Fatal(err)
	}
	fhw := NewFHW()
	ones := NewOnes()
	flips := NewFlips()
	dev := NewDevice(nil)
	for _, sink := range []sink{wchd, fhw, ones, flips, dev} {
		// Warm past the first-measurement state (reference adoption,
		// count-vector sizing) — that is a once-per-window cost.
		if err := sink.Add(m1); err != nil {
			t.Fatal(err)
		}
	}
	ms := []*bitvec.Vector{m1, m2}
	i := 0
	for name, sink := range map[string]sink{
		"WCHD.Add": wchd, "FHW.Add": fhw, "Ones.Add": ones, "Flips.Add": flips, "Device.Add": dev,
	} {
		assertZeroAllocs(t, name, func() {
			if err := sink.Add(ms[i%2]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}

	// Steady-state finalisers on the warmed accumulators: AllocsPerRun's
	// warm-up call flushes the low planes and sizes the term scratch.
	assertZeroAllocs(t, "Ones.NoiseMinEntropy", func() {
		if _, err := ones.NoiseMinEntropy(); err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "Device.Result", func() {
		if _, err := dev.Result(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOnesFinalisersDoNotAllocate(t *testing.T) {
	m1, m2 := allocPatterns(512)
	ones := NewOnes()
	for _, m := range []*bitvec.Vector{m1, m2, m1} {
		if err := ones.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	assertZeroAllocs(t, "Ones.NoiseMinEntropy", func() {
		if _, err := ones.NoiseMinEntropy(); err != nil {
			t.Fatal(err)
		}
	})
	dev := NewDevice(nil)
	for _, m := range []*bitvec.Vector{m1, m2, m1} {
		if err := dev.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	assertZeroAllocs(t, "Device.Result", func() {
		if _, err := dev.Result(); err != nil {
			t.Fatal(err)
		}
	})
	mask := bitvec.New(512)
	assertZeroAllocs(t, "Ones.StableMaskInto", func() {
		if err := ones.StableMaskInto(mask); err != nil {
			t.Fatal(err)
		}
	})
	assertZeroAllocs(t, "Ones.StableRatio", func() {
		if _, err := ones.StableRatio(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStableMaskIntoMatchesStableMask: the reuse form and the
// allocating form are the same classification bit for bit, including a
// dirty destination being fully overwritten.
func TestStableMaskIntoMatchesStableMask(t *testing.T) {
	for _, bits := range []int{1, 63, 64, 65, 200} {
		m1, m2 := allocPatterns(bits)
		ones := NewOnes()
		for _, m := range []*bitvec.Vector{m1, m2, m1, m1} {
			if err := ones.Add(m); err != nil {
				t.Fatal(err)
			}
		}
		want, err := ones.StableMask()
		if err != nil {
			t.Fatal(err)
		}
		got := bitvec.New(bits)
		got.SetAll(true) // a dirty destination must be fully overwritten
		if err := ones.StableMaskInto(got); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("bits=%d: StableMaskInto differs from StableMask", bits)
		}
		if err := ones.StableMaskInto(bitvec.New(bits + 1)); err == nil {
			t.Fatalf("bits=%d: mis-sized mask accepted", bits)
		}
	}
	if err := NewOnes().StableMaskInto(bitvec.New(8)); err != ErrNoMeasurements {
		t.Fatalf("empty accumulator: err = %v, want ErrNoMeasurements", err)
	}
}
