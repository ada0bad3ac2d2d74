package sram

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/silicon"
)

// TestResetMatchesFreshNew: a Reset array is bit-identical to a freshly
// constructed one for the same seed — including after the scratch array
// lived a whole prior life as a different chip (different seed, noise
// scale, age, and sampled windows).
func TestResetMatchesFreshNew(t *testing.T) {
	p, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := New(p, rng.New(111))
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the scratch chip thoroughly before the rebuild.
	if err := scratch.SetNoiseScale(1.7); err != nil {
		t.Fatal(err)
	}
	if err := scratch.AgeTo(5); err != nil {
		t.Fatal(err)
	}
	if _, err := scratch.PowerUpWindow(); err != nil {
		t.Fatal(err)
	}

	scratch.Reset(rng.New(222))
	fresh, err := New(p, rng.New(222))
	if err != nil {
		t.Fatal(err)
	}
	if scratch.ageMonths != 0 || scratch.PowerUps() != 0 || scratch.noiseScale != 1 {
		t.Fatalf("Reset left state: age=%v powerUps=%d scale=%v",
			scratch.ageMonths, scratch.PowerUps(), scratch.noiseScale)
	}
	for _, months := range []float64{0, 3, 12} {
		if err := scratch.AgeTo(months); err != nil {
			t.Fatal(err)
		}
		if err := fresh.AgeTo(months); err != nil {
			t.Fatal(err)
		}
		ws, err := scratch.PowerUpWindow()
		if err != nil {
			t.Fatal(err)
		}
		wf, err := fresh.PowerUpWindow()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ws.Len(); i++ {
			if ws.Get(i) != wf.Get(i) {
				t.Fatalf("month %v: bit %d differs between Reset and fresh chip", months, i)
			}
		}
	}
}

// TestJumpNoiseMatchesSampling: fast-forwarding the noise stream with a
// jump lands on exactly the draw the discarded windows would have left
// next — the identity lazy construction uses to skip already-evaluated
// windows.
func TestJumpNoiseMatchesSampling(t *testing.T) {
	p, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	const skipWindows = 3
	bits := p.ReadWindowBits()
	sampled, err := New(p, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	jumped, err := New(p, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < skipWindows; i++ {
		if _, err := sampled.PowerUpWindow(); err != nil {
			t.Fatal(err)
		}
	}
	jumped.JumpNoise(rng.NewJump(uint64(skipWindows) * uint64(bits)))
	ws, err := sampled.PowerUpWindow()
	if err != nil {
		t.Fatal(err)
	}
	wj, err := jumped.PowerUpWindow()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ws.Len(); i++ {
		if ws.Get(i) != wj.Get(i) {
			t.Fatalf("bit %d differs between sampled and jumped streams", i)
		}
	}
}
