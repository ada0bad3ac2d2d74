package sram

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// TestPowerUpWindowIntoDoesNotAllocate pins the sampling hot path: once
// the one-probability cache is built (a once-per-aging-step cost), every
// power-up draw must be allocation-free — it runs ~10^5 times per device
// per campaign.
func TestPowerUpWindowIntoDoesNotAllocate(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(profile, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	dst := bitvec.New(profile.ReadWindowBits())
	if err := a.PowerUpWindowInto(dst); err != nil { // builds the p-cache
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := a.PowerUpWindowInto(dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("PowerUpWindowInto: %v allocs per draw in steady state, want 0", n)
	}

	full := bitvec.New(a.Cells())
	if n := testing.AllocsPerRun(20, func() {
		if err := a.PowerUpWindowInto(full); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("PowerUp: %v allocs per draw in steady state, want 0", n)
	}
}
