package sramaging

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestFacadeCampaign(t *testing.T) {
	a, err := NewAssessment(WithDevices(2), WithMonths(2), WithWindowSize(50))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTableI(res.Table)
	if !strings.Contains(out, "WCHD") || !strings.Contains(out, "PUF entropy") {
		t.Fatalf("table rendering:\n%s", out)
	}
}

func TestFacadeChipAndTRNG(t *testing.T) {
	profile, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	chip, err := NewChip(profile, 7)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTRNG(chip)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := io.ReadFull(gen, buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, make([]byte, 64)) {
		t.Fatal("TRNG produced zeros")
	}
}

func TestFacadeKeyExtractor(t *testing.T) {
	e, err := NewKeyExtractor()
	if err != nil {
		t.Fatal(err)
	}
	if e.ResponseBits() != 1265 {
		t.Fatalf("response bits = %d, want 1265", e.ResponseBits())
	}
	profile, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	chip, err := NewChip(profile, 9)
	if err != nil {
		t.Fatal(err)
	}
	w, err := chip.PowerUpWindow()
	if err != nil {
		t.Fatal(err)
	}
	resp := w.Slice(0, e.ResponseBits())
	key, helper, err := e.Enroll(resp, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Fresh measurement of the same chip reconstructs.
	w2, err := chip.PowerUpWindow()
	if err != nil {
		t.Fatal(err)
	}
	back, err := e.Reconstruct(w2.Slice(0, e.ResponseBits()), helper)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(key, back) {
		t.Fatal("key reconstruction mismatch")
	}
}

func TestFacadeTrajectories(t *testing.T) {
	nom, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	acc, err := CMOS65nmAccelerated()
	if err != nil {
		t.Fatal(err)
	}
	tn, err := PredictedWCHDTrajectory(nom, 12)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := PredictedWCHDTrajectory(acc, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(tn) != 13 || len(ta) != 13 {
		t.Fatalf("trajectory lengths %d/%d", len(tn), len(ta))
	}
	if ta[0] <= tn[0] {
		t.Fatal("accelerated profile should start at higher WCHD (5.3% vs 2.49%)")
	}
}
