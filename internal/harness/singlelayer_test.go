package harness

import (
	"testing"

	"repro/internal/store"
)

// TestSingleLayerRig verifies the rig also runs without a partner layer
// (no handshake; Algorithm 1 degenerates to a plain cycle loop).
func TestSingleLayerRig(t *testing.T) {
	cfg := testConfig(t)
	cfg.Layers = 1
	cfg.SlavesPerLayer = 3
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Boards()) != 3 {
		t.Fatalf("boards = %d", len(r.Boards()))
	}
	if n := len(collect(t, r, 5, store.Epoch)); n != 15 {
		t.Fatalf("records = %d, want 15", n)
	}
}

// TestConsecutiveWindows runs two windows back to back on the same rig,
// as the campaign driver does, and checks counters continue correctly.
func TestConsecutiveWindows(t *testing.T) {
	r := smallRig(t, 1)
	collect(t, r, 3, store.MonthlyWindowStart(0))
	second := collect(t, r, 2, store.MonthlyWindowStart(1))
	if got := len(second); got != 4 {
		t.Fatalf("second window produced %d records, want 4", got)
	}
	// Board seq keeps counting across windows.
	recs := byBoard(second)[0]
	if recs[len(recs)-1].Seq != 5 {
		t.Fatalf("final seq = %d, want 5", recs[len(recs)-1].Seq)
	}
}

// TestRigAgingBetweenWindows ages the arrays between windows and checks
// the within-class distance to the first window's reference increases —
// the rig-level version of the campaign's core measurement.
func TestRigAgingBetweenWindows(t *testing.T) {
	r := smallRig(t, 1)
	w0 := byBoard(collect(t, r, 20, store.MonthlyWindowStart(0)))[0]
	if len(w0) != 20 {
		t.Fatalf("month 0 holds %d records, want 20", len(w0))
	}
	ref := w0[0].Data
	meanFHD := func(recs []store.Record) float64 {
		s := 0.0
		for _, rec := range recs {
			f, err := rec.Data.FractionalHammingDistance(ref)
			if err != nil {
				t.Fatal(err)
			}
			s += f
		}
		return s / float64(len(recs))
	}
	start := meanFHD(w0)
	for _, a := range r.Arrays() {
		if err := a.AgeTo(24); err != nil {
			t.Fatal(err)
		}
	}
	w24 := byBoard(collect(t, r, 20, store.MonthlyWindowStart(24)))[0]
	if len(w24) != 20 {
		t.Fatalf("month 24 holds %d records, want 20", len(w24))
	}
	end := meanFHD(w24)
	if end <= start {
		t.Fatalf("rig-level WCHD did not increase with aging: %v -> %v", start, end)
	}
}
