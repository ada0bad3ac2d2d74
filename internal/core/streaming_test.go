package core

import (
	"math"
	"reflect"
	"testing"
)

// assertResultsBitIdentical compares two campaign results field by field
// with exact (bit-level) float equality — the acceptance criterion of the
// streaming refactor.
func assertResultsBitIdentical(t *testing.T, a, b *Results) {
	t.Helper()
	if !reflect.DeepEqual(a.Monthly, b.Monthly) {
		for m := range a.Monthly {
			if !reflect.DeepEqual(a.Monthly[m], b.Monthly[m]) {
				t.Fatalf("month %d differs:\n  %+v\nvs\n  %+v", m, a.Monthly[m], b.Monthly[m])
			}
		}
		t.Fatal("monthly series differ")
	}
	if !reflect.DeepEqual(a.Table, b.Table) {
		t.Fatalf("Table I differs:\n  %+v\nvs\n  %+v", a.Table, b.Table)
	}
	if len(a.References) != len(b.References) {
		t.Fatalf("reference counts differ: %d vs %d", len(a.References), len(b.References))
	}
	for d := range a.References {
		if !a.References[d].Equal(b.References[d]) {
			t.Fatalf("device %d references differ", d)
		}
	}
}

// TestStreamingMatchesBatchDirect: on the direct path, the streaming
// engine and the two-pass batch oracle produce bit-identical
// Results for the same Config.Seed.
func TestStreamingMatchesBatchDirect(t *testing.T) {
	cases := []struct {
		workers int
		window  int
	}{
		{0, 120},
		// 49: a window size where float64(n)*(1/float64(n)) != 1, so the
		// stable-cell ratio is sensitive to the oracle's probability
		// rounding — regression for the Flips-vs-Ones mismatch.
		{2, 49},
	}
	for _, tc := range cases {
		cfg := smallConfig(t)
		cfg.Months = 3
		cfg.Workers = tc.workers
		cfg.WindowSize = tc.window

		streamed, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		resS, err := streamed.Run()
		if err != nil {
			t.Fatal(err)
		}
		batch, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		resB, err := batch.RunBatch()
		if err != nil {
			t.Fatal(err)
		}
		assertResultsBitIdentical(t, resS, resB)
	}
}

// TestStreamingMatchesBatchHarness: same property through the full rig
// simulation — the record tap feeds the accumulators the exact stream the
// archive used to buffer.
func TestStreamingMatchesBatchHarness(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Devices = 4
	cfg.Months = 1
	cfg.WindowSize = 40
	cfg.UseHarness = true

	streamed, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resS, err := streamed.Run()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := batch.RunBatch()
	if err != nil {
		t.Fatal(err)
	}
	assertResultsBitIdentical(t, resS, resB)
}

func TestAvgAndWorstOnEmptyEvaluation(t *testing.T) {
	var m MonthEval
	f := func(d DeviceMonth) float64 { return d.WCHD }
	if v := m.Avg(f); !math.IsNaN(v) {
		t.Errorf("Avg on empty evaluation = %v, want NaN", v)
	}
	if v := m.Worst(f, false); !math.IsNaN(v) {
		t.Errorf("Worst on empty evaluation = %v, want NaN", v)
	}
}
