package sramaging

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/entropy"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/store"
)

// TestIntegrationArchivePipeline exercises the paper's complete data flow:
// rig simulation -> JSONL archive written record by record as the masters
// forward them -> binary conversion -> offline window selection -> metric
// computation, and checks the offline numbers agree with the in-memory
// campaign on the same seed.
func TestIntegrationArchivePipeline(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	const (
		devices = 4
		window  = 40
		seed    = 777
	)

	// Phase 1: collect two monthly windows through the full rig.
	hcfg := harness.DefaultConfig(profile, seed)
	hcfg.SlavesPerLayer = devices / 2
	rig, err := harness.New(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	jw := store.NewJSONLWriter(&jsonl)
	for m := 0; m <= 1; m++ {
		for _, a := range rig.Arrays() {
			if err := a.AgeTo(float64(m)); err != nil {
				t.Fatal(err)
			}
		}
		if err := rig.StreamWindow(window, m, jw.Write); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: offline analysis from the serialised archive, converted
	// into the binary format replay reads.
	archive, err := store.OpenIndexedBytes(jsonl.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := archive.TotalRecords(); got != devices*window*2 {
		t.Fatalf("archive has %d records, want %d", got, devices*window*2)
	}

	offlineWCHD := make([]float64, devices)
	var dec store.SegmentDecoder
	for d := 0; d < devices; d++ {
		var patterns []*Pattern
		if err := archive.ReadSegment(&dec, d, 0, window, func(rec *store.Record) error {
			patterns = append(patterns, rec.Data.Clone())
			return nil
		}); err != nil {
			t.Fatalf("board %d: no full month-0 window in the archive: %v", d, err)
		}
		wc, err := metrics.WithinClassHD(patterns[0], patterns)
		if err != nil {
			t.Fatal(err)
		}
		offlineWCHD[d] = wc.Mean
		counts, n, err := entropy.OneCounts(patterns)
		if err != nil {
			t.Fatal(err)
		}
		stable, err := entropy.StableCellRatio(counts, n)
		if err != nil {
			t.Fatal(err)
		}
		if stable < 0.8 || stable > 0.98 {
			t.Errorf("board %d offline stable ratio = %v", d, stable)
		}
	}

	// Phase 3: in-memory campaign on the same seed must agree exactly.
	camp, err := NewAssessment(WithProfile(profile), WithDevices(devices), WithMonths(1),
		WithWindowSize(window), WithSeed(seed), WithHarness())
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < devices; d++ {
		if math.Abs(res.Monthly[0].Devices[d].WCHD-offlineWCHD[d]) > 1e-12 {
			t.Fatalf("board %d: offline WCHD %v != campaign %v",
				d, offlineWCHD[d], res.Monthly[0].Devices[d].WCHD)
		}
	}
}

// TestIntegrationKeyLifecycleAcrossAging enrolls a key on a rig board and
// reconstructs it after the full simulated two years — the §II-A1
// application running on the complete stack.
func TestIntegrationKeyLifecycleAcrossAging(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	chip, err := NewChip(profile, 314)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewKeyExtractor()
	if err != nil {
		t.Fatal(err)
	}
	n := ext.ResponseBits()
	enroll, err := chip.PowerUpWindow()
	if err != nil {
		t.Fatal(err)
	}
	key, helper, err := ext.Enroll(enroll.Slice(0, n), rng.New(0x5EC))
	if err != nil {
		t.Fatal(err)
	}
	for _, month := range []float64{6, 12, 18, 24} {
		if err := chip.AgeTo(month); err != nil {
			t.Fatal(err)
		}
		w, err := chip.PowerUpWindow()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ext.Reconstruct(w.Slice(0, n), helper)
		if err != nil {
			t.Fatalf("month %v: %v", month, err)
		}
		if !bytes.Equal(got, key) {
			t.Fatalf("month %v: wrong key", month)
		}
	}
}

// TestIntegrationTRNGSurvivesAging checks the TRNG stays healthy and
// unbiased on an end-of-life chip.
func TestIntegrationTRNGSurvivesAging(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	chip, err := NewChip(profile, 315)
	if err != nil {
		t.Fatal(err)
	}
	if err := chip.AgeTo(24); err != nil {
		t.Fatal(err)
	}
	gen, err := NewTRNG(chip)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	total := 0
	for total < len(buf) {
		n, err := gen.Read(buf[total:])
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	ones := 0
	for _, b := range buf {
		for i := 0; i < 8; i++ {
			ones += int(b >> uint(i) & 1)
		}
	}
	frac := float64(ones) / float64(len(buf)*8)
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("aged TRNG output bias = %v", frac)
	}
}
