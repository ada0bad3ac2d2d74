package keylife

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/fuzzy"
	"repro/internal/silicon"
)

// runWorkload drives a workload through a real engine over a small sim
// campaign and returns the monthly evaluations.
func runWorkload(t *testing.T, wl *Workload, profile silicon.DeviceProfile, devices, months, window int, seed uint64) []core.MonthEval {
	t.Helper()
	src, err := core.NewSimSource(profile, devices, seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewAssessment(core.AssessmentConfig{
		Source:       src,
		WindowSize:   window,
		Months:       core.MonthRange(months),
		Metrics:      wl.Metrics(),
		CrossMetrics: wl.CrossMetrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res.Monthly
}

func TestConfigValidation(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := New(ctx, Config{Profile: profile, Devices: 0, Seed: 1}); !errors.Is(err, core.ErrConfig) {
		t.Fatalf("0 devices: err = %v, want ErrConfig", err)
	}
	// A code without a known minimum distance has no correction radius.
	ext, err := fuzzy.New(radiuslessCode{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ctx, Config{Profile: profile, Devices: 2, Seed: 1, Extractor: ext}); !errors.Is(err, core.ErrConfig) {
		t.Fatalf("radius-less code: err = %v, want ErrConfig", err)
	}
	// A supplied mask set must cover every device.
	if _, err := New(ctx, Config{Profile: profile, Devices: 2, Seed: 1, Masks: []*bitvec.Vector{bitvec.New(8)}}); !errors.Is(err, core.ErrConfig) {
		t.Fatalf("short mask set: err = %v, want ErrConfig", err)
	}
}

func TestDefaultSchemeShape(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	wl, err := New(context.Background(), Config{Profile: profile, Devices: 2, Seed: 7, BurnInWindow: 20})
	if err != nil {
		t.Fatal(err)
	}
	// 11 × (Golay(23,12) ∘ rep(5)): N = 1265, K = 132, leakage 1133 bits,
	// t = 17 per 115-bit block.
	if wl.leak != 1133 {
		t.Fatalf("leakage = %v bits, want 1133", wl.leak)
	}
	if wl.radius != 17 || wl.blockN != 115 || wl.blocks != 11 {
		t.Fatalf("scheme shape = (t=%d, blockN=%d, blocks=%d), want (17, 115, 11)", wl.radius, wl.blockN, wl.blocks)
	}
	if len(wl.masks) != 2 {
		t.Fatalf("got %d masks, want 2", len(wl.masks))
	}
}

// TestSharedMasksBitIdentical: a workload built from another's harvested
// masks (the sweep path: screen once, share across points) streams the
// identical series to one that screens for itself.
func TestSharedMasksBitIdentical(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Profile: profile, Devices: 3, Seed: 42, BurnInWindow: 20}
	ctx := context.Background()
	screened, err := New(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := New(ctx, Config{Profile: profile, Devices: 3, Seed: 42, Masks: screened.masks})
	if err != nil {
		t.Fatal(err)
	}
	want := runWorkload(t, screened, profile, 3, 2, 30, 42)
	got := runWorkload(t, shared, profile, 3, 2, 30, 42)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("series differ between self-screened and shared-mask workloads")
	}
	if want[0].Custom[MetricSuccess] == nil {
		t.Fatal("workload streamed no keylife series")
	}
}

// TestMaskMismatchFailsLoudly: a workload screened against one profile
// cannot silently enroll a campaign measuring another — the mask length
// check fires at the enrollment month.
func TestMaskMismatchFailsLoudly(t *testing.T) {
	atmega, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	cmos, err := silicon.CMOS65nmAccelerated()
	if err != nil {
		t.Fatal(err)
	}
	if atmega.Cells() == cmos.Cells() {
		t.Skip("profiles share a cell count; mismatch not constructible")
	}
	wl, err := New(context.Background(), Config{Profile: atmega, Devices: 2, Seed: 5, BurnInWindow: 20})
	if err != nil {
		t.Fatal(err)
	}
	src, err := core.NewSimSource(cmos, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewAssessment(core.AssessmentConfig{
		Source:       src,
		WindowSize:   30,
		Months:       core.MonthRange(1),
		Metrics:      wl.Metrics(),
		CrossMetrics: wl.CrossMetrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); !errors.Is(err, core.ErrConfig) {
		t.Fatalf("cross-profile enrollment: err = %v, want ErrConfig", err)
	}
}

// TestEnrollmentMonthBaseline: the first evaluated month reports a clean
// enrollment — full margin, zero bit errors, success on every device —
// and a constant leakage series afterwards.
func TestEnrollmentMonthBaseline(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	wl, err := New(context.Background(), Config{Profile: profile, Devices: 2, Seed: 11, BurnInWindow: 20})
	if err != nil {
		t.Fatal(err)
	}
	monthly := runWorkload(t, wl, profile, 2, 2, 30, 11)
	if len(monthly) != 3 {
		t.Fatalf("got %d evaluations, want 3", len(monthly))
	}
	first := monthly[0]
	for d := 0; d < 2; d++ {
		if first.Custom[MetricSuccess][d] != 1 {
			t.Errorf("device %d: enrollment month success = %v, want 1", d, first.Custom[MetricSuccess][d])
		}
		if first.Custom[MetricBitErrors][d] != 0 {
			t.Errorf("device %d: enrollment month bit errors = %v, want 0", d, first.Custom[MetricBitErrors][d])
		}
		if first.Custom[MetricMargin][d] != 17 {
			t.Errorf("device %d: enrollment month margin = %v, want 17", d, first.Custom[MetricMargin][d])
		}
	}
	for _, ev := range monthly {
		if ev.CrossCustom[CrossLeakageBits] != 1133 {
			t.Errorf("month %d: leakage = %v, want 1133", ev.Month, ev.CrossCustom[CrossLeakageBits])
		}
		if ev.CrossCustom[CrossWorstMargin] > 17 {
			t.Errorf("month %d: worst margin %v exceeds the correction radius", ev.Month, ev.CrossCustom[CrossWorstMargin])
		}
	}
}

// radiuslessCode is a repetition(3) code implemented outside package
// ecc, so ecc.CorrectionRadius knows no radius for it.
type radiuslessCode struct{}

func (radiuslessCode) Name() string { return "radiusless" }
func (radiuslessCode) K() int       { return 1 }
func (radiuslessCode) N() int       { return 3 }

func (radiuslessCode) Encode(msg *bitvec.Vector) (*bitvec.Vector, error) {
	w := bitvec.New(3)
	w.SetAll(msg.Get(0))
	return w, nil
}

func (radiuslessCode) Decode(word *bitvec.Vector) (*bitvec.Vector, error) {
	m := bitvec.New(1)
	m.Set(0, word.HammingWeight() >= 2)
	return m, nil
}
