package sramaging

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// sweepGrid is the ≥4-point temperature grid of the acceptance criteria.
var sweepTemps = []float64{0, 25, 85, 125}

// TestRunSweepNominalBitIdentical is the satellite bit-identity
// requirement: a sweep with a single nominal point must produce
// byte-identical Results to a plain NewAssessment run with the same
// seed/profile/devices — and identical across Workers=1 vs Workers=N.
func TestRunSweepNominalBitIdentical(t *testing.T) {
	runSweep := func(workers int) *SweepResults {
		t.Helper()
		a, err := NewAssessment(smallOpts(
			WithWorkers(workers),
			WithConditions(NominalRoomTemp),
		)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.RunSweep(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plainA, err := NewAssessment(smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plainA.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	one, many := runSweep(1), runSweep(4)
	for name, swept := range map[string]*SweepResults{"workers=1": one, "workers=4": many} {
		if len(swept.Points) != 1 {
			t.Fatalf("%s: %d points, want 1", name, len(swept.Points))
		}
		got := swept.Points[0].Results
		if !reflect.DeepEqual(got.Monthly, plain.Monthly) {
			t.Fatalf("%s: nominal sweep monthly series differ from plain assessment", name)
		}
		if !reflect.DeepEqual(got.Table, plain.Table) {
			t.Fatalf("%s: nominal sweep Table I differs from plain assessment", name)
		}
		for d := range plain.References {
			if !plain.References[d].Equal(got.References[d]) {
				t.Fatalf("%s: device %d reference differs", name, d)
			}
		}
	}
	if !reflect.DeepEqual(one.Comparison, many.Comparison) {
		t.Fatal("worker bound changed the sweep comparison")
	}
}

// TestRunSweepCancellationMidSweep cancels from the sweep progress
// callback with a 4-point temperature grid in flight: RunSweep must
// return promptly with context.Canceled and leak no goroutines.
func TestRunSweepCancellationMidSweep(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	a, err := NewAssessment(
		WithDevices(2),
		WithMonths(12),
		WithWindowSize(40),
		WithConditionGrid(sweepTemps, []float64{5.0}),
		WithSweepProgress(func(p SweepProgress) {
			if p.Eval.Month >= 1 {
				once.Do(cancel)
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := a.RunSweep(ctx)
	if res != nil {
		t.Fatal("cancelled sweep returned results")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled sweep took %v", elapsed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestRunSweepPreCancelled: a context cancelled before RunSweep starts
// must abort before any point measures anything.
func TestRunSweepPreCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	progressed := false
	a, err := NewAssessment(smallOpts(
		WithConditionGrid(sweepTemps, []float64{5.0}),
		WithSweepProgress(func(SweepProgress) { progressed = true }),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunSweep(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if progressed {
		t.Fatal("pre-cancelled sweep evaluated a month")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestSweepTypedErrors exercises the ErrConfig path of the sweep facade:
// invalid conditions fail at option time, mismatched option combinations
// fail at build time, and configuration failures inside RunSweep stay
// retryable while a completed sweep does not.
func TestSweepTypedErrors(t *testing.T) {
	// Invalid conditions fail fast at NewAssessment, before any side
	// effect — the typed ErrConfig path through the sweep facade.
	for _, sc := range []Scenario{
		{Name: "frozen", TempC: -300, Voltage: 5},
		{Name: "unpowered", TempC: 25, Voltage: 0},
		{Name: "negative-volt", TempC: 25, Voltage: -5},
	} {
		if _, err := NewAssessment(smallOpts(WithConditions(sc))...); !errors.Is(err, ErrConfig) {
			t.Fatalf("scenario %q: err = %v, want ErrConfig", sc.Name, err)
		}
	}
	if _, err := NewAssessment(WithConditions()); !errors.Is(err, ErrConfig) {
		t.Fatalf("no scenarios: err = %v, want ErrConfig", err)
	}
	if _, err := NewAssessment(WithConditionGrid(nil, []float64{5})); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty grid axis: err = %v, want ErrConfig", err)
	}

	// Conditions are exclusive with an explicit source.
	src, err := NewSimulatedSource(mustProfile(t), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAssessment(WithSource(src), WithConditions(NominalRoomTemp)); !errors.Is(err, ErrConfig) {
		t.Fatalf("source + conditions: err = %v, want ErrConfig", err)
	}

	// A conditioned assessment runs through RunSweep, not Run; an
	// unconditioned one has no sweep to run.
	conditioned, err := NewAssessment(smallOpts(WithConditions(NominalRoomTemp))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conditioned.Run(context.Background()); !errors.Is(err, ErrConfig) {
		t.Fatalf("Run with conditions: err = %v, want ErrConfig", err)
	}
	plain, err := NewAssessment(smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.RunSweep(context.Background()); !errors.Is(err, ErrConfig) {
		t.Fatalf("RunSweep without conditions: err = %v, want ErrConfig", err)
	}

	// A configuration failure the per-point engines would report
	// (duplicate metric names) is caught pre-flight and stays retryable.
	dup := NewMetric("dup", func(month, device int, ref *Pattern) (MetricAccumulator, error) {
		return addFunc(func(*Pattern) error { return nil }), nil
	})
	dupA, err := NewAssessment(smallOpts(WithConditions(NominalRoomTemp), WithMetrics(dup, dup))...)
	if err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 2; try++ {
		if _, err := dupA.RunSweep(context.Background()); !errors.Is(err, ErrConfig) {
			t.Fatalf("duplicate metric try %d: err = %v, want ErrConfig", try, err)
		}
	}

	// A configuration failure inside RunSweep (odd rig device count) is
	// caught pre-flight and stays retryable; a completed sweep does not.
	oddRig, err := NewAssessment(
		WithHarness(),
		WithDevices(3),
		WithMonths(1),
		WithWindowSize(10),
		WithConditions(HotCorner),
	)
	if err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 2; try++ {
		if _, err := oddRig.RunSweep(context.Background()); !errors.Is(err, ErrConfig) {
			t.Fatalf("odd rig try %d: err = %v, want ErrConfig", try, err)
		}
	}
	done, err := NewAssessment(smallOpts(WithConditions(NominalRoomTemp, HotCorner))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := done.RunSweep(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := done.RunSweep(context.Background()); !errors.Is(err, ErrAlreadyRun) {
		t.Fatalf("second sweep: err = %v, want ErrAlreadyRun", err)
	}
}

// TestSweepComparisonShape: a facade-level grid sweep carries the
// cross-condition series with the worst corner resolved per month and a
// populated temperature-slope map.
func TestSweepComparisonShape(t *testing.T) {
	a, err := NewAssessment(
		WithDevices(2),
		WithMonths(2),
		WithWindowSize(30),
		WithConditionGrid(sweepTemps, []float64{5.0}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RunSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(sweepTemps) {
		t.Fatalf("%d points, want %d", len(res.Points), len(sweepTemps))
	}
	c := res.Comparison
	if len(c.Months) != 3 || len(c.WorstWCHD) != 3 || len(c.StableIntersect) != 3 {
		t.Fatalf("comparison series have lengths %d/%d/%d, want 3", len(c.Months), len(c.WorstWCHD), len(c.StableIntersect))
	}
	if c.TempSlope == nil {
		t.Fatal("temperature sweep produced no sensitivity slopes")
	}
	if out := RenderCornerTable(c); len(out) == 0 {
		t.Fatal("empty corner table")
	}
}

// TestRunSweepLazyMatchesEager: WithLazy reaches every condition point
// of a sweep, and a lazy two-corner sweep renders the same corner table,
// byte for byte, and the same per-point results as the eager sweep —
// over a two-profile fleet and over a single profile.
func TestRunSweepLazyMatchesEager(t *testing.T) {
	small, err := ProfileByName("fleetnode-1kb")
	if err != nil {
		t.Fatal(err)
	}
	large, err := ProfileByName("fleetnode-2kb")
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(small, large)
	if err != nil {
		t.Fatal(err)
	}
	for name, silicon := range map[string]Option{"fleet": WithFleet(fleet), "profile": WithProfile(small)} {
		run := func(extra ...Option) *SweepResults {
			t.Helper()
			a, err := NewAssessment(append([]Option{silicon,
				WithDevices(6), WithMonths(2), WithWindowSize(20),
				WithConditions(NominalRoomTemp, HotCorner)}, extra...)...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.RunSweep(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		eager, lazy := run(), run(WithLazy())
		if got, want := RenderCornerTable(lazy.Comparison), RenderCornerTable(eager.Comparison); got != want {
			t.Fatalf("%s: lazy corner table differs from eager:\n%s\nwant:\n%s", name, got, want)
		}
		for i := range eager.Points {
			if !reflect.DeepEqual(lazy.Points[i].Results.Monthly, eager.Points[i].Results.Monthly) {
				t.Fatalf("%s: point %q: lazy results differ from eager", name, eager.Points[i].Scenario.Name)
			}
		}
	}
}
