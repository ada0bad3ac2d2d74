package sramaging

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/store"
)

// smallOpts returns a reduced assessment that keeps test time in check.
func smallOpts(extra ...Option) []Option {
	return append([]Option{
		WithDevices(4),
		WithMonths(3),
		WithWindowSize(60),
	}, extra...)
}

// TestAssessmentCancellationMidCampaign cancels from the per-month
// progress callback and asserts the acceptance criteria of the redesign:
// Run returns promptly with an error matching context.Canceled, the
// months completed before cancellation were reported, and no evaluation
// goroutines leak.
func TestAssessmentCancellationMidCampaign(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var seen []int
	a, err := NewAssessment(smallOpts(
		WithMonths(12), // far more months than we let it finish
		WithProgress(func(ev MonthEval) {
			seen = append(seen, ev.Month)
			if ev.Month == 1 {
				cancel()
			}
		}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := a.Run(ctx)
	if res != nil {
		t.Fatal("cancelled run returned results")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
	// Partial progress: months 0 and 1 completed and were reported.
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Fatalf("progress months = %v, want [0 1]", seen)
	}
	// No goroutine leaks: the per-device samplers must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestAssessmentCancellationMidWindow cancels from inside a window (via a
// custom metric's Add, i.e. between two measurements of one device) — the
// direct-path samplers must abort without finishing the window.
func TestAssessmentCancellationMidWindow(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	tripwire := NewMetric("tripwire", func(month, device int, ref *Pattern) (MetricAccumulator, error) {
		return addFunc(func(m *Pattern) error {
			calls++
			if calls == 10 {
				cancel()
			}
			return nil
		}), nil
	})
	// WithWorkers(1) serialises device delivery: this metric's
	// accumulators deliberately share the calls counter, which the
	// Metric contract otherwise forbids (devices run concurrently).
	a, err := NewAssessment(smallOpts(WithWorkers(1), WithMetrics(tripwire))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAssessmentPreCancelled: a context cancelled before Run starts must
// abort before any window is measured.
func TestAssessmentPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	progressed := false
	a, err := NewAssessment(smallOpts(WithProgress(func(MonthEval) { progressed = true }))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if progressed {
		t.Fatal("pre-cancelled run evaluated a month")
	}
}

// TestAssessmentCancellationHarnessPath: the rig simulation must also
// abort promptly — the record tap propagates the context error and the
// event pump stops instead of completing the window.
func TestAssessmentCancellationHarnessPath(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a, err := NewAssessment(
		WithDevices(2),
		WithMonths(8),
		WithWindowSize(40),
		WithHarness(),
		WithProgress(func(ev MonthEval) {
			if ev.Month == 0 {
				cancel()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// addFunc adapts a closure to MetricAccumulator for test metrics.
type addFunc func(m *Pattern) error

func (f addFunc) Add(m *Pattern) error    { return f(m) }
func (f addFunc) Value() (float64, error) { return 0, nil }

// TestArchiveReplayRoundTrip is the offline-equals-live property: a rig
// campaign tapped to JSONL (store.JSONLWriter), replayed through an
// ArchiveSource, must reproduce the live run's Results bit for bit.
func TestArchiveReplayRoundTrip(t *testing.T) {
	profile, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	const devices, months, window = 4, 2, 30

	var buf bytes.Buffer
	jw := store.NewJSONLWriter(&buf)
	rig, err := NewRigSource(profile, devices, 20170208, 0)
	if err != nil {
		t.Fatal(err)
	}
	rig.SetTap(jw.Write)
	live, err := NewAssessment(
		WithSource(rig),
		WithMonths(months),
		WithWindowSize(window),
	)
	if err != nil {
		t.Fatal(err)
	}
	resLive, err := live.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}

	src, err := NewArchiveSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// No WithMonths: the archive lists its own months, which must be
	// exactly the live campaign's.
	replay, err := NewAssessment(WithSource(src), WithWindowSize(window))
	if err != nil {
		t.Fatal(err)
	}
	resReplay, err := replay.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if len(resReplay.Monthly) != months+1 {
		t.Fatalf("replay evaluated %d months, want %d", len(resReplay.Monthly), months+1)
	}
	if !reflect.DeepEqual(resLive.Monthly, resReplay.Monthly) {
		t.Fatalf("replayed monthly series differ from live:\n%+v\nvs\n%+v", resLive.Monthly, resReplay.Monthly)
	}
	if !reflect.DeepEqual(resLive.Table, resReplay.Table) {
		t.Fatal("replayed Table I differs from live")
	}
	for d := range resLive.References {
		if !resLive.References[d].Equal(resReplay.References[d]) {
			t.Fatalf("device %d: replayed reference differs", d)
		}
	}
}

// fhwMetric is the test's externally registered metric: the mean
// fractional Hamming weight, accumulated in the exact order of the
// built-in FHW accumulator so the values must be bit-identical.
type fhwAcc struct {
	sum   float64
	count int
}

func (a *fhwAcc) Add(m *Pattern) error {
	a.sum += m.FractionalHammingWeight()
	a.count++
	return nil
}

func (a *fhwAcc) Value() (float64, error) {
	if a.count == 0 {
		return 0, fmt.Errorf("empty window")
	}
	return a.sum / float64(a.count), nil
}

// TestCustomMetricBothPaths registers an external Metric and asserts it
// produces correct (bit-identical to the built-in oracle) values on both
// execution paths — direct sampling and the full rig simulation.
func TestCustomMetricBothPaths(t *testing.T) {
	run := func(harness bool) *Results {
		t.Helper()
		opts := []Option{
			WithDevices(4),
			WithMonths(2),
			WithWindowSize(40),
			WithMetrics(NewMetric("fhw2", func(month, device int, ref *Pattern) (MetricAccumulator, error) {
				return &fhwAcc{}, nil
			})),
		}
		if harness {
			opts = append(opts, WithHarness())
		}
		a, err := NewAssessment(opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	direct, viaRig := run(false), run(true)
	for _, res := range []*Results{direct, viaRig} {
		for m := range res.Monthly {
			vals := res.Monthly[m].Custom["fhw2"]
			if len(vals) != 4 {
				t.Fatalf("month %d: custom values %v", m, vals)
			}
			for d, v := range vals {
				if want := res.Monthly[m].Devices[d].FHW; v != want {
					t.Fatalf("month %d device %d: custom FHW %v != built-in %v", m, d, v, want)
				}
			}
		}
	}
	for m := range direct.Monthly {
		if !reflect.DeepEqual(direct.Monthly[m].Custom, viaRig.Monthly[m].Custom) {
			t.Fatalf("month %d: custom metric differs across paths", m)
		}
	}
}

// TestCrossMetricBothPaths registers an external CROSS-device metric —
// the mean pairwise fractional Hamming distance over the window-first
// patterns, folded in the same i<j order as the built-in BCHD — and
// asserts bit-identity with the built-in value on both execution paths.
func TestCrossMetricBothPaths(t *testing.T) {
	bchd := NewCrossMetric("bchd2", func(month int, firsts []*Pattern) (float64, error) {
		sum, pairs := 0.0, 0
		for i := 0; i < len(firsts); i++ {
			for j := i + 1; j < len(firsts); j++ {
				f, err := firsts[i].FractionalHammingDistance(firsts[j])
				if err != nil {
					return 0, err
				}
				sum += f
				pairs++
			}
		}
		return sum / float64(pairs), nil
	})
	run := func(harness bool) *Results {
		t.Helper()
		opts := []Option{
			WithDevices(4),
			WithMonths(1),
			WithWindowSize(30),
			WithCrossMetrics(bchd),
		}
		if harness {
			opts = append(opts, WithHarness())
		}
		a, err := NewAssessment(opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, res := range []*Results{run(false), run(true)} {
		series := res.CrossCustomSeries("bchd2")
		if len(series) != 2 {
			t.Fatalf("cross series length = %d", len(series))
		}
		for m := range res.Monthly {
			if got, want := res.Monthly[m].CrossCustom["bchd2"], res.Monthly[m].BCHDMean; got != want {
				t.Fatalf("month %d: cross metric %v != built-in BCHD mean %v", m, got, want)
			}
		}
	}
}

// TestAssessmentTypedErrors exercises the errors.Is-matchable error
// surface of the builder and engine.
func TestAssessmentTypedErrors(t *testing.T) {
	// The device count is validated when the engine starts.
	oneDev, err := NewAssessment(WithDevices(1), WithMonths(1), WithWindowSize(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oneDev.Run(context.Background()); !errors.Is(err, ErrConfig) {
		t.Fatalf("1 device: err = %v, want ErrConfig", err)
	}
	// The window size is validated at option time (before any side
	// effect like truncating an archive file).
	if _, err := NewAssessment(smallOpts(WithWindowSize(1))...); !errors.Is(err, ErrConfig) {
		t.Fatalf("window 1: err = %v, want ErrConfig", err)
	}
	if _, err := NewAssessment(WithSource(nil)); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil source: err = %v, want ErrConfig", err)
	}
	if _, err := NewAssessment(WithMonths(-1)); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative months: err = %v, want ErrConfig", err)
	}
	// Months 0 would yield a single evaluation and an all-zero Table I;
	// the legacy Config rejected it and so must the builder.
	if _, err := NewAssessment(WithMonths(0)); !errors.Is(err, ErrConfig) {
		t.Fatalf("zero months: err = %v, want ErrConfig", err)
	}
	// An empty month list must fail fast, not fall back to the default
	// 25-month campaign.
	if _, err := NewAssessment(WithMonthList(nil)); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty month list: err = %v, want ErrConfig", err)
	}
	src, err := NewSimulatedSource(mustProfile(t), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAssessment(WithSource(src), WithDevices(4)); !errors.Is(err, ErrConfig) {
		t.Fatalf("source + sim options: err = %v, want ErrConfig", err)
	}

	// One-shot: a second Run fails typed.
	done, err := NewAssessment(smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := done.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := done.Run(context.Background()); !errors.Is(err, ErrAlreadyRun) {
		t.Fatalf("second run: err = %v, want ErrAlreadyRun", err)
	}
	// ...but a Run that failed before measuring anything (configuration
	// error) must report the same error again on retry, not ErrAlreadyRun.
	oddRig, err := NewAssessment(WithHarness(), WithDevices(3), WithMonths(1), WithWindowSize(10))
	if err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 2; try++ {
		if _, err := oddRig.Run(context.Background()); !errors.Is(err, ErrConfig) {
			t.Fatalf("odd rig try %d: err = %v, want ErrConfig", try, err)
		}
	}

	// An archive whose boards only hold short windows has no months.
	var buf bytes.Buffer
	jw := store.NewJSONLWriter(&buf)
	rig, err := NewRigSource(mustProfile(t), 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rig.SetTap(jw.Write)
	short, err := NewAssessment(WithSource(rig), WithMonthList([]int{0}), WithWindowSize(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := short.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	arch, err := NewArchiveSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	noMonths, err := NewAssessment(WithSource(arch), WithWindowSize(500))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noMonths.Run(context.Background()); !errors.Is(err, ErrNoMonths) {
		t.Fatalf("short archive: err = %v, want ErrNoMonths", err)
	}
	// Replaying more months than the archive holds fails ErrShortWindow.
	arch2, err := NewArchiveSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewAssessment(WithSource(arch2), WithMonths(5), WithWindowSize(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a2.Run(context.Background()); !errors.Is(err, ErrShortWindow) {
		t.Fatalf("over-long replay: err = %v, want ErrShortWindow", err)
	}

	// An archive truncated mid-window (interrupted collection) loses its
	// trailing month for every board — here the only month, so discovery
	// finds nothing and fails typed rather than replaying short windows.
	trimmed := buf.Bytes()
	trimmed = trimmed[:bytes.LastIndexByte(trimmed[:len(trimmed)-1], '\n')+1]
	truncated, err := NewArchiveSource(bytes.NewReader(trimmed))
	if err != nil {
		t.Fatal(err)
	}
	a3, err := NewAssessment(WithSource(truncated), WithWindowSize(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a3.Run(context.Background()); !errors.Is(err, ErrNoMonths) {
		t.Fatalf("truncated archive: err = %v, want ErrNoMonths", err)
	}
}

// TestArchiveReplayToleratesInterruptedTail: killing a collection mid-way
// through its last monthly window must not make the archive unreplayable
// — the complete months still evaluate, the partial tail is dropped.
func TestArchiveReplayToleratesInterruptedTail(t *testing.T) {
	var buf bytes.Buffer
	jw := store.NewJSONLWriter(&buf)
	rig, err := NewRigSource(mustProfile(t), 2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	rig.SetTap(jw.Write)
	collect, err := NewAssessment(WithSource(rig), WithMonths(1), WithWindowSize(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collect.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Drop the final record: month 1 is now short on one board.
	trimmed := buf.Bytes()
	trimmed = trimmed[:bytes.LastIndexByte(trimmed[:len(trimmed)-1], '\n')+1]
	src, err := NewArchiveSource(bytes.NewReader(trimmed))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := NewAssessment(WithSource(src), WithWindowSize(10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Monthly) != 1 || res.Monthly[0].Month != 0 {
		t.Fatalf("interrupted archive replayed months %+v, want just month 0", res.Monthly)
	}
}

func mustProfile(t *testing.T) DeviceProfile {
	t.Helper()
	p, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAssessmentWorkersBitIdentical: the worker bound schedules, it must
// not change results.
func TestAssessmentWorkersBitIdentical(t *testing.T) {
	run := func(workers int) *Results {
		t.Helper()
		a, err := NewAssessment(smallOpts(WithWorkers(workers))...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unbounded, one := run(0), run(1)
	if !reflect.DeepEqual(unbounded.Monthly, one.Monthly) {
		t.Fatal("worker bound changed results")
	}
}
