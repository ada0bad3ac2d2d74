package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/aging"
	"repro/internal/core"
	"repro/internal/silicon"
	"repro/internal/store"
)

func testProfile(t *testing.T) silicon.DeviceProfile {
	t.Helper()
	p, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testConfig(t *testing.T) Config {
	return Config{
		Sim:        core.SimSpec{Profile: testProfile(t), Devices: 2, Seed: 20170208},
		WindowSize: 30,
		Months:     core.MonthRange(1),
	}
}

// testGrid is the ≥4-point temperature grid of the acceptance criteria:
// cold to accelerated-hot at nominal voltage.
func testGrid() Grid { return Grid{TempsC: []float64{0, 25, 85, 125}, Volts: []float64{5.0}} }

func TestGridPoints(t *testing.T) {
	g := Grid{TempsC: []float64{0, 85}, Volts: []float64{4.5, 5.5}}
	pts := g.Points()
	want := []string{"0C-4.5V", "0C-5.5V", "85C-4.5V", "85C-5.5V"}
	if len(pts) != len(want) {
		t.Fatalf("grid expanded to %d points, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		if p.Name != want[i] {
			t.Errorf("point %d = %q, want %q", i, p.Name, want[i])
		}
	}
	for _, g := range []Grid{
		{},
		{TempsC: []float64{25}},
		{Volts: []float64{5}},
		{TempsC: []float64{-300}, Volts: []float64{5}},
		{TempsC: []float64{25}, Volts: []float64{0}},
	} {
		if err := g.Validate(); !errors.Is(err, core.ErrConfig) {
			t.Errorf("grid %+v: err = %v, want ErrConfig", g, err)
		}
	}
}

// TestNominalPointBitIdentical: a sweep whose only point is the profile's
// nominal scenario must reproduce a plain Assessment byte for byte — the
// condition plumbing is the identity at the nominal point.
func TestNominalPointBitIdentical(t *testing.T) {
	cfg := testConfig(t)
	swept, err := RunPoints(context.Background(), cfg, []aging.Scenario{cfg.Sim.Profile.NominalScenario()})
	if err != nil {
		t.Fatal(err)
	}

	src, err := core.NewSimSource(cfg.Sim.Profile, cfg.Sim.Devices, cfg.Sim.Seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewAssessment(core.AssessmentConfig{Source: src, WindowSize: cfg.WindowSize, Months: cfg.Months})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	got := swept.Points[0].Results
	if !reflect.DeepEqual(got.Monthly, plain.Monthly) {
		t.Fatalf("nominal sweep point differs from plain assessment:\n%+v\nvs\n%+v", got.Monthly, plain.Monthly)
	}
	if !reflect.DeepEqual(got.Table, plain.Table) {
		t.Fatal("nominal sweep Table I differs from plain assessment")
	}
	for d := range plain.References {
		if !plain.References[d].Equal(got.References[d]) {
			t.Fatalf("device %d: sweep reference differs", d)
		}
	}
	// The single-point stable intersection is the point's own stable
	// ratio, in the exact device-average accumulation order.
	for mi, ev := range got.Monthly {
		want := ev.Avg(func(d core.DeviceMonth) float64 { return d.StableRatio })
		if swept.Comparison.StableIntersect[mi] != want {
			t.Fatalf("month %d: single-point stable intersection %v != stable ratio %v",
				ev.Month, swept.Comparison.StableIntersect[mi], want)
		}
	}
	if swept.Comparison.TempSlope != nil {
		t.Fatal("single-temperature sweep reported a temperature slope")
	}
}

// TestSweepWorkersBitIdentical: the shared worker pool schedules, it must
// not change any point's results.
func TestSweepWorkersBitIdentical(t *testing.T) {
	run := func(workers, concurrency int) *Results {
		t.Helper()
		cfg := testConfig(t)
		cfg.Workers, cfg.Concurrency = workers, concurrency
		res, err := run(context.Background(), cfg, testGrid())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1, 1), run(4, 0)
	for i := range serial.Points {
		if !reflect.DeepEqual(serial.Points[i].Results.Monthly, parallel.Points[i].Results.Monthly) {
			t.Fatalf("point %q: worker bound changed results", serial.Points[i].Scenario.Name)
		}
	}
	if !reflect.DeepEqual(serial.Comparison, parallel.Comparison) {
		t.Fatal("worker bound changed the cross-condition comparison")
	}
}

// TestComparisonAcrossPaths is the golden cross-path property of the
// acceptance criteria: the same temperature grid swept over (a) direct
// sampling, (b) the full rig with a JSONL tap, and (c) archive replay of
// those taps must produce bit-identical worst-corner and
// sensitivity-slope series — plus the physical invariants the sweep
// exists to measure.
func TestComparisonAcrossPaths(t *testing.T) {
	grid := testGrid()

	simCfg := testConfig(t)
	sim, err := run(context.Background(), simCfg, grid)
	if err != nil {
		t.Fatal(err)
	}

	// Rig sweep, tapping every corner's record stream to its own JSONL.
	var mu sync.Mutex
	archives := map[string]*bytes.Buffer{}
	writers := map[string]*store.JSONLWriter{}
	rigCfg := testConfig(t)
	rigCfg.NewSource = func(sc aging.Scenario) (core.Source, error) {
		spec := rigCfg.Sim
		spec.Rig, spec.Scenario = true, sc
		opened, err := core.OpenSim(spec)
		if err != nil {
			return nil, err
		}
		src := opened.(*core.RigSource)
		mu.Lock()
		buf := &bytes.Buffer{}
		jw := store.NewJSONLWriter(buf)
		archives[sc.Name] = buf
		writers[sc.Name] = jw
		mu.Unlock()
		src.SetTap(func(rec store.Record) error {
			mu.Lock()
			defer mu.Unlock()
			return jw.Write(rec)
		})
		return src, nil
	}
	rig, err := run(context.Background(), rigCfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	for name, jw := range writers {
		if err := jw.Flush(); err != nil {
			t.Fatalf("flushing %q archive: %v", name, err)
		}
	}

	// Archive sweep: replay each corner's tap. No Months — the archives
	// are MonthListers and must resolve the campaign's own month list.
	replayCfg := testConfig(t)
	replayCfg.Months = nil
	replayCfg.NewSource = func(sc aging.Scenario) (core.Source, error) {
		mu.Lock()
		buf, ok := archives[sc.Name]
		mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("no archive for %q", sc.Name)
		}
		ir, err := store.OpenIndexedBytes(buf.Bytes())
		if err != nil {
			return nil, err
		}
		return core.NewArchiveSource(ir)
	}
	replay, err := run(context.Background(), replayCfg, grid)
	if err != nil {
		t.Fatal(err)
	}

	for name, other := range map[string]*Results{"rig": rig, "archive-replay": replay} {
		if !reflect.DeepEqual(sim.Comparison, other.Comparison) {
			t.Fatalf("%s comparison differs from sim:\n%+v\nvs\n%+v", name, other.Comparison, sim.Comparison)
		}
		for i := range sim.Points {
			if !reflect.DeepEqual(sim.Points[i].Results.Monthly, other.Points[i].Results.Monthly) {
				t.Fatalf("%s point %q monthly series differ from sim", name, sim.Points[i].Scenario.Name)
			}
		}
	}

	// Physical goldens: the hottest corner is the worst WCHD corner at
	// the end of the campaign, reliability degrades with temperature
	// (positive WCHD slope), noisier cells mean fewer stable ones
	// (negative stable-ratio slope) and more noise entropy (positive).
	c := sim.Comparison
	last := len(c.Months) - 1
	if c.WorstWCHDCorner[last] != "125C-5V" {
		t.Fatalf("worst WCHD corner at end = %q, want the hottest (125C-5V)", c.WorstWCHDCorner[last])
	}
	if c.TempSlope[SlopeWCHD] <= 0 {
		t.Fatalf("WCHD temperature slope = %v, want > 0", c.TempSlope[SlopeWCHD])
	}
	if c.TempSlope[SlopeStable] >= 0 {
		t.Fatalf("stable-ratio temperature slope = %v, want < 0", c.TempSlope[SlopeStable])
	}
	if c.TempSlope[SlopeNoiseHmin] <= 0 {
		t.Fatalf("noise-entropy temperature slope = %v, want > 0", c.TempSlope[SlopeNoiseHmin])
	}
	// The cross-corner stable intersection can never beat any single
	// corner's device-average stable ratio.
	for mi := range c.Months {
		for _, pt := range sim.Points {
			ratio := pt.Results.Monthly[mi].Avg(func(d core.DeviceMonth) float64 { return d.StableRatio })
			if c.StableIntersect[mi] > ratio {
				t.Fatalf("month %d: stable intersection %v exceeds corner %q ratio %v",
					c.Months[mi], c.StableIntersect[mi], pt.Scenario.Name, ratio)
			}
		}
	}
}

// TestRunPointErrorCancelsSiblings: the first failing point must
// propagate its error, cancel the remaining points, and leave no
// goroutines behind.
func TestRunPointErrorCancelsSiblings(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testConfig(t)
	cfg.Months = core.MonthRange(12) // long enough that siblings are mid-flight
	boom := errors.New("boom")
	var built int
	var mu sync.Mutex
	cfg.NewSource = func(sc aging.Scenario) (core.Source, error) {
		mu.Lock()
		built++
		n := built
		mu.Unlock()
		if n == 2 {
			return nil, boom
		}
		spec := cfg.Sim
		spec.Scenario = sc
		return core.OpenSim(spec)
	}
	res, err := RunPoints(context.Background(), cfg, testGrid().Points())
	if res != nil {
		t.Fatal("failed sweep returned results")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the first point error", err)
	}
	assertNoLeaks(t, before)
}

// TestRunCancellationMidSweep cancels from the sweep progress callback
// while several points are in flight: RunPoints must return an error
// matching context.Canceled and wind every point down.
func TestRunCancellationMidSweep(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := testConfig(t)
	cfg.Months = core.MonthRange(12)
	var once sync.Once
	cfg.Progress = func(p Progress) {
		if p.Eval.Month >= 1 {
			once.Do(cancel)
		}
	}
	res, err := run(ctx, cfg, testGrid())
	if res != nil {
		t.Fatal("cancelled sweep returned results")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	assertNoLeaks(t, before)
}

// TestRunPreCancelled: a context cancelled before Run must abort before
// any point measures anything.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := testConfig(t)
	progressed := false
	cfg.Progress = func(Progress) { progressed = true }
	if _, err := run(ctx, cfg, testGrid()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if progressed {
		t.Fatal("pre-cancelled sweep evaluated a month")
	}
}

// TestRunPointsTypedErrors: invalid conditions and empty point lists fail
// with the typed configuration error before anything runs.
func TestRunPointsTypedErrors(t *testing.T) {
	cfg := testConfig(t)
	if _, err := RunPoints(context.Background(), cfg, nil); !errors.Is(err, core.ErrConfig) {
		t.Fatalf("empty points: err = %v, want ErrConfig", err)
	}
	bad := []aging.Scenario{
		{Name: "frozen", TempC: -300, Voltage: 5},
		{Name: "unpowered", TempC: 25, Voltage: 0},
		{Name: "negative", TempC: 25, Voltage: -1},
	}
	for _, sc := range bad {
		if _, err := RunPoints(context.Background(), cfg, []aging.Scenario{sc}); !errors.Is(err, core.ErrConfig) {
			t.Fatalf("scenario %q: err = %v, want ErrConfig", sc.Name, err)
		}
	}
}

func assertNoLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestPointSourcesFollowSpec: every grid point opens the layout its
// spec names — lazy, rig and sharded specs are not dropped on the way to
// the points.
func TestPointSourcesFollowSpec(t *testing.T) {
	base := testConfig(t).Sim
	for _, c := range []struct {
		edit func(*core.SimSpec)
		want string
	}{
		{func(*core.SimSpec) {}, "*core.SimSource"},
		{func(s *core.SimSpec) { s.Lazy = true }, "*core.SimSource (lazy)"},
		{func(s *core.SimSpec) { s.Rig = true }, "*core.RigSource"},
		{func(s *core.SimSpec) { s.Shards = 2 }, "*core.ShardedSource"},
	} {
		spec := base
		c.edit(&spec)
		src, err := simSources(spec, 2)(aging.HotCorner)
		if err != nil {
			t.Fatal(err)
		}
		if closer, ok := src.(io.Closer); ok {
			closer.Close()
		}
		got := fmt.Sprintf("%T", src)
		if sim, ok := src.(*core.SimSource); ok && sim.Arrays() == nil {
			got += " (lazy)"
		}
		if got != c.want {
			t.Fatalf("spec %+v opened a %s, want %s", spec, got, c.want)
		}
	}
}

// run validates the grid and executes one Assessment per grid point.
func run(ctx context.Context, cfg Config, grid Grid) (*Results, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	return RunPoints(ctx, cfg, grid.Points())
}
