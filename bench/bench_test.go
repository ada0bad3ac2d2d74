package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

func testEnv(t *testing.T, traced bool) *env {
	t.Helper()
	g, err := newGoldens(7, false)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(7, t.TempDir(), traced, g)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// screened runs a small screened fleet campaign on src.
func screened(t *testing.T, src core.Source) *core.Results {
	t.Helper()
	a, err := core.NewAssessment(core.AssessmentConfig{
		Source:     src,
		WindowSize: 4,
		Months:     core.MonthRange(2),
		Screening:  &core.ScreeningConfig{Floor: fleetFloor},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestProbeForwardsSourceInterfaces(t *testing.T) {
	e := testEnv(t, true)
	lazy := func() *core.LazySimSource {
		src, err := core.NewLazySimFleetSource(e.fleet, 40, e.seed)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	at := scope{tr: e.tr, trace: 1}
	probe := newProbe(lazy(), 1, &at)
	probe.on = true
	var s core.Source = probe
	if _, ok := s.(core.DevicePruner); !ok {
		t.Fatal("probe hides DevicePruner")
	}
	wrapped, plain := screened(t, probe), screened(t, lazy())
	if resultDigest(wrapped) != resultDigest(plain) {
		t.Fatal("a probed screened run differs from the plain one")
	}
	if len(wrapped.Monthly[0].Pruned) == 0 || len(wrapped.Monthly[2].ByProfile) != 2 {
		t.Fatalf("want pruning and a two-profile breakdown, got %+v", wrapped.Monthly[0].Pruned)
	}
	if names, idx := probe.ProfileAssignment(); len(names) != 2 || len(idx) != 40 {
		t.Fatalf("ProfileAssignment not forwarded: %v, %d devices", names, len(idx))
	}
	if n, want := probe.add.N(), readouts(wrapped, 4); n != want || len(probe.gaps) == 0 {
		t.Fatalf("probe recorded %d adds and %d gaps for %d read-outs", n, len(probe.gaps), want)
	}

	// An archive source's month listing passes through, and a source without
	// one lists nothing, as the engine expects of it.
	rig, err := core.NewRigSource(e.atmega, 2, e.seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := store.NewBinaryWriter(f)
	rig.SetTap(w.Write)
	rec, err := core.NewAssessment(core.AssessmentConfig{Source: rig, WindowSize: 3, Months: core.MonthRange(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(w.Flush(), f.Close()); err != nil {
		t.Fatal(err)
	}
	as, err := core.OpenArchiveSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	months, err := newProbe(as, 1, &at).AvailableMonths(3)
	if err != nil || len(months) != 2 {
		t.Fatalf("AvailableMonths not forwarded: %v, %v", months, err)
	}
	if months, err := newProbe(rig, 1, &at).AvailableMonths(3); months != nil || err != nil {
		t.Fatalf("a rig lists no months, got %v, %v", months, err)
	}
}

func TestDecompositionReproducesLazySource(t *testing.T) {
	e := testEnv(t, false)
	c := decompConfig{fleet: e.fleet, seed: e.seed, window: 3, months: []int{0, 1, 3}, sample: []int{2, 5, 11, 17, 30}}
	d, err := decompose(c)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := lazyDigests(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	for mi := range c.months {
		for si := range c.sample {
			if d.digests[mi][si] != lazy[mi][si] {
				t.Errorf("month %d device %d: decomposition bits differ from the lazy source", c.months[mi], c.sample[si])
			}
		}
	}
	if d.stages[2][stageAge] <= 0 || d.stages[2][stageJump] <= 0 || d.stages[0][stagePowerUp] <= 0 {
		t.Errorf("stage times not recorded: %v", d.stages)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "month", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "measure", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "measure", Start: 40, End: 70}, // overlaps the first child
		{ID: 4, Parent: 3, Name: "tap", Start: 45, End: 46},
		{ID: 5, Name: "month", Start: 200, End: 230},
	}
	got := SelfTimes(spans, "month")
	if len(got) != 2 || got[0] != 40 || got[1] != 30 {
		t.Fatalf("month self times = %v, want [40 30]", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8}); q1 != 1.25 || q3 != 7 {
		t.Fatalf("quartiles = %v, %v", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{70, 130, 100, 80, 120, 90, 110, 75, 125, 100}
	spreadOut := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	justAbove := []float64{10.1, 10.2, 10.3, 10.4, 10.5, 10.1, 10.2, 10.3, 10.4, 10.5}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		higher         bool
		want           string
	}{
		{"faster throughput", base, scaled(1.2), true, callGain},
		{"lower latency", base, scaled(0.8), false, callGain},
		{"small drift", base, scaled(0.97), true, callWithin},
		{"slower throughput", base, scaled(0.85), true, callRegression},
		{"noisy change", base, noisy, true, callUnresolved},
		// Beating every parent run, but by less than the parent's spread.
		{"noisy but always better", spreadOut, justAbove, true, callAllBetter},
		// Nine wins of ten with a gap beyond the parent's spread is a gain;
		// eight is not, and within the bound it is no regression.
		{"nine of ten", base, append(scaled(1.05)[:9], 90), true, callGain},
		{"eight of ten", base, append(scaled(1.05)[:8], 90, 90), true, callWithin},
	} {
		if got := judge(tc.parent, tc.change, tc.higher, 0.1).call; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestEveryMetricPrinted checks BENCHMARK.json against the metric tables and
// that a run prints every metric, by line and in its JSON result.
func TestEveryMetricPrinted(t *testing.T) {
	spec, err := readBenchSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !equalDefs(e2e, endToEnd) || !equalDefs(layer, perLayer) {
		t.Fatalf("BENCHMARK.json metrics differ from the benchmark's tables:\n%v\n%v", e2e, layer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists workloads %v", names)
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Fatalf("BENCHMARK.json workloads %v differ from the benchmark's", names)
		}
	}

	defer func(n int) { fleetDevices = n }(fleetDevices)
	fleetDevices = 40
	for _, tc := range []struct {
		trace bool
		defs  []metricDef
	}{{false, endToEnd}, {true, perLayer}} {
		var out bytes.Buffer
		res, err := runOne(options{workload: "fleet-screen", seed: 7, seconds: 1, trace: tc.trace, workdir: t.TempDir()}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Fatalf("trace %v: run not correct:\n%s", tc.trace, out.String())
		}
		if len(res.Metrics) != len(tc.defs) {
			t.Errorf("trace %v: %d metrics in the result, want %d", tc.trace, len(res.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %v: result lacks %s [%s]", tc.trace, d.name, d.unit)
			}
			if !strings.Contains(out.String(), "\nfleet-screen "+d.name+" ") {
				t.Errorf("trace %v: %s not printed", tc.trace, d.name)
			}
		}
		if _, err := json.Marshal(res); err != nil {
			t.Error(err)
		}
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
