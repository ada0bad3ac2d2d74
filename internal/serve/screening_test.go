package serve

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// pickServiceFloor simulates candidate screening floors on an unscreened
// probe run of the spec's fleet and returns one that prunes at least one
// device inside the first two months (so a [0, 1] checkpoint prefix
// contains prune decisions) while at least two devices survive every
// non-final month.
func pickServiceFloor(t *testing.T, spec Spec) float64 {
	t.Helper()
	eng, err := core.NewAssessment(core.AssessmentConfig{Source: openLive(t, spec), WindowSize: spec.Window, Months: spec.EvalMonths()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	matrix := make([][]float64, len(res.Monthly))
	var vals []float64
	for mi, m := range res.Monthly {
		row := make([]float64, len(m.Devices))
		for d, dev := range m.Devices {
			row[d] = dev.StableRatio
		}
		matrix[mi] = row
		vals = append(vals, row...)
	}
	sort.Float64s(vals)
	best, bestPruned := 0.0, 0
	for i := 1; i < len(vals); i++ {
		if vals[i] == vals[i-1] {
			continue
		}
		floor := (vals[i-1] + vals[i]) / 2
		active := make([]bool, spec.Devices)
		for d := range active {
			active[d] = true
		}
		alive, early, total, viable := spec.Devices, 0, 0, true
		for mi, row := range matrix {
			for d, a := range active {
				if a && row[d] < floor {
					active[d] = false
					alive--
					total++
					if mi < 2 {
						early++
					}
				}
			}
			if alive < 2 && mi < len(matrix)-1 {
				viable = false
				break
			}
		}
		if viable && early > 0 && total > bestPruned {
			bestPruned, best = total, floor
		}
	}
	if bestPruned == 0 {
		t.Fatal("no screening floor yields a viable schedule for this spec")
	}
	return best
}

// TestServiceScreenedLazyFleetResumeGolden is the service-level screening
// determinism walk: a lazy, screened fleet campaign (1) freshly submitted
// matches a direct run of the source the service builds, and (2)
// hard-killed mid-month after its first prunes, it is recovered on the
// next start — the screened checkpoint's absent (pruned) boards accepted
// as legitimate — re-pruned identically during replay, and finished with
// Results bit-identical to the uninterrupted run.
func TestServiceScreenedLazyFleetResumeGolden(t *testing.T) {
	spec := Spec{
		Fleet:     []string{"fleetnode-1kb", "fleetnode-2kb"},
		Devices:   10,
		Seed:      777,
		Window:    24,
		MonthList: []int{0, 1, 2},
		Lazy:      true,
	}
	spec.ScreenFloor = pickServiceFloor(t, spec)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	// The uninterrupted oracle: the exact source construction the service
	// uses for a lazy fleet campaign, tapped into a v1 archive.
	direct, ok := openLive(t, spec).(*core.SimSource)
	if !ok || direct.Arrays() != nil {
		t.Fatal("unsharded lazy fleet spec does not open a direct *core.SimSource with lazy chips")
	}
	var full bytes.Buffer
	w := store.NewBinaryWriterV1(&full)
	direct.SetTap(w.Write)
	eng, err := core.NewAssessment(core.AssessmentConfig{
		Source:     direct,
		WindowSize: spec.Window,
		Months:     spec.EvalMonths(),
		Screening:  spec.screening(),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	earlyPrunes := len(want.Monthly[0].Pruned) + len(want.Monthly[1].Pruned)
	if earlyPrunes == 0 {
		t.Fatal("no prunes inside the checkpoint prefix; the golden would not exercise screened resume")
	}

	t.Run("fresh", func(t *testing.T) {
		goroutines := runtime.NumGoroutine()
		m, err := NewManager(Config{DataDir: t.TempDir(), Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, m, st.ID)
		if final.Status != StatusDone {
			t.Fatalf("status = %s (%s: %s)", final.Status, final.ErrKind, final.Error)
		}
		monthly, err := m.Monthly(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Monthly, monthly) {
			t.Fatal("service screened Monthly differ from the direct screened run")
		}
		closeManager(t, m)
		checkGoroutines(t, goroutines)
	})

	t.Run("crash-resume", func(t *testing.T) {
		goroutines := runtime.NumGoroutine()
		// Cut on a record boundary partway through month 2: months 0 and 1
		// (which already pruned devices) are the checkpoint. Survivor
		// counts shrink month over month, so the record counts come from
		// the archive itself.
		perMonth := map[int]int{}
		r, err := store.OpenIndexedBytes(full.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range r.Segments() {
			perMonth[seg.Month] += seg.Count
		}
		cut := recordBoundary(t, full.Bytes(), perMonth[0]+perMonth[1]+perMonth[2]/2)

		dir := t.TempDir()
		const id = "c000001"
		if err := os.WriteFile(archivePath(dir, id), full.Bytes()[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c := newCampaign(id, spec)
		c.status = StatusRunning
		if err := c.save(dir); err != nil {
			t.Fatal(err)
		}

		m, err := NewManager(Config{DataDir: dir, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, m, id)
		if final.Status != StatusDone {
			t.Fatalf("resumed campaign finished %s (%s): %s", final.Status, final.ErrKind, final.Error)
		}
		if final.Resumed != 2 {
			t.Errorf("campaign resumed %d months, want 2 — the screened checkpoint was not recovered", final.Resumed)
		}
		monthly, err := m.Monthly(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Monthly, monthly) {
			t.Fatal("resumed screened Monthly differ from the uninterrupted run")
		}
		if final.Table == nil || !reflect.DeepEqual(*final.Table, want.Table) {
			t.Fatal("resumed screened Table I differs from the uninterrupted run")
		}

		// The sealed archive replays to the same screened results a third
		// time, surviving months discovered under screening semantics.
		arch, err := core.OpenArchiveSource(archivePath(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		surviving, err := arch.AvailableMonthsSurviving(spec.Window)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(surviving, spec.EvalMonths()) {
			t.Fatalf("sealed archive surviving months %v, want %v", surviving, spec.EvalMonths())
		}
		replayEng, err := core.NewAssessment(core.AssessmentConfig{
			Source:     arch,
			WindowSize: spec.Window,
			Months:     surviving,
			Screening:  spec.screening(),
		})
		if err != nil {
			t.Fatal(err)
		}
		replay, err := replayEng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// An archive replay has no fleet assignment, so the per-profile
		// breakdowns (ByProfile, Attrition keys) legitimately differ; the
		// measurements, prune schedule and Table I must not.
		if !reflect.DeepEqual(replay.Table, want.Table) {
			t.Fatal("sealed screened archive replay Table I differs from the uninterrupted run")
		}
		for i, ev := range replay.Monthly {
			wm := want.Monthly[i]
			if !reflect.DeepEqual(ev.Devices, wm.Devices) ||
				ev.Survivors != wm.Survivors ||
				!reflect.DeepEqual(ev.Pruned, wm.Pruned) ||
				!reflect.DeepEqual(ev.DeviceIndex, wm.DeviceIndex) {
				t.Fatalf("sealed replay month %d diverges from the uninterrupted run", ev.Month)
			}
		}
		arch.Close()

		closeManager(t, m)
		checkGoroutines(t, goroutines)
	})
}
