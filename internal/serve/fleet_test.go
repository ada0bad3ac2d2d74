package serve

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestServiceFleetCampaignMatchesDirectRun: a heterogeneous fleet
// campaign submitted to the service streams the same Results — monthly
// series, per-profile breakdowns and Table I — as a direct run of the
// eager fleet source the service builds from the same spec, and the
// breakdowns actually separate the fleet's profiles.
func TestServiceFleetCampaignMatchesDirectRun(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	// An odd device count: fleet campaigns bypass the rig's even-count
	// two-layer constraint by construction.
	spec := Spec{Fleet: []string{"atmega32u4", "cachearray-64kb"}, Devices: 5, Months: 2, Window: 20, Seed: defaultSeed}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	fleet, err := fleetByNames(spec.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	src := openLive(t, spec)
	if sim, ok := src.(*core.SimSource); !ok || sim.Arrays() == nil {
		t.Fatalf("unsharded fleet spec opens a %T, want a direct *core.SimSource with resident chips", src)
	}
	eng, err := core.NewAssessment(core.AssessmentConfig{Source: src, WindowSize: spec.Window, Months: spec.EvalMonths()})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

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
		t.Fatalf("service fleet Monthly differ from the direct fleet run:\n  %+v\nvs\n  %+v", want.Monthly, monthly)
	}
	for _, ev := range monthly {
		if len(ev.ByProfile) != fleet.Size() {
			t.Fatalf("month %d: breakdown over %d profiles, want %d: %+v", ev.Month, len(ev.ByProfile), fleet.Size(), ev.ByProfile)
		}
		total := 0
		for _, pe := range ev.ByProfile {
			total += pe.Devices
		}
		if total != spec.Devices {
			t.Fatalf("month %d: breakdown covers %d devices, want %d", ev.Month, total, spec.Devices)
		}
	}

	closeManager(t, m)
	checkGoroutines(t, goroutines)
}
