package serve

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/keylife"
	"repro/internal/store"
)

// directResults runs the same campaign a spec describes, directly on the
// engine — the uninterrupted oracle every service path must match
// bit for bit.
func directResults(t *testing.T, spec Spec) *core.Results {
	t.Helper()
	spec.Shards = 0
	eng, err := core.NewAssessment(core.AssessmentConfig{Source: openLive(t, spec), WindowSize: spec.Window, Months: spec.EvalMonths()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// openLive opens the live source the service builds for spec. A
// sharded source holds workers: the caller must Close it.
func openLive(t *testing.T, spec Spec) tappableSource {
	t.Helper()
	src, err := core.OpenSim(*campaignOf(t, spec).Sim)
	if err != nil {
		t.Fatal(err)
	}
	return src.(tappableSource)
}

// campaignOf is the campaign the service runs for spec.
func campaignOf(t testing.TB, spec Spec) core.CampaignSpec {
	t.Helper()
	cs, err := spec.campaign()
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// waitTerminal polls a campaign until it reaches a terminal status.
func waitTerminal(t *testing.T, m *Manager, id string) CampaignState {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %s", id, st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkGoroutines asserts the goroutine count settles back to the
// baseline after a manager is closed — the service must not leak
// campaign, subscriber or pool goroutines.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func closeManager(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServiceCampaignMatchesDirectRun: a campaign submitted to the
// service produces Results identical to a direct engine run of the same
// spec, streams every month in order, and leaves a sealed, replayable v2
// archive whose evaluation reproduces the same results a third time.
func TestServiceCampaignMatchesDirectRun(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	spec := Spec{Devices: 4, Months: 3, Window: 24, Seed: defaultSeed}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	want := directResults(t, spec)

	dir := t.TempDir()
	m, err := NewManager(Config{DataDir: dir, Workers: 2, MaxActive: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	hist, ch, err := m.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unsubscribe(st.ID, ch)
	var events []Event
	events = append(events, hist...)
	if ch != nil {
		timeout := time.After(2 * time.Minute)
		for {
			var ev Event
			var ok bool
			select {
			case ev, ok = <-ch:
			case <-timeout:
				t.Fatal("stream did not terminate")
			}
			if !ok {
				break
			}
			events = append(events, ev)
			if ev.Type == "done" || ev.Type == "error" {
				break
			}
		}
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
		t.Fatal("service Monthly differ from the direct run")
	}
	if final.Table == nil || !reflect.DeepEqual(want.Table, *final.Table) {
		t.Fatal("service Table I differs from the direct run")
	}

	// The streamed months must be the same series, in order.
	var streamed []core.MonthEval
	var done *Event
	for i := range events {
		switch events[i].Type {
		case "month":
			streamed = append(streamed, *events[i].Month)
		case "done":
			done = &events[i]
		}
	}
	if !reflect.DeepEqual(want.Monthly, streamed) {
		t.Fatal("streamed months differ from the direct run")
	}
	if done == nil || !reflect.DeepEqual(want.Table, *done.Table) {
		t.Fatal("done event does not carry the direct run's Table I")
	}

	// The sealed archive replays to the same results (third witness).
	arch, err := core.OpenArchiveSource(archivePath(dir, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	if info := arch.Info(); info.Format != store.FormatBinaryV2 {
		t.Fatalf("completed archive format = %v, want sealed v2", info.Format)
	}
	eng, err := core.NewAssessment(core.AssessmentConfig{Source: arch, WindowSize: spec.Window, Months: spec.EvalMonths()})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Monthly, replayed.Monthly) || !reflect.DeepEqual(want.Table, replayed.Table) {
		t.Fatal("archive replay differs from the direct run")
	}

	closeManager(t, m)
	checkGoroutines(t, goroutines)
}

// TestServiceConcurrentCampaignsShareBudget is the acceptance bound: N
// concurrent campaigns never put more jobs in flight than the single
// global worker budget, measured by the pool's high watermark.
func TestServiceConcurrentCampaignsShareBudget(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	const budget = 2
	m, err := NewManager(Config{DataDir: t.TempDir(), Workers: budget})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Devices: 4, Months: 2, Window: 12, Seed: defaultSeed}
	var ids []string
	for range 4 {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := waitTerminal(t, m, id); st.Status != StatusDone {
			t.Fatalf("campaign %s: %s (%s)", id, st.Status, st.Error)
		}
	}
	if got := m.pool.MaxInFlight(); got > budget {
		t.Fatalf("MaxInFlight() = %d: concurrent campaigns overshot the global budget %d", got, budget)
	}
	if got := m.pool.MaxInFlight(); got == 0 {
		t.Fatal("MaxInFlight() = 0: campaigns did not run on the global pool")
	}
	// All four campaigns must agree with each other (same spec).
	first, err := m.Monthly(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		monthly, err := m.Monthly(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, monthly) {
			t.Fatalf("campaign %s diverged from %s on an identical spec", id, ids[0])
		}
	}
	closeManager(t, m)
	checkGoroutines(t, goroutines)
}

// TestServiceCancel: cancelling a running campaign terminates it with
// the typed cancelled kind; cancelling a queued campaign never runs it;
// cancelling a terminal campaign is an idempotent no-op.
func TestServiceCancel(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	m, err := NewManager(Config{DataDir: t.TempDir(), MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A long campaign holds the single slot; the second stays queued.
	long := Spec{Devices: 4, Months: 200, Window: 16, Seed: defaultSeed}
	st1, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the first campaign has produced at least one month, so
	// the cancel lands mid-run, then cancel both.
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := m.Get(st1.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.MonthsDone >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first campaign never progressed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := m.Cancel(st2.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(st1.ID); err != nil {
		t.Fatal(err)
	}
	f1, f2 := waitTerminal(t, m, st1.ID), waitTerminal(t, m, st2.ID)
	if f1.Status != StatusCancelled || f1.ErrKind != "cancelled" {
		t.Fatalf("running campaign: %s/%s, want cancelled", f1.Status, f1.ErrKind)
	}
	if f2.Status != StatusCancelled {
		t.Fatalf("queued campaign: %s, want cancelled", f2.Status)
	}
	if f2.MonthsDone != 0 {
		t.Fatalf("queued campaign measured %d months after cancel", f2.MonthsDone)
	}
	// Idempotent on a terminal campaign.
	again, err := m.Cancel(st1.ID)
	if err != nil || again.Status != StatusCancelled {
		t.Fatalf("re-cancel: %v, %s", err, again.Status)
	}
	if _, err := m.Cancel("c999999"); err == nil {
		t.Fatal("cancelling an unknown campaign succeeded")
	}
	closeManager(t, m)
	checkGoroutines(t, goroutines)
}

// TestServiceDrainAndResume: Close mid-campaign checkpoints instead of
// failing; a new manager over the same data directory resumes the
// campaign and finishes with results identical to an uninterrupted run.
func TestServiceDrainAndResume(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	spec := Spec{Devices: 4, Months: 4, Window: 40, Seed: defaultSeed}
	want := directResults(t, spec)
	dir := t.TempDir()

	m1, err := NewManager(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let it complete at least one month, then drain.
	deadline := time.Now().Add(time.Minute)
	for {
		cur, err := m1.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.MonthsDone >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never progressed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	closeManager(t, m1)
	checkGoroutines(t, goroutines)

	doc, err := loadState(statePath(dir, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Status != StatusCheckpointed && doc.Status != StatusDone {
		t.Fatalf("drained campaign persisted as %s", doc.Status)
	}
	if doc.Status == StatusDone {
		// The campaign won the race against the drain; nothing to resume,
		// but the results must still match.
		if !reflect.DeepEqual(want.Monthly, doc.Monthly) {
			t.Fatal("drain-completed campaign differs from the direct run")
		}
		return
	}

	m2, err := NewManager(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m2, st.ID)
	if final.Status != StatusDone {
		t.Fatalf("resumed campaign: %s (%s: %s)", final.Status, final.ErrKind, final.Error)
	}
	monthly, err := m2.Monthly(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Monthly, monthly) {
		t.Fatal("resumed Monthly differ from the uninterrupted run")
	}
	if !reflect.DeepEqual(want.Table, *final.Table) {
		t.Fatal("resumed Table I differs from the uninterrupted run")
	}
	closeManager(t, m2)
	checkGoroutines(t, goroutines)
}

// TestManagerConfig: a manager without a data directory is a
// configuration error.
func TestManagerConfig(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Fatal("NewManager accepted an empty data directory")
	}
	// A corrupt state file in the data directory fails recovery loudly
	// instead of silently skipping a campaign.
	dir := t.TempDir()
	if err := os.WriteFile(statePath(dir, "c000001"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(Config{DataDir: dir}); err == nil {
		t.Fatal("NewManager accepted a corrupt state file")
	}
}

// TestServiceKeyLifeCampaign: a keylife spec streams the key-lifecycle
// series through the service, bit-identical to the direct engine run of
// the same campaign with the same workload registered.
func TestServiceKeyLifeCampaign(t *testing.T) {
	spec, err := DecodeSpec([]byte(`{"devices":2,"window":30,"months":2,"keylife":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if !spec.KeyLife {
		t.Fatal("keylife field did not decode")
	}

	// Direct oracle: same rig campaign with its own workload instance.
	profile, err := profileByName(spec.Profile)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := keylife.New(context.Background(), keylife.Config{Profile: profile, Devices: spec.Devices, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewAssessment(core.AssessmentConfig{
		Source:       openLive(t, spec),
		WindowSize:   spec.Window,
		Months:       spec.EvalMonths(),
		Metrics:      wl.Metrics(),
		CrossMetrics: wl.CrossMetrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	m, err := NewManager(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer closeManager(t, m)
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitTerminal(t, m, st.ID); st.Status != StatusDone {
		t.Fatalf("campaign finished %s (%s)", st.Status, st.Error)
	}
	monthly, err := m.Monthly(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Monthly, monthly) {
		t.Fatal("key-lifecycle series differ between service and direct runs")
	}
	for _, ev := range monthly {
		if ev.Custom[keylife.MetricSuccess] == nil {
			t.Fatalf("month %d streamed no keylife.success series", ev.Month)
		}
	}
}

// TestServiceConcurrentSourceKinds runs one campaign of every live
// source kind at once on one two-worker Manager — rig, rig with
// key-life, eager fleet, lazy screened fleet, two-shard rig and
// two-shard lazy fleet — while a rig campaign found checkpointed in the
// data directory resumes beside them. Each must stream the Monthly
// series of its solo run, the unsharded ones must never put more than
// the global budget in flight, and nothing may leak.
func TestServiceConcurrentSourceKinds(t *testing.T) {
	const budget = 2
	pair := []string{"fleetnode-1kb", "fleetnode-2kb"}
	screened := Spec{Fleet: pair, Devices: 10, Seed: 777, Window: 24, MonthList: []int{0, 1, 2}, Lazy: true}
	screened.ScreenFloor = pickServiceFloor(t, screened)
	specs := map[string]Spec{
		"rig":                {Devices: 4, Months: 2, Window: 16},
		"rig+keylife":        {Devices: 2, Months: 2, Window: 30, KeyLife: true},
		"eager fleet":        {Fleet: pair, Devices: 5, Months: 2, Window: 16},
		"lazy screened":      screened,
		"2-shard rig":        {Devices: 4, Months: 2, Window: 16, Shards: 2},
		"2-shard lazy fleet": {Fleet: pair, Devices: 6, Months: 2, Window: 16, Lazy: true, Shards: 2},
		"resumed rig":        {Devices: 4, Months: 3, Window: 16},
	}
	for name, spec := range specs {
		spec.normalize()
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		specs[name] = spec
	}

	run := func(m *Manager, name string) string {
		st, err := m.Submit(specs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return st.ID
	}
	monthly := func(m *Manager, name, id string) []core.MonthEval {
		if st := waitTerminal(t, m, id); st.Status != StatusDone {
			t.Fatalf("%s: campaign finished %s (%s)", name, st.Status, st.Error)
		}
		got, err := m.Monthly(id)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	solo := map[string][]core.MonthEval{}
	for name := range specs {
		m, err := NewManager(Config{DataDir: t.TempDir(), Workers: budget})
		if err != nil {
			t.Fatal(err)
		}
		solo[name] = monthly(m, name, run(m, name))
		closeManager(t, m)
	}

	// The resumed campaign is killed partway through month 2: its
	// checkpoint holds months 0 and 1 and its state still says running.
	dir := t.TempDir()
	resumed := specs["resumed rig"]
	_, archive := uninterrupted(t, resumed)
	cut, _ := crashOffsets(t, archive, resumed)
	ids := map[string]string{"resumed rig": "c000001"}
	if err := os.WriteFile(archivePath(dir, ids["resumed rig"]), archive[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	c := newCampaign(ids["resumed rig"], resumed)
	c.status = StatusRunning
	if err := c.save(dir); err != nil {
		t.Fatal(err)
	}

	goroutines := runtime.NumGoroutine()
	m, err := NewManager(Config{DataDir: dir, Workers: budget})
	if err != nil {
		t.Fatal(err)
	}
	for name := range specs {
		if ids[name] == "" {
			ids[name] = run(m, name)
		}
	}
	for name, id := range ids {
		if got := monthly(m, name, id); !reflect.DeepEqual(got, solo[name]) {
			t.Errorf("%s: concurrent Monthly differ from the solo run", name)
		}
	}
	if st, err := m.Get(ids["resumed rig"]); err != nil || st.Resumed != 2 {
		t.Errorf("resumed rig: resumed %d months (%v), want 2", st.Resumed, err)
	}
	if got := m.pool.MaxInFlight(); got > budget || got == 0 {
		t.Errorf("MaxInFlight() = %d, want within (0, %d]", got, budget)
	}
	closeManager(t, m)
	checkGoroutines(t, goroutines)
}
