package harness

import (
	"errors"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/desim"
	"repro/internal/device"
	"repro/internal/silicon"
	"repro/internal/store"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	return DefaultConfig(profile, 99)
}

func smallRig(t *testing.T, slavesPerLayer int) *Rig {
	t.Helper()
	cfg := testConfig(t)
	cfg.SlavesPerLayer = slavesPerLayer
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// collect runs the month's window through StreamWindow and returns its
// records in capture order.
func collect(t *testing.T, r *Rig, measurements, month int) []store.Record {
	t.Helper()
	var recs []store.Record
	if err := r.StreamWindow(measurements, month, func(rec store.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// byBoard groups records by board, each board's in capture order.
func byBoard(recs []store.Record) map[int][]store.Record {
	out := make(map[int][]store.Record)
	for _, rec := range recs {
		out[rec.Board] = append(out[rec.Board], rec)
	}
	return out
}

// discard is a window sink that keeps nothing.
func discard(store.Record) error { return nil }

func TestConfigValidate(t *testing.T) {
	good := testConfig(t)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Layers = 0 },
		func(c *Config) { c.Layers = 3 },
		func(c *Config) { c.SlavesPerLayer = 0 },
		func(c *Config) { c.BusClockHz = 0 },
		func(c *Config) { c.PowerOnTime = 0 },
		func(c *Config) { c.I2CErrorRate = 2 },
		func(c *Config) { c.BootDelay = c.PowerOnTime }, // readout cannot fit
		// The reads fit after boot but not after the delay before the
		// first read: the power-off would fall in the past.
		func(c *Config) { c.PowerOnTime = c.BootDelay + 8*readDuration(*c) + 500 },
		func(c *Config) { c.Profile.SRAMBytes = 0 },
	}
	for i, mutate := range bad {
		c := testConfig(t)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := testConfig(t)
	if cfg.Layers != 2 || cfg.SlavesPerLayer != 8 {
		t.Errorf("rig layout %dx%d, want 2x8", cfg.Layers, cfg.SlavesPerLayer)
	}
	if cfg.CyclePeriod() != desim.FromSeconds(5.4) {
		t.Errorf("cycle period = %v, want 5.4 s", cfg.CyclePeriod())
	}
	if cfg.PowerOnTime != desim.FromSeconds(3.8) || cfg.PowerOffTime != desim.FromSeconds(1.6) {
		t.Errorf("phases = %v/%v, want 3.8/1.6 s", cfg.PowerOnTime, cfg.PowerOffTime)
	}
}

func TestRigAssembly(t *testing.T) {
	r := smallRig(t, 8)
	if len(r.Boards()) != 16 {
		t.Fatalf("boards = %d, want 16", len(r.Boards()))
	}
	if len(r.Arrays()) != 16 {
		t.Fatalf("arrays = %d", len(r.Arrays()))
	}
	for i, b := range r.Boards() {
		if b.ID != i {
			t.Fatalf("board %d has ID %d", i, b.ID)
		}
		wantLayer := i / 8
		if b.Layer != wantLayer {
			t.Fatalf("board %d on layer %d, want %d", i, b.Layer, wantLayer)
		}
	}
}

func TestRunWindowProducesRecords(t *testing.T) {
	r := smallRig(t, 2)
	start := store.MonthlyWindowStart(0)
	all := collect(t, r, 5, 0)
	if len(all) != 4*5 {
		t.Fatalf("window has %d records, want 20", len(all))
	}
	for board, recs := range byBoard(all) {
		if len(recs) != 5 {
			t.Fatalf("board %d: %d records, want 5", board, len(recs))
		}
		for i, rec := range recs {
			if rec.Data.Len() != 8192 {
				t.Fatalf("record bits = %d, want 8192", rec.Data.Len())
			}
			if rec.Seq != uint64(i+1) {
				t.Fatalf("board %d record %d: seq %d", board, i, rec.Seq)
			}
			if rec.Wall.Before(start) {
				t.Fatalf("record timestamp %v before window start", rec.Wall)
			}
		}
	}
	if r.readErrors != 0 {
		t.Fatalf("read errors = %d", r.readErrors)
	}
}

func TestRunWindowRejectsBadSize(t *testing.T) {
	r := smallRig(t, 1)
	if err := r.StreamWindow(0, 0, discard); err == nil {
		t.Fatal("zero-measurement window accepted")
	}
	if err := r.StreamWindow(2, -1, discard); err == nil {
		t.Fatal("window of a negative month accepted")
	}
}

func TestCycleTimingMatchesFig3(t *testing.T) {
	// Fig. 3: period 5.4 s, on-time 3.8 s, layers out of phase.
	r := smallRig(t, 2)
	r.Switch().SetTracing(true)
	if err := r.StreamWindow(6, 0, discard); err != nil {
		t.Fatal(err)
	}
	trace := r.Switch().Trace()
	for _, ch := range []int{0, 1, 2, 3} {
		period, err := device.CyclePeriod(trace, ch)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(period.Seconds()-5.4) > 0.01 {
			t.Errorf("channel %d: period = %v, want 5.4 s", ch, period)
		}
		on, err := device.OnTime(trace, ch)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(on.Seconds()-3.8) > 0.01 {
			t.Errorf("channel %d: on-time = %v, want 3.8 s", ch, on)
		}
	}
	// Boards on the same layer switch together; layers are offset by 2.7 s.
	atProbe := desim.FromSeconds(1.0)
	if !device.WaveformSample(trace, 0, atProbe) || !device.WaveformSample(trace, 1, atProbe) {
		t.Error("layer 0 boards not powered at t=1 s")
	}
	if device.WaveformSample(trace, 2, atProbe) {
		t.Error("layer 1 board powered at t=1 s; layers should be out of phase")
	}
	if !device.WaveformSample(trace, 2, desim.FromSeconds(3.0)) {
		t.Error("layer 1 board not powered at t=3.0 s")
	}
}

func TestLayerSynchronisation(t *testing.T) {
	// Algorithm 1's handshake: both layers produce exactly the same number
	// of measurements even though they run out of phase.
	r := smallRig(t, 3)
	for board, recs := range byBoard(collect(t, r, 7, 0)) {
		if n := len(recs); n != 7 {
			t.Fatalf("board %d produced %d records, want 7 (layer sync broken)", board, n)
		}
	}
}

func TestMeasurementRateMatchesPaper(t *testing.T) {
	// "around 10 measurements per minute" per board across the rig.
	cfg := testConfig(t)
	perMinute := 60.0 / cfg.CyclePeriod().Seconds()
	if perMinute < 10 || perMinute > 12 {
		t.Fatalf("measurements per board-minute = %v, paper says ~10-11", perMinute)
	}
}

func TestDeterministicWindows(t *testing.T) {
	r1 := smallRig(t, 2)
	r2 := smallRig(t, 2)
	w1, w2 := collect(t, r1, 3, 0), collect(t, r2, 3, 0)
	if len(w1) != len(w2) {
		t.Fatalf("window sizes differ: %d vs %d", len(w1), len(w2))
	}
	a2 := byBoard(w2)
	for b, recs1 := range byBoard(w1) {
		recs2 := a2[b]
		for i := range recs1 {
			if !recs1[i].Data.Equal(recs2[i].Data) {
				t.Fatalf("board %d record %d differs between identical seeds", b, i)
			}
		}
	}
}

// TestSeqAndCycleBases: a month-k window counts its cycles from
// k·CyclesPerMonth, the cycles the campaign fast-forwards between
// windows, and Seq is the board's lifetime power-up count.
func TestSeqAndCycleBases(t *testing.T) {
	r := smallRig(t, 1)
	const k = 7
	recs := byBoard(collect(t, r, 2, k))[0]
	if want := k*CyclesPerMonth + 1; recs[0].Seq != want {
		t.Fatalf("first seq = %d, want %d", recs[0].Seq, want)
	}
	if want := k * CyclesPerMonth; recs[0].Cycle != want {
		t.Fatalf("first cycle = %d, want %d", recs[0].Cycle, want)
	}
}

// TestWallIsPowerOnEdge: every record's Wall is the rising edge of its
// board's channel in the power-switch trace that latched the pattern,
// counted from the month's window start, on two-layer and one-layer
// rigs and for a window that does not start at simulated time zero.
func TestWallIsPowerOnEdge(t *testing.T) {
	for _, layers := range []int{2, 1} {
		cfg := testConfig(t)
		cfg.Layers, cfg.SlavesPerLayer = layers, 3
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Switch().SetTracing(true)
		for _, month := range []int{0, 2} {
			start, seen := r.sim.Now(), len(r.Switch().Trace())
			recs := byBoard(collect(t, r, 4, month))
			edges := map[int][]desim.Time{}
			for _, tr := range r.Switch().Trace()[seen:] {
				if tr.On {
					edges[tr.Channel] = append(edges[tr.Channel], tr.At)
				}
			}
			for b := range len(r.Boards()) {
				if len(recs[b]) != 4 || len(edges[b]) != 4 {
					t.Fatalf("%d layers, month %d, board %d: %d records, %d rising edges, want 4 each", layers, month, b, len(recs[b]), len(edges[b]))
				}
				for i, rec := range recs[b] {
					want := store.MonthlyWindowStart(month).Add(time.Duration(edges[b][i]-start) * time.Microsecond)
					if !rec.Wall.Equal(want) {
						t.Fatalf("%d layers, month %d, board %d record %d: wall %v, want the power-on edge %v", layers, month, b, i, rec.Wall, want)
					}
				}
			}
		}
	}
}

func TestI2CErrorInjectionCountsErrors(t *testing.T) {
	cfg := testConfig(t)
	cfg.SlavesPerLayer = 1
	cfg.I2CErrorRate = 0.001 // ~1 corrupted byte per 1 KByte read
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Corruption does not break framing (payload length unchanged), so
	// records still arrive; the point is the collection keeps operating.
	if n := len(collect(t, r, 10, 0)); n != 20 {
		t.Fatalf("window has %d records, want 20", n)
	}
}

func TestWindowTimestampsSpacing(t *testing.T) {
	r := smallRig(t, 1)
	recs := byBoard(collect(t, r, 4, 0))[0]
	for i := 1; i < len(recs); i++ {
		dt := recs[i].Wall.Sub(recs[i-1].Wall)
		if math.Abs(dt.Seconds()-5.4) > 0.01 {
			t.Fatalf("record spacing = %v, want 5.4 s", dt)
		}
	}
}

// TestStreamWindowNilSink: a window without a sink is refused before it
// powers anything, so the rig stays usable: the next window with a real
// sink yields every board's full window, counted from the first cycle.
func TestStreamWindowNilSink(t *testing.T) {
	r := smallRig(t, 2)
	r.Switch().SetTracing(true)
	if err := r.StreamWindow(3, 0, nil); err == nil {
		t.Fatal("nil sink accepted")
	}
	if n := len(r.Switch().Trace()); n != 0 {
		t.Fatalf("the refused window switched power %d times", n)
	}
	got := byBoard(collect(t, r, 3, 0))
	if len(got) != 4 {
		t.Fatalf("window after the refused one recorded %d boards, want 4", len(got))
	}
	for board, recs := range got {
		if len(recs) != 3 {
			t.Fatalf("board %d: %d records, want 3", board, len(recs))
		}
		if recs[0].Seq != 1 {
			t.Fatalf("board %d: first seq %d, want 1 (the refused window powered the board)", board, recs[0].Seq)
		}
	}
}

// TestStreamWindowAbortPoisonsRig: a window stopped mid-cycle by a sink
// failure leaves stale events in the simulator queue, so the rig must
// refuse further windows instead of silently corrupting them.
func TestStreamWindowAbortPoisonsRig(t *testing.T) {
	r := smallRig(t, 1)
	boom := errors.New("boom")
	err := r.StreamWindow(20, 0, func(store.Record) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("aborted window: err = %v, want boom", err)
	}
	if err := r.StreamWindow(2, 1, discard); err == nil {
		t.Fatal("poisoned rig accepted another window")
	}
}

// TestStreamWindowAbortJoinsCaptures: a window stopped mid-cycle by its
// sink, with captures on worker goroutines, joins every capture it
// started before returning — each board's chip has sampled every power-up
// the board latched, and reading the chips does not race a worker — and
// leaves no goroutine behind.
func TestStreamWindowAbortJoinsCaptures(t *testing.T) {
	r := smallRig(t, 8)
	r.SetWorkers(4)
	r.Switch().SetTracing(true)
	before := runtime.NumGoroutine()
	stop := errors.New("stop")
	n := 0
	err := r.StreamWindow(50, 0, func(store.Record) error {
		if n++; n == 37 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("aborted window: err = %v, want stop", err)
	}
	latched := make([]uint64, len(r.Boards()))
	for _, tr := range r.Switch().Trace() {
		if tr.On {
			latched[tr.Channel]++
		}
	}
	for i := range r.Boards() {
		if got := r.Arrays()[i].PowerUps(); latched[i] == 0 || got < latched[i] {
			t.Fatalf("board %d: %d power-ups sampled of %d latched", i, got, latched[i])
		}
	}
	for range 100 {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%d goroutines after the aborted window, %d before", runtime.NumGoroutine(), before)
}

// TestWorkersKeepRecords: the capture width changes no record, with I2C
// error injection on.
func TestWorkersKeepRecords(t *testing.T) {
	records := func(workers int) []store.Record {
		cfg := testConfig(t)
		cfg.SlavesPerLayer = 4
		cfg.I2CErrorRate = 0.002
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.SetWorkers(workers)
		return collect(t, r, 6, 0)
	}
	want := records(1)
	for _, w := range []int{2, 3, 0} {
		got := records(w)
		if len(got) != len(want) {
			t.Fatalf("workers %d: %d records, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i].Board != want[i].Board || got[i].Seq != want[i].Seq || !got[i].Data.Equal(want[i].Data) {
				t.Fatalf("workers %d: record %d differs from width 1", w, i)
			}
		}
	}
}

// TestMuteKeepsOtherBoards: a muted board's read-outs are discarded, and
// every other board records what it records on the unmuted rig — the
// muted board still answers on the bus, drawing the same byte errors.
func TestMuteKeepsOtherBoards(t *testing.T) {
	cfg := testConfig(t)
	cfg.SlavesPerLayer = 2
	cfg.I2CErrorRate = 0.003
	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	muted, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := muted.Mute(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := muted.Mute(4); err == nil {
		t.Fatal("muting a board the rig does not have succeeded")
	}
	fullRecs, mutedRecs := byBoard(collect(t, full, 8, 0)), byBoard(collect(t, muted, 8, 0))
	if got := slices.Sorted(maps.Keys(mutedRecs)); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("muted rig forwarded boards %v, want [1 2]", got)
	}
	for _, b := range []int{1, 2} {
		want, got := fullRecs[b], mutedRecs[b]
		if len(got) != len(want) {
			t.Fatalf("board %d: %d records, want %d", b, len(got), len(want))
		}
		for i := range want {
			if !got[i].Data.Equal(want[i].Data) {
				t.Fatalf("board %d record %d differs once boards 0 and 3 are muted", b, i)
			}
		}
	}
}
