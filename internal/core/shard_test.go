package core

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/shard"
	"repro/internal/silicon"
	"repro/internal/store"
)

// shardTestMonths is a short campaign that still spans a Table I.
var shardTestMonths = []int{0, 1, 2, 3}

// mustOpen opens a spec as the source type the test expects.
func mustOpen[T Source](t testing.TB, s SimSpec) T {
	t.Helper()
	src, err := openAs[T](s)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func runAssessment(t *testing.T, src Source, window int, months []int) *Results {
	t.Helper()
	eng, err := NewAssessment(AssessmentConfig{Source: src, WindowSize: window, Months: months})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedSimBitIdentical: a sharded direct-sampling campaign
// produces bit-identical Results to the single-process SimSource for
// shard counts 1, 2 and 7 — the tentpole acceptance criterion.
func TestShardedSimBitIdentical(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	const devices, seed, window = 8, 20170208, 40
	plainSrc, err := NewSimSource(profile, devices, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := runAssessment(t, plainSrc, window, shardTestMonths)

	for _, shards := range []int{1, 2, 7} {
		src, err := openAs[*ShardedSource](SimSpec{Profile: profile, Devices: devices, Seed: seed, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := runAssessment(t, src, window, shardTestMonths)
		if err := src.Close(); err != nil {
			t.Fatalf("shards=%d: close: %v", shards, err)
		}
		assertResultsBitIdentical(t, want, got)
	}
}

// TestShardedProfileAssignmentAtOpen: a sharded sim source knows its
// profile assignment from open, before any Measure, and it is the direct
// SimSource's for every shard count, silicon and chip kind: a plain
// profile reports nothing, a one-profile fleet and a mixed one report
// their fleet's names and one byte per device.
func TestShardedProfileAssignmentAtOpen(t *testing.T) {
	fleet := screeningFleet(t)
	single, err := NewFleet(fleet.Profiles()[0])
	if err != nil {
		t.Fatal(err)
	}
	const devices, seed = 14, 4242
	for _, si := range []struct {
		name string
		spec SimSpec
	}{
		{"plain profile", SimSpec{Profile: fleet.Profiles()[0]}},
		{"one-profile fleet", SimSpec{Fleet: single}},
		{"two-profile fleet", SimSpec{Fleet: fleet}},
	} {
		for _, lazy := range []bool{false, true} {
			spec := si.spec
			spec.Devices, spec.Seed, spec.Lazy = devices, seed, lazy
			direct := mustOpen[*SimSource](t, spec)
			wantNames, wantIdx := direct.ProfileAssignment()
			wantList := direct.DeviceProfileNames()
			if (wantNames == nil) != (spec.Fleet == nil) || (spec.Fleet == fleet && !slices.Contains(wantIdx, 1)) {
				t.Fatalf("%s lazy=%v: direct source reports profiles %v, %v", si.name, lazy, wantNames, wantIdx)
			}
			for _, shards := range []int{1, 2, 7} {
				sharded := spec
				sharded.Shards = shards
				src := mustOpen[*ShardedSource](t, sharded)
				names, idx := src.ProfileAssignment()
				list := src.DeviceProfileNames()
				if err := src.Close(); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(idx, wantIdx) || !reflect.DeepEqual(list, wantList) {
					t.Fatalf("%s lazy=%v shards=%d: assignment at open (%v, %v), want the direct source's (%v, %v)",
						si.name, lazy, shards, names, idx, wantNames, wantIdx)
				}
			}
		}
	}
}

// TestShardedSimWorkersBitIdentical: the per-shard worker budget split
// must not change a single bit, whatever the total budget.
func TestShardedSimWorkersBitIdentical(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	const devices, seed, window = 6, 99, 30
	plainSrc, err := NewSimSource(profile, devices, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := runAssessment(t, plainSrc, window, shardTestMonths)
	for _, workers := range []int{1, 3, 16} {
		src := mustOpen[*ShardedSource](t, SimSpec{Profile: profile, Devices: devices, Seed: seed, Shards: 3})
		src.SetWorkers(workers)
		got := runAssessment(t, src, window, shardTestMonths)
		src.Close()
		assertResultsBitIdentical(t, want, got)
	}
}

// TestShardedRigBitIdentical: the sharded rig path (every worker runs
// the full deterministic rig with the other shards' boards muted) matches
// the single-process RigSource, and the merged record tap archives exactly
// the records the direct rig tap archives, board for board and in
// capture order.
func TestShardedRigBitIdentical(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	const devices, seed, window = 4, 7, 30
	const i2cErr = 0.001

	direct, err := NewRigSource(profile, devices, seed, i2cErr)
	if err != nil {
		t.Fatal(err)
	}
	directTap := boardRecords{}
	direct.SetTap(directTap.add)
	want := runAssessment(t, direct, window, shardTestMonths)

	sharded, err := NewShardedRigSource(profile, devices, seed, i2cErr, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	shardTap := boardRecords{}
	var mu sync.Mutex
	sharded.SetTap(func(rec store.Record) error {
		mu.Lock()
		defer mu.Unlock()
		// The tap's record payload aliases the wire decoder's per-device
		// scratch; retaining it requires a clone.
		rec.Data = rec.Data.Clone()
		return shardTap.add(rec)
	})
	got := runAssessment(t, sharded, window, shardTestMonths)
	if err := sharded.Close(); err != nil {
		t.Fatal(err)
	}
	assertResultsBitIdentical(t, want, got)

	if directTap.len() != shardTap.len() {
		t.Fatalf("tap sizes differ: direct %d, sharded %d", directTap.len(), shardTap.len())
	}
	for _, b := range directTap.boards() {
		dr, sr := directTap[b], shardTap[b]
		if len(dr) != len(sr) {
			t.Fatalf("board %d: %d direct records, %d sharded", b, len(dr), len(sr))
		}
		for i := range dr {
			if dr[i].Seq != sr[i].Seq || dr[i].Cycle != sr[i].Cycle ||
				!dr[i].Wall.Equal(sr[i].Wall) || !dr[i].Data.Equal(sr[i].Data) {
				t.Fatalf("board %d record %d differs between direct and sharded taps", b, i)
			}
		}
	}
}

// TestShardedArchiveReplayBitIdentical: sharded archive replay — month
// discovery included — matches the single-process ArchiveSource on the
// same archive.
func TestShardedArchiveReplayBitIdentical(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	const devices, seed, window = 4, 11, 25

	// Collect an archive through the rig tap.
	rig, err := NewRigSource(profile, devices, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	tap := boardRecords{}
	rig.SetTap(tap.add)
	runAssessment(t, rig, window, shardTestMonths)
	path := filepath.Join(t.TempDir(), "campaign.bin")
	tap.writeFile(t, path)

	plain, err := archiveSource(tap)
	if err != nil {
		t.Fatal(err)
	}
	wantMonths, err := plain.AvailableMonths(window)
	if err != nil {
		t.Fatal(err)
	}
	want := runAssessment(t, plain, window, wantMonths)

	for _, shards := range []int{1, 2} {
		src, err := NewShardedArchiveSource(path, shards, nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		gotMonths, err := src.AvailableMonths(window)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(gotMonths) != len(wantMonths) {
			t.Fatalf("shards=%d: months %v, want %v", shards, gotMonths, wantMonths)
		}
		for i := range wantMonths {
			if gotMonths[i] != wantMonths[i] {
				t.Fatalf("shards=%d: months %v, want %v", shards, gotMonths, wantMonths)
			}
		}
		got := runAssessment(t, src, window, gotMonths)
		src.Close()
		assertResultsBitIdentical(t, want, got)
	}
}

// TestShardedArchiveShortWindowTyped: a worker-side short window keeps
// its ErrShortWindow class across the process boundary.
func TestShardedArchiveShortWindowTyped(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	rig, err := NewRigSource(profile, 4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	tap := boardRecords{}
	rig.SetTap(tap.add)
	runAssessment(t, rig, 20, []int{0, 1})
	path := filepath.Join(t.TempDir(), "short.bin")
	tap.writeFile(t, path)

	src, err := NewShardedArchiveSource(path, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// The archive holds 20-record windows; asking for 50 must fail with
	// the typed short-window error from inside the workers.
	eng, err := NewAssessment(AssessmentConfig{Source: src, WindowSize: 50, Months: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); !errors.Is(err, ErrShortWindow) {
		t.Fatalf("err = %v, want ErrShortWindow", err)
	}
}

// crashTransport wraps the in-process transport and kills one shard's
// connection after a fixed number of reads.
type crashTransport struct {
	inner  shard.Transport
	victim int
	mu     sync.Mutex
	conn   io.ReadWriteCloser
	reads  int
	after  int
}

func (c *crashTransport) transport(i, n int) (io.ReadWriteCloser, error) {
	conn, err := c.inner(i, n)
	if err != nil {
		return nil, err
	}
	if i != c.victim {
		return conn, nil
	}
	c.conn = conn
	return c, nil
}

func (c *crashTransport) Read(b []byte) (int, error) {
	c.mu.Lock()
	c.reads++
	dead := c.after > 0 && c.reads > c.after
	c.mu.Unlock()
	if dead {
		c.conn.Close()
		return 0, errors.New("worker process died")
	}
	return c.conn.Read(b)
}

func (c *crashTransport) Write(b []byte) (int, error) { return c.conn.Write(b) }
func (c *crashTransport) Close() error                { return c.conn.Close() }

// arm starts failing reads after n more calls.
func (c *crashTransport) arm(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.after = c.reads + n
}

// TestShardedWorkerCrashTyped: a worker dying mid-campaign surfaces an
// error wrapping ErrShardWorker, aborts the run, and leaks no
// goroutines.
func TestShardedWorkerCrashTyped(t *testing.T) {
	before := runtime.NumGoroutine()
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	ct := &crashTransport{inner: InProcessShardTransport(), victim: 1}
	src := mustOpen[*ShardedSource](t, SimSpec{Profile: profile, Devices: 6, Seed: 5, Shards: 3, Transport: ct.transport})
	defer src.Close()
	ct.arm(4)
	eng, err := NewAssessment(AssessmentConfig{Source: src, WindowSize: 500, Months: shardTestMonths})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); !errors.Is(err, ErrShardWorker) {
		t.Fatalf("err = %v, want ErrShardWorker", err)
	}
	src.Close()
	assertNoShardLeaks(t, before)
}

// TestShardedSourceCancellation: cancelling mid-window winds every
// worker and forwarding goroutine down.
func TestShardedSourceCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	src := mustOpen[*ShardedSource](t, SimSpec{Profile: profile, Devices: 4, Seed: 5, Shards: 2})
	defer src.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	err = src.Measure(ctx, 0, 10000, func(int, *bitvec.Vector) error {
		if n.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	src.Close()
	assertNoShardLeaks(t, before)
}

// TestShardCountValidation: bad shard shapes fail fast with ErrConfig
// (shards > devices and odd sharded rigs are rows of
// TestSimSpecInvalid).
func TestShardCountValidation(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSim(SimSpec{Profile: profile, Devices: 4, Seed: 1, Shards: -1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative shards: err = %v, want ErrConfig", err)
	}
	// A sharded constructor asked for zero shards would open an
	// in-process source; it refuses instead.
	if _, err := NewShardedRigSource(profile, 4, 1, 0, 0, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("zero shards: err = %v, want ErrConfig", err)
	}
	if _, err := NewShardedArchiveSource("", 1, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty path: err = %v, want ErrConfig", err)
	}
	path := filepath.Join(t.TempDir(), "a.bin")
	writeSyntheticArchive(t, path, 4, map[int][]int{0: {0}, 1: {0}})
	for _, shards := range []int{0, -1} {
		if _, err := NewShardedArchiveSource(path, shards, nil); !errors.Is(err, ErrConfig) {
			t.Fatalf("archive replay on %d shards: err = %v, want ErrConfig", shards, err)
		}
	}
}

// writeSyntheticArchive writes a binary archive with the given complete
// months per board (window records each), for month-discovery tests.
func writeSyntheticArchive(t *testing.T, path string, window int, monthsByBoard map[int][]int) {
	t.Helper()
	counts := map[int]map[int]int{}
	for b, months := range monthsByBoard {
		counts[b] = map[int]int{}
		for _, m := range months {
			counts[b][m] = window
		}
	}
	writeArchiveCounts(t, path, counts)
}

// writeArchiveCounts writes a binary archive holding counts[b][m]
// records of board b in month m, so a month can also be partial.
func writeArchiveCounts(t *testing.T, path string, counts map[int]map[int]int) {
	t.Helper()
	a := boardRecords{}
	for _, b := range slices.Sorted(maps.Keys(counts)) {
		for _, m := range slices.Sorted(maps.Keys(counts[b])) {
			start := store.MonthlyWindowStart(m)
			window := counts[b][m]
			for i := 0; i < window; i++ {
				v := bitvec.New(16)
				v.Set((b+m+i)%16, true)
				rec := store.Record{
					Board: b,
					Seq:   uint64(m*window + i),
					Wall:  start.Add(time.Duration(i) * time.Second),
					Data:  v,
				}
				if err := a.add(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	a.writeFile(t, path)
}

// TestShardedArchiveDataLossNotMasked: a month lost on one shard's
// boards while another shard (and a later month everywhere) is complete
// must surface as ErrShortWindow from sharded month discovery — the
// single-process data-defect rule, not a silent skip. A shard that
// listed only its own boards would see month 1 as a rig-off month.
func TestShardedArchiveDataLossNotMasked(t *testing.T) {
	const window = 3
	path := filepath.Join(t.TempDir(), "lost.bin")
	// Board 0 lost month 1; board 1 is complete. With 2 shards each
	// board is its own shard, so shard 0 sees month 1 as "rig off".
	writeSyntheticArchive(t, path, window, map[int][]int{
		0: {0, 2},
		1: {0, 1, 2},
	})

	// The single-process source reports the defect...
	plain, err := OpenArchiveSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.AvailableMonths(window); !errors.Is(err, ErrShortWindow) {
		t.Fatalf("single-process: err = %v, want ErrShortWindow", err)
	}

	// ...and so must the sharded one.
	src, err := NewShardedArchiveSource(path, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	months, err := src.AvailableMonths(window)
	if !errors.Is(err, ErrShortWindow) {
		t.Fatalf("sharded: months = %v, err = %v, want ErrShortWindow", months, err)
	}
}

// TestShardedArchiveInterruptedTailDropped: a partial month at the end
// of the archive (collection interrupted) is NOT a defect — both the
// single-process and the sharded discovery drop it silently.
func TestShardedArchiveInterruptedTailDropped(t *testing.T) {
	const window = 3
	path := filepath.Join(t.TempDir(), "tail.bin")
	// Board 1's collection ran one month longer than board 0's; no
	// complete month follows the gap, so it is the interrupted tail.
	writeSyntheticArchive(t, path, window, map[int][]int{
		0: {0, 1},
		1: {0, 1, 2},
	})
	src, err := NewShardedArchiveSource(path, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	months, err := src.AvailableMonths(window)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1}
	if len(months) != len(want) || months[0] != want[0] || months[1] != want[1] {
		t.Fatalf("months = %v, want %v", months, want)
	}
}

// TestShardedArchiveMonthsMatchSingleProcess: sharded month discovery
// is the single-process rule, strict and screened, for every shard
// count — the same months, or the same ErrShortWindow. The archives are
// the shapes a per-shard listing merged across shards got wrong: a board
// that starts a month late is lost data, and one stray record at the
// tail is an interrupted month that a screened replay must drop, not
// fail on.
func TestShardedArchiveMonthsMatchSingleProcess(t *testing.T) {
	const window = 3
	full := func(months ...int) map[int]int {
		c := map[int]int{}
		for _, m := range months {
			c[m] = window
		}
		return c
	}
	strayTail := full(0, 1)
	strayTail[2] = 1
	archives := []struct {
		name   string
		counts map[int]map[int]int
	}{
		{"lost month", map[int]map[int]int{0: full(0, 2), 1: full(0, 1, 2)}},
		{"interrupted tail", map[int]map[int]int{0: full(0, 1), 1: full(0, 1, 2)}},
		{"stray tail record", map[int]map[int]int{0: full(0, 1, 2), 1: strayTail}},
		{"late start", map[int]map[int]int{0: full(0, 1, 2), 1: full(1, 2)}},
	}
	for _, a := range archives {
		t.Run(a.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "archive.bin")
			writeArchiveCounts(t, path, a.counts)
			plain, err := OpenArchiveSource(path)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			for _, shards := range []int{1, 2} {
				src, err := NewShardedArchiveSource(path, shards, nil)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				for _, screened := range []bool{false, true} {
					list := func(ml interface {
						MonthLister
						SurvivingMonthLister
					}) ([]int, error) {
						if screened {
							return ml.AvailableMonthsSurviving(window)
						}
						return ml.AvailableMonths(window)
					}
					want, wantErr := list(plain)
					got, gotErr := list(src)
					if wantErr != nil && !errors.Is(wantErr, ErrShortWindow) {
						t.Fatalf("screened=%t: single-process err = %v, want nil or ErrShortWindow", screened, wantErr)
					}
					if !reflect.DeepEqual(got, want) || errors.Is(gotErr, ErrShortWindow) != (wantErr != nil) {
						t.Fatalf("shards=%d screened=%t: months %v, err %v; single-process months %v, err %v",
							shards, screened, got, gotErr, want, wantErr)
					}
				}
				src.Close()
			}
		})
	}

	// A screened replay of the stray-tail archive evaluates months 0 and
	// 1 in every layout.
	path := filepath.Join(t.TempDir(), "stray.bin")
	writeArchiveCounts(t, path, archives[2].counts)
	plain, err := OpenArchiveSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	sc := &ScreeningConfig{Floor: 0}
	want := runScreened(t, plain, window, nil, sc)
	if len(want.Monthly) != 2 {
		t.Fatalf("single-process screened replay evaluated %d months, want 2", len(want.Monthly))
	}
	for _, shards := range []int{1, 2} {
		src, err := NewShardedArchiveSource(path, shards, nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := runScreened(t, src, window, nil, sc)
		src.Close()
		assertResultsBitIdentical(t, want, got)
	}
}

// TestShardErrorCodes: every engine error class a backend can raise
// keeps its wire code, and a bad handshake spec is ErrConfig.
func TestShardErrorCodes(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	codes := map[error]string{
		ErrConfig:              shard.CodeConfig,
		ErrShortWindow:         shard.CodeShortWindow,
		errors.New("whatever"): shard.CodeInternal,
	}
	for err, want := range codes {
		if got := shardErrorCode(err); got != want {
			t.Errorf("shardErrorCode(%v) = %q, want %q", err, got, want)
		}
	}
	if _, err := buildShardBackend(shard.Spec{Sim: mustJSON(t, SimSpec{Profile: profile})}); !errors.Is(err, ErrConfig) {
		t.Fatalf("invalid sim spec: err = %v, want ErrConfig", err)
	}
	if _, err := buildShardBackend(shard.Spec{ArchivePath: "/no/such/file.jsonl"}); !errors.Is(err, ErrConfig) {
		t.Fatalf("missing archive: err = %v, want ErrConfig", err)
	}
}

// TestValidAssignment exercises the worker-side assignment checks.
func TestValidAssignment(t *testing.T) {
	cases := []struct {
		indices []int
		devices int
		ok      bool
	}{
		{[]int{0, 1, 2}, 4, true},
		{[]int{3}, 4, true},
		{nil, 4, false},
		{[]int{4}, 4, false},
		{[]int{-1}, 4, false},
		{[]int{1, 1}, 4, false},
		{[]int{2, 1}, 4, false},
	}
	for _, c := range cases {
		err := validAssignment(c.indices, c.devices)
		if c.ok && err != nil {
			t.Errorf("validAssignment(%v, %d): unexpected %v", c.indices, c.devices, err)
		}
		if !c.ok && !errors.Is(err, ErrConfig) {
			t.Errorf("validAssignment(%v, %d) = %v, want ErrConfig", c.indices, c.devices, err)
		}
	}
}

// TestShardHandshakeRejectsInvalidSpec: a worker validates the sim spec
// at hello, so an invalid spec fails inside NewCoordinator with
// ErrConfig, before any assignment, and leaves no goroutine behind.
func TestShardHandshakeRejectsInvalidSpec(t *testing.T) {
	p1, _, two := specMatrixSilicon(t)
	dup := mustJSON(t, map[string]any{"fleet": []silicon.DeviceProfile{p1, p1}, "devices": 4, "seed": 1})
	cases := map[string]json.RawMessage{
		"odd rig":                mustJSON(t, SimSpec{Profile: p1, Devices: 3, Seed: 1, Rig: true}),
		"two-profile rig":        mustJSON(t, SimSpec{Fleet: two, Devices: 4, Seed: 1, Rig: true}),
		"duplicate profile name": dup,
		"wrong field type":       json.RawMessage(`{"devices":"four","seed":1}`),
		"not an object":          json.RawMessage(`[4]`),
	}
	before := runtime.NumGoroutine()
	for name, sim := range cases {
		co, err := shard.NewCoordinator(shard.Spec{Sim: sim}, 1, InProcessShardTransport())
		if err == nil {
			co.Close()
			t.Errorf("%s: handshake accepted", name)
			continue
		}
		if err := mapShardErr(err); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: err = %v, want ErrConfig", name, err)
		}
	}
	assertNoShardLeaks(t, before)
}

// mustJSON encodes v or fails the test.
func mustJSON(t testing.TB, v any) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func assertNoShardLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}
