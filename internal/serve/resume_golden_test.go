package serve

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/keylife"
	"repro/internal/store"
)

// uninterrupted runs spec's campaign to completion the way the service
// runs it — its screening, its key-lifecycle workload — on the source
// the service builds, tapping every record into a v1 archive. It
// returns the Results and the archive bytes an uninterrupted service
// would have on disk just before sealing.
func uninterrupted(t *testing.T, spec Spec) (*core.Results, []byte) {
	t.Helper()
	cs := campaignOf(t, spec)
	live := openLive(t, spec)
	if c, ok := live.(io.Closer); ok {
		defer c.Close()
	}
	cfg := core.AssessmentConfig{Source: live, WindowSize: cs.Window, Months: cs.Months, Screening: cs.Screening}
	if cs.KeyLife {
		wl, err := keylife.New(context.Background(), keylifeConfig(cs))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Metrics, cfg.CrossMetrics = wl.Metrics(), wl.CrossMetrics()
	}
	var buf bytes.Buffer
	w := store.NewBinaryWriterV1(&buf)
	live.SetTap(w.Write)
	eng, err := core.NewAssessment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// sealedArchive is the file an uninterrupted campaign leaves on disk:
// its v1 record stream sealed by store.UpgradeFile, as the service seals
// a finished checkpoint.
func sealedArchive(t *testing.T, v1 []byte) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "uninterrupted.bin")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.UpgradeFile(path); err != nil {
		t.Fatal(err)
	}
	sealed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sealed
}

// recordBoundary returns the byte offset just past the first n records
// of a v1 archive, in stream order.
func recordBoundary(t *testing.T, archive []byte, n int) int64 {
	t.Helper()
	if !bytes.HasPrefix(archive, []byte(store.BinaryMagic)) {
		t.Fatal("not a v1 binary archive")
	}
	off := len(store.BinaryMagic)
	var rec store.Record
	for i := 0; i < n; i++ {
		size, err := store.DecodeRecord(archive[off:], &rec)
		if err != nil {
			t.Fatalf("archive shorter than crash target: %v", err)
		}
		off += size
	}
	return int64(off)
}

// crashOffsets scans a v1 archive and returns two byte offsets modelling
// a hard kill: one on a record boundary partway through a month's
// measurement windows (mid-month), one a few bytes further (a torn,
// half-written record — mid-window in the rawest sense).
func crashOffsets(t *testing.T, archive []byte, spec Spec) (boundary, torn int64) {
	t.Helper()
	// Two full months of records for every device, plus half a window:
	// months 0..1 are complete, month 2 is in flight on at least one
	// device whichever order shards landed their records in.
	boundary = recordBoundary(t, archive, spec.Devices*spec.Window*2+spec.Window/2)
	torn = boundary + 9
	if torn > int64(len(archive)) {
		t.Fatalf("archive too short for torn-record offset: %d > %d", torn, len(archive))
	}
	return boundary, torn
}

// TestServiceCrashResumeGolden is the acceptance walk of the service's
// checkpoint contract, across unsharded and sharded campaigns: a
// campaign hard-killed mid-month (record boundary) or mid-window (torn
// record) whose state file still says "running" is recovered on the next
// start, auto-resumed, and finishes with Results bit-identical to the
// uninterrupted direct run — with the archive re-sealed byte-identical
// to the uninterrupted one: the re-measured months are never recorded
// twice.
func TestServiceCrashResumeGolden(t *testing.T) {
	for _, shards := range []int{1, 2, 7} {
		t.Run(map[int]string{1: "shards=1", 2: "shards=2", 7: "shards=7"}[shards], func(t *testing.T) {
			devices := 4
			if shards == 7 {
				devices = 14
			}
			spec := Spec{Devices: devices, Months: 4, Window: 24, Seed: defaultSeed, Shards: shards}
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			want := directResults(t, spec)
			_, archive := uninterrupted(t, spec)
			sealed := sealedArchive(t, archive)
			boundary, torn := crashOffsets(t, archive, spec)

			for name, cut := range map[string]int64{"mid-month": boundary, "mid-window": torn} {
				t.Run(name, func(t *testing.T) {
					goroutines := runtime.NumGoroutine()
					dir := t.TempDir()
					const id = "c000001"
					if err := os.WriteFile(archivePath(dir, id), archive[:cut], 0o644); err != nil {
						t.Fatal(err)
					}
					c := newCampaign(id, spec)
					c.status = StatusRunning
					if err := c.save(dir); err != nil {
						t.Fatal(err)
					}

					m, err := NewManager(Config{DataDir: dir, Workers: 2, MaxActive: 2})
					if err != nil {
						t.Fatal(err)
					}
					final := waitTerminal(t, m, id)
					if final.Status != StatusDone {
						t.Fatalf("resumed campaign finished %s (%s): %s", final.Status, final.ErrKind, final.Error)
					}
					if final.Resumed == 0 {
						t.Error("campaign resumed zero months — checkpoint was discarded, not resumed")
					}
					monthly, err := m.Monthly(id)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(monthly, want.Monthly) {
						t.Error("resumed monthly series differs from uninterrupted run")
					}
					if final.Table == nil || !reflect.DeepEqual(*final.Table, want.Table) {
						t.Errorf("resumed Table I differs from uninterrupted run:\n got %+v\nwant %+v", final.Table, want.Table)
					}

					// The finished archive is sealed and replays to the
					// same results a third time.
					arch, err := core.OpenArchiveSource(archivePath(dir, id))
					if err != nil {
						t.Fatal(err)
					}
					if f := arch.Info().Format; f != store.FormatBinaryV2 {
						t.Errorf("finished archive format = %s, want %s", f, store.FormatBinaryV2)
					}
					replayEng, err := core.NewAssessment(core.AssessmentConfig{Source: arch, WindowSize: spec.Window, Months: spec.EvalMonths()})
					if err != nil {
						t.Fatal(err)
					}
					replay, err := replayEng.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(replay.Table, want.Table) {
						t.Error("sealed archive replay differs from uninterrupted run")
					}
					arch.Close()
					if got, err := os.ReadFile(archivePath(dir, id)); err != nil || !bytes.Equal(got, sealed) {
						t.Errorf("sealed archive (%d bytes, %v) is not byte-identical to the sealed uninterrupted archive (%d bytes)", len(got), err, len(sealed))
					}

					closeManager(t, m)
					checkGoroutines(t, goroutines)
				})
			}
		})
	}
}

// checkpointAfter returns the crash cut of a v1 archive after its first
// done months plus half of the next month's records — a kill partway
// through month done, whatever the survivor count of each month.
func checkpointAfter(t *testing.T, archive []byte, done int) int64 {
	t.Helper()
	r, err := store.OpenIndexedBytes(archive)
	if err != nil {
		t.Fatal(err)
	}
	perMonth := map[int]int{}
	for _, seg := range r.Segments() {
		perMonth[seg.Month] += seg.Count
	}
	records := perMonth[done] / 2
	for m := range done {
		records += perMonth[m]
	}
	return recordBoundary(t, archive, records)
}

// TestServiceResumeReMeasures: a crash-resumed campaign re-measures its
// checkpointed months on the live source and records only the months
// after them. A screened rig campaign whose first prunes fall inside the
// checkpoint, and a key-life campaign whose checkpoint is its enrollment
// month, both finish with the uninterrupted run's Results and seal an
// archive byte-identical to the uninterrupted one.
func TestServiceResumeReMeasures(t *testing.T) {
	screened := Spec{Devices: 6, Seed: 2468, Window: 25, Months: 2}
	screened.ScreenFloor = pickServiceFloor(t, screened)
	for _, row := range []struct {
		name string
		spec Spec
		done int // checkpointed months
	}{
		{"screened rig", screened, 2},
		{"key-life", Spec{Devices: 2, Window: 30, Months: 2, KeyLife: true}, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			spec := row.spec
			spec.normalize()
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			want, archive := uninterrupted(t, spec)
			if spec.ScreenFloor > 0 && len(want.Monthly[0].Pruned) == 0 {
				t.Fatal("no prune after month 0: the checkpoint would hold no screening decision")
			}
			goroutines := runtime.NumGoroutine()
			dir := t.TempDir()
			const id = "c000001"
			if err := os.WriteFile(archivePath(dir, id), archive[:checkpointAfter(t, archive, row.done)], 0o644); err != nil {
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
			if final.Resumed != row.done {
				t.Errorf("campaign resumed %d months, want %d", final.Resumed, row.done)
			}
			monthly, err := m.Monthly(id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(monthly, want.Monthly) {
				t.Error("resumed monthly series differs from the uninterrupted run")
			}
			if final.Table == nil || !reflect.DeepEqual(*final.Table, want.Table) {
				t.Error("resumed Table I differs from the uninterrupted run")
			}
			if got, err := os.ReadFile(archivePath(dir, id)); err != nil || !bytes.Equal(got, sealedArchive(t, archive)) {
				t.Errorf("sealed archive (%d bytes, %v) is not byte-identical to the sealed uninterrupted archive", len(got), err)
			}
			closeManager(t, m)
			checkGoroutines(t, goroutines)
		})
	}
}
