package serve

import (
	"bytes"
	"context"
	"io"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// fullServiceArchive runs spec's campaign to completion through the same
// source construction the service uses (sharded or not), tapping every
// record into a v1 archive — the bytes an uninterrupted service would
// have on disk just before sealing.
func fullServiceArchive(t *testing.T, spec Spec) []byte {
	t.Helper()
	live := openLive(t, spec)
	if c, ok := live.(io.Closer); ok {
		defer c.Close()
	}
	var buf bytes.Buffer
	w := store.NewBinaryWriterV1(&buf)
	live.SetTap(w.Write)
	eng, err := core.NewAssessment(core.AssessmentConfig{Source: live, WindowSize: spec.Window, Months: spec.EvalMonths()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// crashOffsets scans a v1 archive and returns two byte offsets modelling
// a hard kill: one on a record boundary partway through a month's
// measurement windows (mid-month), one a few bytes further (a torn,
// half-written record — mid-window in the rawest sense).
func crashOffsets(t *testing.T, archive []byte, spec Spec) (boundary, torn int64) {
	t.Helper()
	r, err := store.NewBinaryReader(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	// Two full months of records for every device, plus half a window:
	// months 0..1 are complete, month 2 is in flight on at least one
	// device whichever order shards landed their records in.
	target := spec.Devices*spec.Window*2 + spec.Window/2
	var rec store.Record
	for n := 0; n < target; n++ {
		if err := r.Read(&rec); err != nil {
			t.Fatalf("archive shorter than crash target: %v", err)
		}
	}
	boundary = r.Offset()
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
// uninterrupted direct run — with the archive re-sealed.
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
			archive := fullServiceArchive(t, spec)
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

					closeManager(t, m)
					checkGoroutines(t, goroutines)
				})
			}
		})
	}
}
