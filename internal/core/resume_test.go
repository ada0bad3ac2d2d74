package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/silicon"
	"repro/internal/store"
)

// runRigCampaign runs a full rig campaign, optionally tapping the record
// stream into a v1 binary archive buffer, and returns its results.
func runRigCampaign(t *testing.T, months []int, window int, buf *bytes.Buffer) *Results {
	t.Helper()
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewRigSource(profile, 4, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if buf != nil {
		w := store.NewBinaryWriterV1(buf)
		src.SetTap(w.Write)
		defer func() {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}()
	}
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

// truncateToMonths keeps only the records of the given months of a v1
// archive, preserving stream order — the recovered prefix of a
// checkpoint archive.
func truncateToMonths(t *testing.T, archive []byte, keep map[int]bool) []byte {
	t.Helper()
	if !bytes.HasPrefix(archive, []byte(store.BinaryMagic)) {
		t.Fatal("not a v1 binary archive")
	}
	var out bytes.Buffer
	w := store.NewBinaryWriterV1(&out)
	var rec store.Record
	for off := len(store.BinaryMagic); off < len(archive); {
		n, err := store.DecodeRecord(archive[off:], &rec)
		if err != nil {
			t.Fatal(err)
		}
		off += n
		if keep[store.MonthIndex(rec.Wall)] {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestResumeSourceBitIdentical is the checkpoint/resume identity at the
// core layer, for the resume the service runs: a campaign interrupted
// after two months is resumed by re-measuring its live source from month
// 0, with the append tap armed in the Progress callback of the last done
// month. Its Results are bit-identical to the uninterrupted run, and the
// archive it finishes writing is byte-identical to the archive the
// uninterrupted run wrote — the done months are never recorded twice.
func TestResumeSourceBitIdentical(t *testing.T) {
	months := MonthRange(3)
	const window = 40

	var full bytes.Buffer
	want := runRigCampaign(t, months, window, &full)

	// The checkpoint: months 0 and 1 survived the crash.
	ckpt := truncateToMonths(t, full.Bytes(), map[int]bool{0: true, 1: true})
	if len(ckpt) >= full.Len() {
		t.Fatalf("checkpoint holds %d bytes, the full archive %d: nothing was cut", len(ckpt), full.Len())
	}
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := os.WriteFile(path, ckpt, 0o644); err != nil {
		t.Fatal(err)
	}

	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewRigSource(profile, 4, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := store.ContinueBinaryWriterV1(f)

	const lastDone = 1
	armed := false
	eng, err := NewAssessment(AssessmentConfig{
		Source:     live,
		WindowSize: window,
		Months:     months,
		Progress: func(ev MonthEval) {
			if ev.Month == lastDone {
				armed = true
				live.SetTap(w.Write)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !armed {
		t.Fatal("the tap never armed: the last done month was not evaluated")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want.Monthly, got.Monthly) {
		t.Fatal("resumed Monthly differ from the uninterrupted run")
	}
	if !reflect.DeepEqual(want.Table, got.Table) {
		t.Fatal("resumed Table I differs from the uninterrupted run")
	}
	resumed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, full.Bytes()) {
		t.Fatalf("resumed archive (%d bytes) is not byte-identical to the uninterrupted archive (%d bytes)",
			len(resumed), full.Len())
	}
}
