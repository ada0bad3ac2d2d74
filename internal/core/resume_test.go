package core

import (
	"bytes"
	"context"
	"errors"
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
// core layer: a campaign interrupted after two months and resumed from
// its archive produces Results bit-identical to the uninterrupted run,
// and the archive it finishes writing is byte-identical to the archive
// the uninterrupted run would have written.
func TestResumeSourceBitIdentical(t *testing.T) {
	months := MonthRange(3)
	const window = 40

	var full bytes.Buffer
	want := runRigCampaign(t, months, window, &full)

	// The checkpoint: months 0 and 1 survived the crash.
	ckpt := truncateToMonths(t, full.Bytes(), map[int]bool{0: true, 1: true})
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
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
	arch, err := OpenArchiveSource(path)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewResumeSource(live, arch, []int{0, 1}, window)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	// Arm the tap only when live measurement begins: the resumed archive
	// must continue where the checkpoint stopped, not duplicate it.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := store.ContinueBinaryWriterV1(f)
	armed := false
	rs.OnBeforeLive(func() error {
		armed = true
		live.SetTap(w.Write)
		return nil
	})

	eng, err := NewAssessment(AssessmentConfig{Source: rs, WindowSize: window, Months: months})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !armed {
		t.Fatal("OnBeforeLive hook never fired: months 2..3 were not live")
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
			len(resumed), len(full.Bytes()))
	}
}

// TestResumeSourceValidation: device mismatches and months without a
// complete archived window are configuration errors, caught before any
// measurement.
func TestResumeSourceValidation(t *testing.T) {
	months := MonthRange(2)
	const window = 30

	var full bytes.Buffer
	runRigCampaign(t, months, window, &full)
	ckpt := truncateToMonths(t, full.Bytes(), map[int]bool{0: true})
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := os.WriteFile(path, ckpt, 0o644); err != nil {
		t.Fatal(err)
	}

	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	open := func() *ArchiveSource {
		arch, err := OpenArchiveSource(path)
		if err != nil {
			t.Fatal(err)
		}
		return arch
	}

	arch := open()
	defer arch.Close()
	live4, err := NewRigSource(profile, 4, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Month 1 is not in the checkpoint: not resumable from it.
	if _, err := NewResumeSource(live4, arch, []int{0, 1}, window); !errors.Is(err, ErrShortWindow) {
		t.Fatalf("missing archived month: got %v, want ErrShortWindow", err)
	}
	// A larger window than the archive holds is equally short.
	if _, err := NewResumeSource(live4, arch, []int{0}, window+1); !errors.Is(err, ErrShortWindow) {
		t.Fatalf("oversized window: got %v, want ErrShortWindow", err)
	}

	live6, err := NewRigSource(profile, 6, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewResumeSource(live6, arch, []int{0}, window); !errors.Is(err, ErrConfig) {
		t.Fatalf("device mismatch: got %v, want ErrConfig", err)
	}
	if _, err := NewResumeSource(nil, arch, []int{0}, window); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil live source: got %v, want ErrConfig", err)
	}
	// No archived months: a plain live pass-through is fine.
	rs, err := NewResumeSource(live4, nil, nil, window)
	if err != nil {
		t.Fatalf("empty checkpoint: %v", err)
	}
	if len(rs.done) != 0 {
		t.Fatalf("%d archived months, want 0", len(rs.done))
	}
}
