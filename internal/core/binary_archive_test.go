package core

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/silicon"
	"repro/internal/store"
)

// TestBinaryArchiveReplayBitIdentical: one campaign, collected through
// the rig tap, archived in EVERY format — JSONL, un-indexed binary v1
// and indexed binary v2 — must replay to bit-identical Results through
// every replay surface: an in-memory image (a JSONL image converted into
// binary), the seek-based OpenArchiveSource (trailer index on v2,
// fallback scan on v1) and the sharded archive source at shard counts
// 1, 2 and 7. A JSONL file is not a replay format: both file surfaces
// refuse it with store.ErrJSONL, and replay it after store.UpgradeFile
// converts a copy. This is the format-equivalence oracle of DESIGN.md
// §5/§6: codec and index change the bytes on disk and the I/O pattern
// of replay, never a bit of the assessment.
func TestBinaryArchiveReplayBitIdentical(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	const devices, seed, window = 8, 13, 20

	rig, err := NewRigSource(profile, devices, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	tap := boardRecords{}
	rig.SetTap(tap.add)
	live := runAssessment(t, rig, window, shardTestMonths)

	dir := t.TempDir()
	jsonlPath := filepath.Join(dir, "campaign.jsonl")
	binPath := filepath.Join(dir, "campaign.bin")
	v1Path := filepath.Join(dir, "campaign-v1.bin")
	// Each format through its shipped writer, board-major; v1 is the
	// archive shape older campaigns left on disk.
	writeWith := func(path string, writer func(io.Writer) store.RecordWriter) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := tap.writeTo(writer(f)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeWith(jsonlPath, func(w io.Writer) store.RecordWriter { return store.NewJSONLWriter(w) })
	writeWith(binPath, func(w io.Writer) store.RecordWriter { return store.NewBinaryWriter(w) })
	writeWith(v1Path, func(w io.Writer) store.RecordWriter { return store.NewBinaryWriterV1(w) })

	jsonlInfo, err := os.Stat(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	binInfo, err := os.Stat(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if binInfo.Size()*2 > jsonlInfo.Size() {
		t.Fatalf("binary archive is %d bytes, JSONL %d — want at least a 2x reduction", binInfo.Size(), jsonlInfo.Size())
	}

	// A JSONL file is refused by both file surfaces, naming the
	// conversion; a converted copy replays like the binary archives.
	if _, err := OpenArchiveSource(jsonlPath); !errors.Is(err, store.ErrJSONL) || !errors.Is(err, ErrConfig) {
		t.Fatalf("JSONL file replay: err = %v, want ErrConfig wrapping store.ErrJSONL", err)
	}
	if src, err := NewShardedArchiveSource(jsonlPath, 2, nil); err == nil {
		src.Close()
		t.Fatal("sharded JSONL file replay opened")
	} else if !strings.Contains(err.Error(), "evaluate -index") {
		t.Fatalf("sharded JSONL file replay: err = %v, want one naming evaluate -index", err)
	}
	upgradedPath := filepath.Join(dir, "campaign-upgraded.bin")
	data, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(upgradedPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.UpgradeFile(upgradedPath); err != nil {
		t.Fatal(err)
	}

	// In-memory replay: the whole file as an image (JSONL converted).
	replayMem := func(path string) *Results {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ir, err := store.OpenIndexedBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		src, err := NewArchiveSource(ir)
		if err != nil {
			t.Fatal(err)
		}
		return runAssessment(t, src, window, shardTestMonths)
	}
	for _, path := range []string{jsonlPath, v1Path, binPath} {
		assertResultsBitIdentical(t, live, replayMem(path))
	}
	paths := []string{upgradedPath, v1Path, binPath}
	// Seek-based replay straight from the file.
	replaySeek := func(path string) *Results {
		src, err := OpenArchiveSource(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		defer src.Close()
		months, err := src.AvailableMonths(window)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(months) != len(shardTestMonths) {
			t.Fatalf("%s: discovered months %v, want %v", path, months, shardTestMonths)
		}
		return runAssessment(t, src, window, months)
	}
	for _, path := range paths {
		assertResultsBitIdentical(t, live, replaySeek(path))
	}

	for _, path := range paths {
		for _, shards := range []int{1, 2, 7} {
			src, err := NewShardedArchiveSource(path, shards, nil)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", path, shards, err)
			}
			months, err := src.AvailableMonths(window)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", path, shards, err)
			}
			if len(months) != len(shardTestMonths) {
				t.Fatalf("%s shards=%d: discovered months %v, want %v", path, shards, months, shardTestMonths)
			}
			got := runAssessment(t, src, window, months)
			if err := src.Close(); err != nil {
				t.Fatalf("%s shards=%d: close: %v", path, shards, err)
			}
			assertResultsBitIdentical(t, live, got)
		}
	}
}
