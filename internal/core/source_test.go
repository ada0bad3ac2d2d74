package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/store"
)

// boardRecords collects records per board, each board's in arrival
// order: the test-side archive that tapped and synthetic campaigns are
// compared, written and replayed from.
type boardRecords map[int][]store.Record

// add appends one record; it is a record tap. It refuses a board's
// record older than the one before it, so a tap that delivers a board
// out of wall order fails the campaign.
func (br boardRecords) add(rec store.Record) error {
	recs := br[rec.Board]
	if len(recs) > 0 && rec.Wall.Before(recs[len(recs)-1].Wall) {
		return fmt.Errorf("board %d: out-of-order record at %v", rec.Board, rec.Wall)
	}
	br[rec.Board] = append(recs, rec)
	return nil
}

// len returns the total number of records.
func (br boardRecords) len() int {
	n := 0
	for _, recs := range br {
		n += len(recs)
	}
	return n
}

// boards returns the board indices present, sorted.
func (br boardRecords) boards() []int { return slices.Sorted(maps.Keys(br)) }

// writeTo writes every record through w board-major, boards ascending,
// and flushes it.
func (br boardRecords) writeTo(w store.RecordWriter) error {
	for _, b := range br.boards() {
		for _, rec := range br[b] {
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}

// writeFile writes the records to path as an indexed binary archive.
func (br boardRecords) writeFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := br.writeTo(store.NewBinaryWriter(f)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// syntheticArchive builds an archive where board b holds `counts[b][m]`
// records in month m, timestamped one second apart from the month start.
func syntheticArchive(t *testing.T, counts map[int]map[int]int) boardRecords {
	t.Helper()
	a := boardRecords{}
	var seq uint64
	for b := 0; b < 8; b++ {
		perMonth, ok := counts[b]
		if !ok {
			continue
		}
		for m := 0; m <= 64; m++ {
			n := perMonth[m]
			start := store.MonthlyWindowStart(m)
			for i := 0; i < n; i++ {
				v := bitvec.New(64)
				v.SetWord(0, uint64(b)<<32|uint64(m)<<16|uint64(i))
				seq++
				rec := store.Record{Board: b, Seq: seq, Wall: start.Add(time.Duration(i) * time.Second), Data: v}
				if err := a.add(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return a
}

// archiveSource opens collected records for replay through a binary
// image, the way the facade opens an archive stream.
func archiveSource(br boardRecords) (*ArchiveSource, error) {
	var buf bytes.Buffer
	if err := br.writeTo(store.NewBinaryWriter(&buf)); err != nil {
		return nil, err
	}
	ir, err := store.OpenIndexedBytes(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return NewArchiveSource(ir)
}

// TestArchiveSourceSkipsGapMonthWithoutBorrowing: a month with no records
// on any board (the rig was off) is not evaluated and — crucially — the
// next month's records are not borrowed to fake a window for it.
func TestArchiveSourceSkipsGapMonthWithoutBorrowing(t *testing.T) {
	src, err := archiveSource(syntheticArchive(t, map[int]map[int]int{
		0: {0: 5, 2: 5},
		1: {0: 5, 2: 5},
	}))
	if err != nil {
		t.Fatal(err)
	}
	months, err := src.AvailableMonths(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(months) != 2 || months[0] != 0 || months[1] != 2 {
		t.Fatalf("months = %v, want [0 2]", months)
	}
	// Forcing the gap month must fail typed, not silently replay month
	// 2's records under month 1's label.
	sink := func(d int, m *bitvec.Vector) error { return nil }
	if err := src.Measure(context.Background(), 1, 5, sink); !errors.Is(err, ErrShortWindow) {
		t.Fatalf("gap month measure: err = %v, want ErrShortWindow", err)
	}
}

// TestArchiveSourceReportsMidArchiveLoss: a month short on one board
// while later months are complete is lost data, reported with the month
// and board, never skipped.
func TestArchiveSourceReportsMidArchiveLoss(t *testing.T) {
	src, err := archiveSource(syntheticArchive(t, map[int]map[int]int{
		0: {0: 5, 1: 5, 2: 5},
		1: {0: 5, 1: 2, 2: 5},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.AvailableMonths(5); !errors.Is(err, ErrShortWindow) {
		t.Fatalf("mid-archive loss: err = %v, want ErrShortWindow", err)
	}
}

// TestArchiveSourceDropsInterruptedTail: a partial month at the end of
// the archive (collection killed mid-window) is dropped; the complete
// months still replay.
func TestArchiveSourceDropsInterruptedTail(t *testing.T) {
	src, err := archiveSource(syntheticArchive(t, map[int]map[int]int{
		0: {0: 5, 1: 5, 2: 5},
		1: {0: 5, 1: 5, 2: 3},
	}))
	if err != nil {
		t.Fatal(err)
	}
	months, err := src.AvailableMonths(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(months) != 2 || months[0] != 0 || months[1] != 1 {
		t.Fatalf("months = %v, want [0 1]", months)
	}
}
