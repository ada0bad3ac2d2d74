//go:build linux

package store

import (
	"errors"
	"os"
	"testing"
)

// TestMappedArchiveTruncated: truncating the archive file under an open
// reader leaves the mapping's pages past the new end unbacked. Reading a
// segment there faults (SIGBUS); the fault guard must turn that into
// ErrBinary and the process must survive, while a segment wholly before
// the cut still replays.
func TestMappedArchiveTruncated(t *testing.T) {
	recs := indexedRecords(t, 2, 3, 20, 8192)
	path := writeArchiveFile(t, recs)
	r, err := OpenIndexedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Cut at the page boundary at or below the first byte of month 2, so
	// every month-2 byte lies on a page wholly past the new end.
	page := int64(os.Getpagesize())
	first := r.Size()
	for _, b := range r.Boards() {
		for _, run := range r.segs[segKey{b, 2}] {
			first = min(first, run.off)
		}
	}
	cut := first / page * page
	var monthZero int64
	for _, run := range r.segs[segKey{0, 0}] {
		monthZero = max(monthZero, run.off+run.length)
	}
	if monthZero > cut {
		t.Fatalf("test layout: month 0 ends at %d, past the cut at %d", monthZero, cut)
	}
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	var d SegmentDecoder
	for _, b := range r.Boards() {
		err := r.ReadSegment(&d, b, 2, 0, func(*Record) error { return nil })
		if !errors.Is(err, ErrBinary) {
			t.Fatalf("board %d month 2 past the truncation: err = %v, want ErrBinary", b, err)
		}
	}
	if got := collectSegment(t, r, &d, 0, 0, 0); len(got) != 20 {
		t.Fatalf("month 0 before the cut delivered %d records, want 20", len(got))
	}
}
