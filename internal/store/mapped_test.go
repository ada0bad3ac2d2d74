package store

import (
	"errors"
	"io/fs"
	"os"
	"sync"
	"testing"
	"time"
)

// writeArchiveFile writes recs as a v2 archive file and returns its
// path.
func writeArchiveFile(t *testing.T, recs []Record) string {
	t.Helper()
	path := t.TempDir() + "/campaign.bin"
	if err := os.WriteFile(path, writeV2(t, recs), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadSegmentAfterClose: a closed reader refuses segment reads with
// fs.ErrClosed — for a mapped file that is the unmapped image, which
// must never be touched, and for an in-memory image the same contract.
func TestReadSegmentAfterClose(t *testing.T) {
	recs := indexedRecords(t, 2, 2, 3, 128)
	mapped, err := OpenIndexedFile(writeArchiveFile(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	inMemory, err := OpenIndexed(writeV2(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*IndexedReader{"mapped": mapped, "in-memory": inMemory} {
		if err := r.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("%s: second Close: %v", name, err)
		}
		var d SegmentDecoder
		err := r.ReadSegment(&d, 1, 1, 0, func(*Record) error {
			t.Fatalf("%s: closed reader delivered a record", name)
			return nil
		})
		if !errors.Is(err, fs.ErrClosed) {
			t.Fatalf("%s: ReadSegment after Close: err = %v, want fs.ErrClosed", name, err)
		}
		if r.TotalRecords() != len(recs) || r.MonthRecords(1, 1) != 3 {
			t.Fatalf("%s: index accessors changed after Close", name)
		}
	}
}

// TestCloseRacesReadSegment: Close on one goroutine while others replay
// segments of the mapped file. Each read delivers its whole segment or
// fails with fs.ErrClosed before delivering anything — never a fault,
// a torn segment or a record from unmapped memory. The first reader
// pauses inside its segment, so that a Close which did not wait for it
// would unmap the image mid-read.
func TestCloseRacesReadSegment(t *testing.T) {
	recs := indexedRecords(t, 4, 2, 40, 1024)
	r, err := OpenIndexedFile(writeArchiveFile(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	segs := r.Segments()
	inside := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(segs))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var d SegmentDecoder
			for _, seg := range segs {
				want := recs[0].Data.Len()
				n := 0
				err := r.ReadSegment(&d, seg.Board, seg.Month, 0, func(rec *Record) error {
					if rec.Data.Len() != want || rec.Board != seg.Board {
						return errors.New("record from outside the segment")
					}
					n++
					once.Do(func() {
						close(inside)
						time.Sleep(20 * time.Millisecond) // Close lands now
					})
					return nil
				})
				switch {
				case err == nil && n != seg.Count:
					errs <- errors.New("segment delivered partially without an error")
				case err != nil && (!errors.Is(err, fs.ErrClosed) || n != 0):
					errs <- err
				}
			}
		}()
	}
	<-inside
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("read racing Close: %v", err)
	}
}

// TestSegmentReplayAllocs: once a decoder has replayed one segment, its
// payload vector is warm and replaying further segments of the same
// read-out length allocates nothing per record.
func TestSegmentReplayAllocs(t *testing.T) {
	recs := indexedRecords(t, 2, 3, 50, 8192)
	r, err := OpenIndexedFile(writeArchiveFile(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var d SegmentDecoder
	n := 0
	count := func(*Record) error { n++; return nil }
	if err := r.ReadSegment(&d, 0, 0, 0, count); err != nil {
		t.Fatal(err)
	}
	segs := r.Segments()
	allocs := testing.AllocsPerRun(20, func() {
		for _, seg := range segs {
			if err := r.ReadSegment(&d, seg.Board, seg.Month, 0, count); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state replay of %d records: %.1f allocs, want 0", len(recs), allocs)
	}
}
