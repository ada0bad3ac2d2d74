package store

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzArchiveIndex: arbitrary bytes opened through the indexed reader
// must either be rejected with ErrBinary (corrupt v2 footers have NO
// rescue scan) or open cleanly — and when they open, every segment the
// index describes must replay exactly the records a full sequential
// parse assigns to that (board, month). A corrupted index may never
// cause a wrong-month or wrong-board replay; at worst it fails loudly.
func FuzzArchiveIndex(f *testing.F) {
	recs := indexedRecords(f, 2, 2, 2, 96)
	v2 := writeV2(f, recs)
	f.Add(v2)
	f.Add(v2[:len(v2)-1])               // truncated trailer
	f.Add(v2[:len(v2)-indexTrailerLen]) // trailer gone entirely
	f.Add(v2[:len(v2)/2])               // truncated mid-record-region
	f.Add(wrappedIndexArchive(f))       // index lengths that wrap int64
	var v1 bytes.Buffer
	w1 := NewBinaryWriterV1(&v1)
	for _, rec := range recs {
		_ = w1.Write(rec)
	}
	_ = w1.Flush()
	f.Add(v1.Bytes()) // v1 fallback-scan input
	var jl bytes.Buffer
	_ = WriteJSONL(&jl, recs[:4])
	f.Add(jl.Bytes()) // JSONL input: refused with ErrJSONL, not scanned
	f.Add([]byte(BinaryMagicV2))
	f.Add([]byte{})
	// Corrupt single bytes in the footer region of the canonical v2
	// archive so the fuzzer starts near the interesting boundaries.
	for _, off := range []int{len(v2) - 1, len(v2) - 10, len(v2) - indexTrailerLen - 1} {
		b := append([]byte(nil), v2...)
		b[off] ^= 0x5a
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenIndexed(data)
		if err != nil {
			if len(data) >= 8 && string(data[:8]) == BinaryMagicV2 && !errors.Is(err, ErrBinary) {
				t.Fatalf("v2-magic input rejected with a non-ErrBinary error: %v", err)
			}
			return // rejected cleanly
		}
		// Ground truth: the sequential parse of the same bytes. A v2
		// footer cannot prove record-level invariants (wall order inside
		// a month segment, payload validity), so the indexed OPEN may
		// accept an archive the sequential parse rejects — but then the
		// replay must fail loudly at some segment, never serve records
		// the sequential reader would refuse.
		a, seqErr := ReadArchive(bytes.NewReader(data))
		if seqErr != nil {
			var d SegmentDecoder
			var segErr error
			for _, seg := range r.Segments() {
				if err := r.ReadSegment(&d, seg.Board, seg.Month, 0, func(*Record) error { return nil }); err != nil {
					if !errors.Is(err, ErrBinary) {
						t.Fatalf("board %d month %d: segment replay failed with a non-ErrBinary error: %v", seg.Board, seg.Month, err)
					}
					segErr = err
				}
			}
			if segErr == nil {
				t.Fatalf("every segment replayed cleanly but the sequential parse rejects the archive: %v", seqErr)
			}
			return
		}
		// Replay every indexed segment and compare against the records the
		// sequential parse assigns to that (board, month), in order. The
		// sequential parse checks the index's byte and record totals but
		// not its (board, month) labels, so a relabelled entry opens under
		// both readers; exactly then some segment must fail loudly.
		relabelled := indexRelabelled(t, r, data)
		var d SegmentDecoder
		failed := false
		for _, seg := range r.Segments() {
			var want []Record
			for _, rec := range a.Records(seg.Board) {
				if MonthIndex(rec.Wall) == seg.Month {
					want = append(want, rec)
				}
			}
			i := 0
			err := r.ReadSegment(&d, seg.Board, seg.Month, 0, func(rec *Record) error {
				if i >= len(want) {
					t.Fatalf("board %d month %d: segment over-delivered", seg.Board, seg.Month)
				}
				if !sameRecord(*rec, want[i]) {
					t.Fatalf("board %d month %d record %d: seek replay differs from sequential parse", seg.Board, seg.Month, i)
				}
				i++
				return nil
			})
			if err != nil {
				if !relabelled || !errors.Is(err, ErrBinary) {
					t.Fatalf("board %d month %d: %v", seg.Board, seg.Month, err)
				}
				failed = true
				continue
			}
			if i != len(want) || seg.Count != len(want) {
				t.Fatalf("board %d month %d: delivered %d, index claims %d, sequential parse has %d", seg.Board, seg.Month, i, seg.Count, len(want))
			}
		}
		if relabelled && !failed {
			t.Fatal("every segment of a relabelled index replayed cleanly")
		}
		if a.Len() != r.TotalRecords() {
			t.Fatalf("index counts %d records, sequential parse %d", r.TotalRecords(), a.Len())
		}
	})
}

// indexRelabelled reports whether some index run of r covers a record
// whose own (board, month), from a sequential pass over data, differs
// from the run's.
func indexRelabelled(t *testing.T, r *IndexedReader, data []byte) bool {
	br, err := NewBinaryReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	labels := make(map[int64]segKey)
	for {
		off := br.Offset()
		var rec Record
		if err := br.Read(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		labels[off] = segKey{rec.Board, MonthIndex(rec.Wall)}
	}
	for key, runs := range r.segs {
		for _, run := range runs {
			for off, k := range labels {
				if off >= run.off && off < run.off+run.length && k != key {
					return true
				}
			}
		}
	}
	return false
}
