package store

import (
	"bytes"
	"errors"
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
		r, err := OpenIndexed(bytes.NewReader(data), int64(len(data)))
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
		if a.Len() != r.TotalRecords() {
			t.Fatalf("index counts %d records, sequential parse %d", r.TotalRecords(), a.Len())
		}
		// Replay every indexed segment and compare against the records the
		// sequential parse assigns to that (board, month), in order.
		var d SegmentDecoder
		for _, seg := range r.Segments() {
			var want []Record
			for _, rec := range a.Records(seg.Board) {
				if MonthIndex(rec.Wall) == seg.Month {
					want = append(want, rec)
				}
			}
			if len(want) != seg.Count {
				t.Fatalf("board %d month %d: index claims %d records, sequential parse has %d", seg.Board, seg.Month, seg.Count, len(want))
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
				t.Fatalf("board %d month %d: %v", seg.Board, seg.Month, err)
			}
			if i != len(want) {
				t.Fatalf("board %d month %d: delivered %d of %d", seg.Board, seg.Month, i, len(want))
			}
		}
	})
}
