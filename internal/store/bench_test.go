package store

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitvec"
)

// The archive-codec benchmarks, gated in CI (ns/op and allocs/op)
// against BENCH_baseline.json: the binary codec must stay an order of
// magnitude cheaper than JSONL per record, and its steady-state
// encode/decode path must stay allocation-free — it is the shard wire
// format, so every sharded measurement crosses it twice.

// benchRecordSet builds boards × perBoard records with the paper's
// 8192-bit (1 KiB) read window.
func benchRecordSet(b *testing.B, boards, perBoard int) []Record {
	b.Helper()
	const bits = 8192
	recs := make([]Record, 0, boards*perBoard)
	for bd := 0; bd < boards; bd++ {
		for i := 0; i < perBoard; i++ {
			v := bitvec.New(bits)
			for j := (bd + i) % 17; j < bits; j += 17 {
				v.Set(j, true)
			}
			recs = append(recs, Record{
				Board: bd,
				Layer: bd % 2,
				Seq:   uint64(i),
				Cycle: uint64(i),
				Wall:  Epoch.Add(time.Duration(i) * 5400 * time.Millisecond),
				Data:  v,
			})
		}
	}
	return recs
}

// BenchmarkBinaryRecordCodec measures one encode+decode round trip of a
// 1 KiB-window record with full buffer reuse — the per-measurement wire
// cost of the sharded campaign path. Steady state must be 0 allocs/op.
func BenchmarkBinaryRecordCodec(b *testing.B) {
	rec := benchRecordSet(b, 1, 1)[0]
	var scratch []byte
	out := Record{Data: bitvec.New(rec.Data.Len())}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := AppendRecordBinary(scratch[:0], rec)
		if err != nil {
			b.Fatal(err)
		}
		scratch = enc
		if _, err := DecodeRecord(enc, &out); err != nil {
			b.Fatal(err)
		}
	}
	if !out.Data.Equal(rec.Data) {
		b.Fatal("round trip diverged")
	}
}

func benchArchiveReplay(b *testing.B, serialise func(*Archive, *bytes.Buffer) error) {
	recs := benchRecordSet(b, 2, 200)
	a := NewArchive()
	for _, rec := range recs {
		if err := a.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := serialise(a, &buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ReadArchive(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != len(recs) {
			b.Fatalf("replayed %d records, want %d", got.Len(), len(recs))
		}
	}
}

// BenchmarkArchiveReplayJSONL converts a 400-record JSONL archive into
// the binary format — what replaying a JSONL archive costs now that
// replay reads only binary: the human-readable format's full parse
// (JSON + hex per record), paid once by ConvertJSONL.
func BenchmarkArchiveReplayJSONL(b *testing.B) {
	a := NewArchive()
	for _, rec := range benchRecordSet(b, 2, 200) {
		if err := a.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	var buf, out bytes.Buffer
	if err := a.WriteArchiveJSONL(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := ConvertJSONL(NewBinaryWriter(&out), bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveReplayBinary parses the same archive in the binary
// codec; the speedup over ...JSONL is the format's reason to exist.
func BenchmarkArchiveReplayBinary(b *testing.B) {
	benchArchiveReplay(b, func(a *Archive, buf *bytes.Buffer) error {
		return a.WriteArchiveBinary(buf)
	})
}

// BenchmarkArchiveReplayIndexed replays the same 400-record archive
// through the v2 index: open from the trailer, then stream every
// (board, month) segment through seek decodes sliced from the image,
// boards in parallel. This is cmd/evaluate's replay path; the speedup
// over ...Binary (which materialises the whole archive) is the index's
// reason to exist, and steady state must stay within the allocs gate —
// decoders are reused, each decoding into its one payload vector.
func BenchmarkArchiveReplayIndexed(b *testing.B) {
	recs := benchRecordSet(b, 2, 200)
	a := NewArchive()
	for _, rec := range recs {
		if err := a.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := a.WriteArchiveBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	r, err := OpenIndexed(data)
	if err != nil {
		b.Fatal(err)
	}
	segs := r.Segments()
	decs := make([]*SegmentDecoder, len(segs))
	for i := range decs {
		decs[i] = new(SegmentDecoder)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		var replayed atomic.Int64
		var firstErr atomic.Value
		for j, seg := range segs {
			wg.Add(1)
			go func(d *SegmentDecoder, seg Segment) {
				defer wg.Done()
				n := 0
				err := r.ReadSegment(d, seg.Board, seg.Month, 0, func(*Record) error {
					n++
					return nil
				})
				if err != nil {
					firstErr.Store(err)
				}
				replayed.Add(int64(n))
			}(decs[j], seg)
		}
		wg.Wait()
		if err, ok := firstErr.Load().(error); ok {
			b.Fatal(err)
		}
		if got := replayed.Load(); got != int64(len(recs)) {
			b.Fatalf("replayed %d records, want %d", got, len(recs))
		}
	}
}

// BenchmarkArchiveSeekMonth opens an archive and replays ONLY its last
// month. With the v2 trailer index the cost must be O(footer + one
// month's bytes) — flat across archive sizes — where a scanning reader
// pays for every earlier month. SetBytes counts just the month
// replayed, so MB/s reflects the useful read rate.
func BenchmarkArchiveSeekMonth(b *testing.B) {
	for _, months := range []int{3, 24} {
		b.Run(fmt.Sprintf("months=%d", months), func(b *testing.B) {
			const boards, perMonth = 2, 100
			a := NewArchive()
			var monthBytes int64
			for bd := 0; bd < boards; bd++ {
				for m := 0; m < months; m++ {
					start := MonthlyWindowStart(m)
					for i := 0; i < perMonth; i++ {
						v := bitvec.New(8192)
						for j := (bd + i + m) % 17; j < 8192; j += 17 {
							v.Set(j, true)
						}
						rec := Record{
							Board: bd, Layer: bd % 2,
							Seq: uint64(m*perMonth + i), Cycle: uint64(m*perMonth + i),
							Wall: start.Add(time.Duration(i) * 5400 * time.Millisecond),
							Data: v,
						}
						if err := a.Append(rec); err != nil {
							b.Fatal(err)
						}
						if m == months-1 {
							enc, err := AppendRecordBinary(nil, rec)
							if err != nil {
								b.Fatal(err)
							}
							monthBytes += int64(len(enc))
						}
					}
				}
			}
			var buf bytes.Buffer
			if err := a.WriteArchiveBinary(&buf); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			var dec SegmentDecoder
			last := months - 1
			b.SetBytes(monthBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := OpenIndexed(data)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for bd := 0; bd < boards; bd++ {
					err := r.ReadSegment(&dec, bd, last, 0, func(*Record) error {
						n++
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				if n != boards*perMonth {
					b.Fatalf("replayed %d records, want %d", n, boards*perMonth)
				}
			}
		})
	}
}
