package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/bitvec"
)

// indexedRecords builds an INTERLEAVED record stream (cycle-major, the
// shape a tapped rig campaign writes) spanning boards and months.
func indexedRecords(t testing.TB, boards, months, perMonth, bits int) []Record {
	t.Helper()
	var recs []Record
	for m := 0; m < months; m++ {
		start := MonthlyWindowStart(m)
		for i := 0; i < perMonth; i++ {
			for b := 0; b < boards; b++ {
				v := bitvec.New(bits)
				for j := (b + i + m) % 13; j < bits; j += 13 {
					v.Set(j, true)
				}
				recs = append(recs, Record{
					Board: b,
					Layer: b % 2,
					Seq:   uint64(m*perMonth + i),
					Cycle: uint64(m*perMonth + i),
					Wall:  start.Add(time.Duration(i) * 5400 * time.Millisecond),
					Data:  v,
				})
			}
		}
	}
	return recs
}

func writeV2(t testing.TB, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	for _, rec := range recs {
		if err := bw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// collectSegment replays one (board, month) segment into a retained
// slice (cloning the decoder's reused payloads).
func collectSegment(t testing.TB, r *IndexedReader, d *SegmentDecoder, board, month, limit int) []Record {
	t.Helper()
	var out []Record
	err := r.ReadSegment(d, board, month, limit, func(rec *Record) error {
		c := *rec
		c.Data = rec.Data.Clone()
		out = append(out, c)
		return nil
	})
	if err != nil {
		t.Fatalf("ReadSegment(board=%d, month=%d): %v", board, month, err)
	}
	return out
}

func TestMonthIndex(t *testing.T) {
	cases := []struct {
		t    time.Time
		want int
	}{
		{Epoch, 0},
		{Epoch.Add(-time.Nanosecond), -1},
		{MonthlyWindowStart(1).Add(-time.Nanosecond), 0},
		{MonthlyWindowStart(1), 1},
		{MonthlyWindowStart(24), 24},
		{testEnd.Add(-time.Nanosecond), 23},
		{Epoch.AddDate(0, -13, 5), -13},
		{time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC), 0}, // before the 8th: previous window
		{time.Date(2017, 3, 8, 0, 0, 0, 0, time.UTC), 1}, // the 8th itself: new window
		{time.Date(2018, 1, 15, 12, 0, 0, 0, time.UTC), 11},
	}
	for _, c := range cases {
		if got := MonthIndex(c.t); got != c.want {
			t.Errorf("MonthIndex(%v) = %d, want %d", c.t, got, c.want)
		}
	}
	// MonthIndex inverts MonthlyWindowStart across a wide range, and
	// every time inside a window maps to that window's index.
	for m := -30; m < 120; m++ {
		if got := MonthIndex(MonthlyWindowStart(m)); got != m {
			t.Fatalf("MonthIndex(MonthlyWindowStart(%d)) = %d", m, got)
		}
		mid := MonthlyWindowStart(m).Add(13 * 24 * time.Hour)
		if got := MonthIndex(mid); got != m {
			t.Fatalf("MonthIndex(mid of %d) = %d", m, got)
		}
	}
}

// TestIndexedReaderV2 exercises the O(1) open path: segment counts,
// month range and seek-decoded records must match the written stream.
func TestIndexedReaderV2(t *testing.T) {
	recs := indexedRecords(t, 3, 4, 5, 200)
	data := writeV2(t, recs)
	r, err := OpenIndexed(data)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Indexed() || r.format != FormatBinaryV2 {
		t.Fatalf("Indexed=%v Format=%q, want indexed binary-v2", r.Indexed(), r.format)
	}
	if r.TotalRecords() != len(recs) {
		t.Fatalf("TotalRecords = %d, want %d", r.TotalRecords(), len(recs))
	}
	if got := r.Boards(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("Boards = %v", got)
	}
	if segs := r.Segments(); len(segs) != 12 || segs[0].Month != 0 || segs[len(segs)-1].Month != 3 {
		t.Fatalf("Segments = %v, want boards 0..2 x months 0..3", segs)
	}
	var d SegmentDecoder
	for b := 0; b < 3; b++ {
		for m := 0; m < 4; m++ {
			if got := r.MonthRecords(b, m); got != 5 {
				t.Fatalf("MonthRecords(%d, %d) = %d, want 5", b, m, got)
			}
			got := collectSegment(t, r, &d, b, m, 0)
			want := 0
			for _, rec := range recs {
				if rec.Board == b && MonthIndex(rec.Wall) == m {
					if !sameRecord(rec, got[want]) {
						t.Fatalf("board %d month %d record %d differs", b, m, want)
					}
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("board %d month %d: %d records, want %d", b, m, len(got), want)
			}
		}
	}
	// A limit caps the delivery; a limit beyond the segment is an error.
	if got := collectSegment(t, r, &d, 1, 2, 3); len(got) != 3 {
		t.Fatalf("limited segment delivered %d records, want 3", len(got))
	}
	var d2 SegmentDecoder
	if err := r.ReadSegment(&d2, 1, 2, 6, func(*Record) error { return nil }); !errors.Is(err, ErrBinary) {
		t.Fatalf("limit beyond segment: err = %v, want ErrBinary", err)
	}
	// An absent segment with no limit delivers nothing.
	if err := r.ReadSegment(&d2, 7, 0, 0, func(*Record) error { t.Fatal("delivered"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestIndexedReaderFallbackScan: a v1 archive must serve the exact same
// segments through the one-pass in-memory index, and a JSONL archive —
// no longer a replay format — must be refused with ErrJSONL.
func TestIndexedReaderFallbackScan(t *testing.T) {
	recs := indexedRecords(t, 2, 3, 4, 128)
	var v1, jl bytes.Buffer
	w1 := NewBinaryWriterV1(&v1)
	for _, rec := range recs {
		if err := w1.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jl, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndexed(jl.Bytes()); !errors.Is(err, ErrJSONL) {
		t.Fatalf("JSONL archive: err = %v, want ErrJSONL", err)
	}
	data := v1.Bytes()
	r, err := OpenIndexed(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Indexed() {
		t.Fatal("fallback scan claims a trailer index")
	}
	if r.format != FormatBinaryV1 {
		t.Fatalf("format %q, want %q", r.format, FormatBinaryV1)
	}
	if r.TotalRecords() != len(recs) {
		t.Fatalf("TotalRecords = %d, want %d", r.TotalRecords(), len(recs))
	}
	if r.End() != int64(len(data)) {
		t.Fatalf("End = %d, want the file size %d", r.End(), len(data))
	}
	assertSegmentsMatch(t, r, recs, 2, 3)
}

// assertSegmentsMatch replays every (board, month) segment of r and
// compares it with the records of recs in that segment, in order.
func assertSegmentsMatch(t *testing.T, r *IndexedReader, recs []Record, boards, months int) {
	t.Helper()
	var d SegmentDecoder
	for b := 0; b < boards; b++ {
		for m := 0; m < months; m++ {
			got := collectSegment(t, r, &d, b, m, 0)
			i := 0
			for _, rec := range recs {
				if rec.Board == b && MonthIndex(rec.Wall) == m {
					if i >= len(got) || !sameRecord(rec, got[i]) {
						t.Fatalf("board %d month %d record %d differs", b, m, i)
					}
					i++
				}
			}
			if len(got) != i {
				t.Fatalf("board %d month %d: %d records, want %d", b, m, len(got), i)
			}
		}
	}
}

// TestOpenIndexedBytes: an in-memory image replays through the same
// index as a file — a binary image as is, a JSONL image through the
// converter into a v2 image.
func TestOpenIndexedBytes(t *testing.T) {
	recs := indexedRecords(t, 2, 2, 3, 96)
	var jl bytes.Buffer
	if err := WriteJSONL(&jl, recs); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"binary": writeV2(t, recs), "jsonl": jl.Bytes()} {
		r, err := OpenIndexedBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.format != FormatBinaryV2 || !r.Indexed() {
			t.Fatalf("%s: Format=%q Indexed=%v, want an indexed v2 image", name, r.format, r.Indexed())
		}
		for b := 0; b < 2; b++ {
			for m := 0; m < 2; m++ {
				if got := r.MonthRecords(b, m); got != 3 {
					t.Fatalf("%s: MonthRecords(%d,%d) = %d, want 3", name, b, m, got)
				}
			}
		}
		assertSegmentsMatch(t, r, recs, 2, 2)
	}
	if _, err := OpenIndexedBytes([]byte("{broken\n")); err == nil {
		t.Fatal("malformed JSONL image opened")
	}
}

// TestIndexedReaderCorruption: every corrupted byte region of a v2
// archive must be rejected with ErrBinary — never opened with a wrong
// index.
func TestIndexedReaderCorruption(t *testing.T) {
	recs := indexedRecords(t, 2, 2, 3, 128)
	data := writeV2(t, recs)
	open := func(b []byte) error {
		_, err := OpenIndexed(b)
		return err
	}
	if err := open(data); err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, f func(b []byte) []byte) {
		t.Run(name, func(t *testing.T) {
			b := append([]byte(nil), data...)
			b = f(b)
			if err := open(b); !errors.Is(err, ErrBinary) {
				t.Fatalf("err = %v, want ErrBinary", err)
			}
		})
	}
	mutate("trailer magic", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })
	mutate("trailer index offset", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[len(b)-24:], uint64(len(b)))
		return b
	})
	mutate("trailer entry count", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[len(b)-16:], 1<<40)
		return b
	})
	mutate("sentinel magic", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[len(b)-24:]) - binaryHeaderLen
		b[off] ^= 0xff
		return b
	})
	mutate("sentinel record count", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[len(b)-24:]) - binaryHeaderLen
		binary.LittleEndian.PutUint64(b[off+8:], 7)
		return b
	})
	mutate("index entry bytes", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[len(b)-24:])
		b[off] ^= 0xff
		return b
	})
	mutate("index lengths wrap int64", func([]byte) []byte { return wrappedIndexArchive(t) })
	mutate("truncated trailer", func(b []byte) []byte { return b[:len(b)-3] })
	mutate("truncated mid-archive", func(b []byte) []byte { return b[:len(b)/2] })

	// Sequential reads validate the same footer.
	seq := func(b []byte) error { _, err := ReadBinary(bytes.NewReader(b)); return err }
	if err := seq(data); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 3, 24, 25} {
		if err := seq(data[:len(data)-cut]); !errors.Is(err, ErrBinary) {
			t.Fatalf("sequential read of archive cut by %d: err = %v, want ErrBinary", cut, err)
		}
	}
}

// wrappedIndexArchive forges a one-segment v2 archive whose index puts
// four 2^62-byte entries (boards 1-4) before the real one (board 0): the
// entry lengths sum to the record region's end only by wrapping int64,
// so a reader that adds them unchecked would open it and slice a
// 2^62-byte run. The end sentinel and trailer are patched to agree with
// the forged index.
func wrappedIndexArchive(t testing.TB) []byte {
	t.Helper()
	data := writeV2(t, indexedRecords(t, 1, 1, 3, 64))
	idxOff := binary.LittleEndian.Uint64(data[len(data)-24:])
	entries, err := decodeIndexEntries(data[idxOff:len(data)-indexTrailerLen], 1)
	if err != nil {
		t.Fatal(err)
	}
	seg := entries[0]
	var idx []byte
	entry := func(boardDelta int64, count int, length uint64) {
		idx = binary.AppendVarint(idx, boardDelta)
		idx = binary.AppendVarint(idx, 0)
		idx = binary.AppendUvarint(idx, uint64(count))
		idx = binary.AppendUvarint(idx, length)
	}
	for i := 0; i < 4; i++ {
		entry(1, 1, 1<<62) // boards 1..4: distinct runs, none coalesced
	}
	entry(-4, seg.count, uint64(seg.length))
	b := append([]byte(nil), data[:idxOff]...)
	binary.LittleEndian.PutUint64(b[idxOff-binaryHeaderLen+8:], uint64(seg.count+4))
	b = append(b, idx...)
	b = binary.LittleEndian.AppendUint64(b, idxOff)
	b = binary.LittleEndian.AppendUint64(b, 5)
	return append(b, data[len(data)-8:]...)
}

// TestIndexSegmentValidation: an index whose entries point at records
// of a different (board, month) must fail the replay, not serve the
// wrong month. The archive is forged by writing records for month 1
// and patching the index entry to claim month 2.
func TestIndexSegmentValidation(t *testing.T) {
	recs := indexedRecords(t, 1, 2, 3, 64)
	data := append([]byte(nil), writeV2(t, recs)...)
	// The index is two entries (one per month, single board). Patch the
	// second entry's month delta from +1 to +2: varint -> zigzag(1)=2,
	// zigzag(2)=4.
	idxOff := binary.LittleEndian.Uint64(data[len(data)-24:])
	idx := data[idxOff : len(data)-24]
	// entry 0: board=0 (zigzag 0), month=0 (zigzag 0), count, length...
	// Find the second entry: decode forward.
	var off int
	for i := 0; i < 4; i++ { // skip 4 varints of entry 0
		_, n := binary.Uvarint(idx[off:])
		off += n
	}
	_, n := binary.Uvarint(idx[off:]) // entry 1 board delta
	off += n
	if idx[off] != 2 { // zigzag(+1)
		t.Fatalf("unexpected index layout: month delta byte = %d", idx[off])
	}
	idx[off] = 4 // zigzag(+2): claims month 2 for month-1 records
	r, err := OpenIndexed(data)
	if err != nil {
		t.Fatal(err)
	}
	var d SegmentDecoder
	err = r.ReadSegment(&d, 0, 2, 0, func(*Record) error { return nil })
	if !errors.Is(err, ErrBinary) {
		t.Fatalf("forged month replay: err = %v, want ErrBinary", err)
	}
}

// TestBinaryWriterFinalize: Flush seals an indexed archive; writes
// after it must fail rather than corrupt the footer.
func TestBinaryWriterFinalize(t *testing.T) {
	recs := indexedRecords(t, 1, 1, 2, 64)
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	if err := bw.Write(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := bw.Write(recs[1]); !errors.Is(err, ErrBinary) {
		t.Fatalf("write after finalize: err = %v, want ErrBinary", err)
	}
	if err := bw.Flush(); err != nil { // second Flush: plain drain, idempotent
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Fatalf("second Flush grew the archive: %d -> %d bytes", n, buf.Len())
	}
	// A v1 writer keeps Flush non-finalizing.
	var v1 bytes.Buffer
	w1 := NewBinaryWriterV1(&v1)
	if err := w1.Write(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := w1.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w1.Write(recs[1]); err != nil {
		t.Fatalf("v1 write after Flush: %v", err)
	}
}

// TestIndexedSeekIsBounded: opening a v2 archive and replaying ONE
// month must touch only the footer and that month's bytes, however many
// other months the archive holds — the seek property the format exists
// for. Every other record byte is overwritten with 0xFF (a bits field no
// record can carry), so a reader that decoded any of them would fail.
func TestIndexedSeekIsBounded(t *testing.T) {
	for _, months := range []int{2, 12} {
		recs := indexedRecords(t, 2, months, 4, 256)
		data := writeV2(t, recs)
		r, err := OpenIndexed(data)
		if err != nil {
			t.Fatal(err)
		}
		last := months - 1
		poisoned := append([]byte(nil), data...)
		for i := int64(len(BinaryMagicV2)); i < r.End(); i++ {
			poisoned[i] = 0xff
		}
		for _, b := range r.Boards() {
			for _, run := range r.segs[segKey{b, last}] {
				copy(poisoned[run.off:run.off+run.length], data[run.off:run.off+run.length])
			}
		}
		pr, err := OpenIndexed(poisoned)
		if err != nil {
			t.Fatalf("%d months: open read outside the footer: %v", months, err)
		}
		var d SegmentDecoder
		for _, b := range pr.Boards() {
			got := collectSegment(t, pr, &d, b, last, 0)
			i := 0
			for _, rec := range recs {
				if rec.Board == b && MonthIndex(rec.Wall) == last {
					if i >= len(got) || !sameRecord(rec, got[i]) {
						t.Fatalf("%d months: board %d record %d differs", months, b, i)
					}
					i++
				}
			}
			if len(got) != i {
				t.Fatalf("%d months: board %d: %d records, want %d", months, b, len(got), i)
			}
			// The poison is live: an earlier month no longer replays.
			if err := pr.ReadSegment(&d, b, 0, 0, func(*Record) error { return nil }); !errors.Is(err, ErrBinary) {
				t.Fatalf("%d months: poisoned month 0 replayed: err = %v, want ErrBinary", months, err)
			}
		}
	}
}

// TestUpgradeFile: interleaved v1 and JSONL archives upgrade in place to
// exactly the bytes of the sequential oracle's board-major rewrite
// (ReadArchive, then WriteArchiveBinary); an already-indexed archive —
// including one written interleaved, not board-major — is left
// byte-identical.
func TestUpgradeFile(t *testing.T) {
	recs := indexedRecords(t, 2, 2, 3, 128)
	for _, tc := range []struct {
		name  string
		write func(w io.Writer) error
	}{
		{"jsonl", func(w io.Writer) error { return WriteJSONL(w, recs) }},
		{"v1", func(w io.Writer) error { return writeRecords(NewBinaryWriterV1(w), recs) }},
		{"v2", func(w io.Writer) error { return writeRecords(NewBinaryWriter(w), recs) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var orig bytes.Buffer
			if err := tc.write(&orig); err != nil {
				t.Fatal(err)
			}
			path := t.TempDir() + "/campaign.bin"
			if err := os.WriteFile(path, orig.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			upgraded, err := UpgradeFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "v2" {
				if upgraded || !bytes.Equal(got, orig.Bytes()) {
					t.Fatalf("UpgradeFile touched an indexed archive (upgraded=%v)", upgraded)
				}
				return
			}
			if !upgraded {
				t.Fatal("UpgradeFile reported no upgrade")
			}
			oracle, err := ReadArchive(bytes.NewReader(orig.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := oracle.WriteArchiveBinary(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("upgraded archive (%d bytes) differs from the oracle's board-major rewrite (%d bytes)", len(got), want.Len())
			}
			info, err := InspectFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Indexed || info.Format != FormatBinaryV2 || info.Records != len(recs) {
				t.Fatalf("after upgrade: %+v", info)
			}
			upgraded, err = UpgradeFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if upgraded {
				t.Fatal("second UpgradeFile rewrote an indexed archive")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, after) {
				t.Fatal("idempotent upgrade changed the file")
			}
			if leftovers, _ := filepath.Glob(path + ".tmp-*"); len(leftovers) > 0 {
				t.Fatalf("upgrade left temp files behind: %v", leftovers)
			}
		})
	}
}

func writeRecords(w *BinaryWriter, recs []Record) error {
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return w.Flush()
}

// TestUpgradeFileStreams: upgrading a v1 archive holds its index, not its
// records. A ≥ 8 MB interleaved archive of paper-sized records (the
// 8,192-bit read window) must upgrade with total allocations below half
// the archive's size; materialising the archive costs more than its size.
func TestUpgradeFileStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("writes an 8 MB archive")
	}
	const boards, months, perMonth, bits = 16, 5, 100, 8192
	path := t.TempDir() + "/campaign.bin"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewBinaryWriterV1(f)
	v := bitvec.New(bits)
	for m := 0; m < months; m++ {
		start := MonthlyWindowStart(m)
		for i := 0; i < perMonth; i++ {
			for b := 0; b < boards; b++ {
				v.SetWord((b+i+m)%(bits/64), uint64(m*perMonth+i))
				rec := Record{Board: b, Layer: b % 2, Seq: uint64(m*perMonth + i), Cycle: uint64(m*perMonth + i),
					Wall: start.Add(time.Duration(i) * 5400 * time.Millisecond), Data: v}
				if err := w.Write(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() < 8<<20 {
		t.Fatalf("archive is %d bytes, want >= 8 MB", st.Size())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := UpgradeFile(path); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("upgrading a %d-byte v1 archive allocated %d bytes", st.Size(), alloc)
	if alloc >= uint64(st.Size())/2 {
		t.Fatalf("upgrade allocated %d bytes for a %d-byte archive, want < half", alloc, st.Size())
	}
	info, err := InspectFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Indexed || info.Records != boards*months*perMonth || info.Segments != boards*months {
		t.Fatalf("after upgrade: %+v", info)
	}
}

// TestBinaryReaderTruncatedMidHeader: the single-ReadFull header path
// must distinguish a clean v1 EOF from a record cut mid-header.
func TestBinaryReaderTruncatedMidHeader(t *testing.T) {
	rec := indexedRecords(t, 1, 1, 1, 64)[0]
	var buf bytes.Buffer
	bw := NewBinaryWriterV1(&buf)
	if err := bw.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Clean v1 end: io.EOF exactly at a record boundary.
	br, err := NewBinaryReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out Record
	if err := br.Read(&out); err != nil {
		t.Fatal(err)
	}
	if err := br.Read(&out); err != io.EOF {
		t.Fatalf("clean end: err = %v, want io.EOF", err)
	}
	// Every mid-header truncation of a SECOND record must be ErrBinary,
	// not io.EOF — one byte in is not a clean end.
	for _, extra := range []int{1, 17, binaryHeaderLen - 1} {
		trunc := append(append([]byte(nil), data...), data[len(BinaryMagic):len(BinaryMagic)+extra]...)
		br, err := NewBinaryReader(bytes.NewReader(trunc))
		if err != nil {
			t.Fatal(err)
		}
		if err := br.Read(&out); err != nil {
			t.Fatal(err)
		}
		if err := br.Read(&out); !errors.Is(err, ErrBinary) {
			t.Fatalf("mid-header truncation at %d bytes: err = %v, want ErrBinary", extra, err)
		}
	}
}

// TestJSONLRecordBoundRoundTrip: a record at the binary codec's payload
// bound must survive the JSONL codec too — the scanner's line buffer is
// sized from the same bound (a 16 MiB line cap used to reject what the
// binary codec wrote fine).
func TestJSONLRecordBoundRoundTrip(t *testing.T) {
	v := bitvec.New(maxBinaryRecordBits)
	for j := 0; j < maxBinaryRecordBits; j += 4099 {
		v.Set(j, true)
	}
	rec := Record{Board: 0, Seq: 1, Cycle: 2, Wall: Epoch, Data: v}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []Record{rec}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 16*1024*1024 {
		t.Fatalf("boundary line is only %d bytes; the regression needs one beyond the old 16 MiB cap", buf.Len())
	}
	a, err := convertJSONL(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := a.Records(0)
	if len(got) != 1 || !sameRecord(got[0], rec) {
		t.Fatal("boundary record did not round-trip through JSONL")
	}
}
