package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"time"
	"unsafe"
)

// This file is the indexed side of the binary archive format (v2) and
// the seek-based replay machinery built on it. The v2 layout:
//
//	"SRPUFA\x00\x02"                                   8 bytes
//	record region: v1-encoded records, back to back    N bytes
//	end sentinel (header-shaped, see below)            36 bytes
//	index: entryCount varint entries                   variable
//	trailer                                            24 bytes
//
// The end sentinel is shaped like a record header whose bits field is
// 0xFFFFFFFF — a value no valid record can carry (the payload bound is
// 1<<27 bits) — so a sequential reader discovers the end of the record
// region without knowing the file size:
//
//	offset  size  field
//	0       8     "SRPUFEND"
//	8       8     total record count (uint64 LE)
//	16      16    reserved, must be zero
//	32      4     0xFFFFFFFF (the impossible bits field)
//
// Each index entry describes one RUN of consecutive records sharing a
// (board, month) pair — interleaved collection streams produce many
// short runs per (board, month); board-major rewrites produce one entry
// per segment. Entries are delta/varint packed (~4-6 bytes each), and
// byte offsets are implied: the first run starts right after the magic,
// and runs tile the record region exactly:
//
//	varint  board delta vs previous entry (zigzag)
//	varint  month delta vs previous entry (zigzag)
//	uvarint record count of the run
//	uvarint byte length of the run
//
// The trailer is fixed-size and lands at EOF, zip-EOCD style, so a
// random-access reader finds the index in O(1):
//
//	offset  size  field
//	0       8     byte offset of the first index entry (uint64 LE)
//	8       8     index entry count (uint64 LE)
//	16      8     "SRPUFIX2"
//
// Corruption policy: a v2 archive with a corrupt trailer, sentinel or
// index is rejected with ErrBinary — there is NO rescue scan, because
// index bytes could decode as plausible records and a "rescued" replay
// might silently evaluate wrong months. The fallback scan applies only
// to v1, which never had an index: it is read once, front to back, and
// the index is built in memory. Every seek-decoded record is
// additionally validated against its segment's (board, month), so even
// an index that lies cannot cause a wrong-month replay. JSON lines are
// not a replay format: ConvertJSONL turns them into binary once.

const (
	endSentinelMagic  = "SRPUFEND"
	indexTrailerMagic = "SRPUFIX2"
	indexTrailerLen   = 24
)

// endSentinelBits marks the end-of-records sentinel: a bits field no
// valid record can have (far beyond maxBinaryRecordBits).
const endSentinelBits = ^uint32(0)

// Archive format names reported by IndexedReader.Format and ArchiveInfo.
const (
	FormatBinaryV2 = "binary-v2"
	FormatBinaryV1 = "binary-v1"
)

// ErrJSONL reports a JSON-lines archive opened for replay. Replay reads
// binary archives only; `evaluate -index` (UpgradeFile) converts a
// JSONL archive in place once.
var ErrJSONL = errors.New("store: JSONL archive: replay reads binary archives only; convert it once with evaluate -index")

// indexEntry is one decoded index run.
type indexEntry struct {
	board, month int
	count        int
	length       int64
}

// decodeIndexEntries parses the varint index region, which must hold
// exactly want entries and be fully consumed.
func decodeIndexEntries(data []byte, want uint64) ([]indexEntry, error) {
	if maxEntries := uint64(len(data) / 4); want > maxEntries {
		return nil, fmt.Errorf("%w: trailer claims %d index entries, a %d-byte index holds at most %d", ErrBinary, want, len(data), maxEntries)
	}
	entries := make([]indexEntry, 0, want)
	var board, month int64
	for len(data) > 0 {
		var deltas [2]int64
		for i := range deltas {
			d, n := binary.Varint(data)
			if n <= 0 {
				return nil, fmt.Errorf("%w: corrupt index entry %d (bad varint delta)", ErrBinary, len(entries))
			}
			deltas[i] = d
			data = data[n:]
		}
		count, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("%w: corrupt index entry %d (bad record count)", ErrBinary, len(entries))
		}
		data = data[n:]
		length, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("%w: corrupt index entry %d (bad byte length)", ErrBinary, len(entries))
		}
		data = data[n:]
		board += deltas[0]
		month += deltas[1]
		switch {
		case board != int64(int32(board)):
			return nil, fmt.Errorf("%w: index entry %d board %d outside the record header domain", ErrBinary, len(entries), board)
		case month != int64(int32(month)):
			return nil, fmt.Errorf("%w: index entry %d month %d outside the record header domain", ErrBinary, len(entries), month)
		case count == 0:
			return nil, fmt.Errorf("%w: index entry %d is empty (zero records)", ErrBinary, len(entries))
		case length > 1<<62 || count > length/binaryHeaderLen: // division: count*36 can wrap
			return nil, fmt.Errorf("%w: index entry %d: %d bytes cannot hold %d records", ErrBinary, len(entries), length, count)
		}
		entries = append(entries, indexEntry{board: int(board), month: int(month), count: int(count), length: int64(length)})
	}
	if uint64(len(entries)) != want {
		return nil, fmt.Errorf("%w: index holds %d entries, trailer claims %d", ErrBinary, len(entries), want)
	}
	return entries, nil
}

// segKey identifies one (board, month) segment.
type segKey struct{ board, month int }

// segRun is one contiguous byte range of a segment.
type segRun struct {
	off    int64
	length int64
	count  int
}

// Segment summarises one (board, month) slice of an archive — the unit
// of seek-based replay.
type Segment struct {
	Board, Month int
	Count        int   // records in the segment
	Bytes        int64 // encoded size
	Runs         int   // contiguous runs (1 for board-major archives)
}

// IndexedReader is random (month-seekable) access to a binary
// measurement archive held as one read-only byte image: a file mapped
// with mmap (or read into memory where the platform has no mmap), or a
// caller's slice. Every read — footer, v1 scan, segment replay, upgrade
// copy — slices that image; there is no read-ahead buffer and no copy
// of a run before it is decoded. A v2 archive opens in O(1) via its
// trailer; a v1 archive is scanned once, front to back, to build the
// same index in memory (Indexed reports which case applies). All
// accessors and ReadSegment are safe for concurrent use — give each
// goroutine its own SegmentDecoder.
//
// A mapped file can change under the reader: a page past a truncated
// end faults where a read would have returned an error. Reads of the
// image therefore run with faults turned into panics (SetPanicOnFault),
// and a fault inside this reader's image is returned as ErrBinary.
type IndexedReader struct {
	data   []byte // the archive image
	end    int64  // where the last record the index covers ends
	format string
	index  bool

	boards []int
	segs   map[segKey][]segRun
	counts map[segKey]int
	minM   int
	maxM   int
	total  int

	mu      sync.RWMutex // ReadSegment holds it shared, Close exclusively
	closed  bool
	release func() error // unmaps a mapped file; nil for other images
}

// indexBuilder accumulates segment runs during open/scan.
type indexBuilder struct {
	segs   map[segKey][]segRun
	counts map[segKey]int
	boards map[int]bool
	minM   int
	maxM   int
	total  int
}

func newIndexBuilder() *indexBuilder {
	return &indexBuilder{
		segs:   make(map[segKey][]segRun),
		counts: make(map[segKey]int),
		boards: make(map[int]bool),
	}
}

// addRun appends one run. Consecutive calls for the same key extend the
// previous run when contiguous, so a record-at-a-time scan coalesces
// into the same runs the v2 writer would have emitted.
func (b *indexBuilder) addRun(board, month int, off, length int64, count int) {
	key := segKey{board, month}
	runs := b.segs[key]
	if n := len(runs); n > 0 && runs[n-1].off+runs[n-1].length == off {
		runs[n-1].length += length
		runs[n-1].count += count
	} else {
		runs = append(runs, segRun{off: off, length: length, count: count})
	}
	b.segs[key] = runs
	b.counts[key] += count
	if b.total == 0 || month < b.minM {
		b.minM = month
	}
	if b.total == 0 || month > b.maxM {
		b.maxM = month
	}
	b.boards[board] = true
	b.total += count
}

func (b *indexBuilder) finish(r *IndexedReader) {
	r.segs, r.counts, r.total = b.segs, b.counts, b.total
	r.minM, r.maxM = b.minM, b.maxM
	r.boards = make([]int, 0, len(b.boards))
	for bd := range b.boards {
		r.boards = append(r.boards, bd)
	}
	sort.Ints(r.boards)
}

// OpenIndexed opens a binary measurement archive image for seek-based
// replay; the reader slices data, which must not change while it is in
// use. The version is detected from the magic: v2 reads only the footer
// (O(1) in archive size), v1 falls back to a single front-to-back scan
// that builds the index in memory. A JSONL archive fails with ErrJSONL.
func OpenIndexed(data []byte) (*IndexedReader, error) {
	return openImage(data, false)
}

// openImage opens an archive image; prefix makes the v1 scan keep the
// archive's whole-record prefix instead of rejecting a torn tail.
func openImage(data []byte, prefix bool) (*IndexedReader, error) {
	r := &IndexedReader{data: data}
	if err := r.parse(prefix); err != nil {
		return nil, err
	}
	return r, nil
}

// parse detects the image's format and builds its index, under the
// fault guard.
func (r *IndexedReader) parse(prefix bool) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer r.catchFault(&err)
	head := r.data[:min(len(r.data), len(BinaryMagic))]
	switch {
	case string(head) == BinaryMagicV2:
		r.format, r.index = FormatBinaryV2, true
		return r.openV2()
	case string(head) == BinaryMagic:
		r.format = FormatBinaryV1
		return r.scanBinary(prefix)
	case len(head) == len(BinaryMagic) && string(head[:7]) == BinaryMagic[:7]:
		return fmt.Errorf("%w: bad archive magic % x (version mismatch)", ErrBinary, head)
	case bytes.HasPrefix(bytes.TrimLeft(head, " \t\r\n"), []byte("{")):
		return ErrJSONL
	}
	return fmt.Errorf("%w: not a binary archive (no archive magic)", ErrBinary)
}

// catchFault, deferred by a reader of the image after
// debug.SetPanicOnFault(true), turns a memory fault inside this
// reader's image into ErrBinary in *err: a mapped file truncated or
// failing I/O under the reader. Any other panic is re-raised.
func (r *IndexedReader) catchFault(err *error) {
	p := recover()
	if p == nil {
		return
	}
	if f, ok := p.(interface{ Addr() uintptr }); ok && len(r.data) > 0 {
		base := uintptr(unsafe.Pointer(unsafe.SliceData(r.data)))
		if a := f.Addr(); a >= base && a-base < uintptr(len(r.data)) {
			*err = fmt.Errorf("%w: archive byte %d unreadable (file truncated or failing under its mapping)", ErrBinary, a-base)
			return
		}
	}
	panic(p)
}

// OpenIndexedFile opens the archive at path, mapped read-only; Close
// unmaps it.
func OpenIndexedFile(path string) (*IndexedReader, error) {
	return openFile(path, false)
}

// OpenIndexedPrefix opens the binary archive at path as far as it is
// whole: a v1 archive's index covers its longest prefix of complete
// records in per-board wall order, and End reports where that prefix
// ends — short of Size when the file ends in a torn or stray tail. A v2
// archive opens as with OpenIndexedFile. This is the recovery view of a
// crash-tolerant v1 checkpoint; replay opens archives with
// OpenIndexedFile, which rejects a torn file.
func OpenIndexedPrefix(path string) (*IndexedReader, error) {
	return openFile(path, true)
}

func openFile(path string, prefix bool) (*IndexedReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, release, err := loadImage(f, st.Size())
	if err == nil {
		var r *IndexedReader
		if r, err = openImage(data, prefix); err == nil {
			r.release = release
			return r, nil
		}
		if release != nil {
			release()
		}
	}
	return nil, fmt.Errorf("store: archive %s: %w", path, err)
}

// OpenIndexedBytes opens an archive image held in memory. A binary image
// is opened as is; a JSONL image is converted (ConvertJSONL) into a v2
// image first, so the reader always replays binary.
func OpenIndexedBytes(data []byte) (*IndexedReader, error) {
	if !bytes.HasPrefix(data, []byte(BinaryMagic[:7])) {
		var buf bytes.Buffer
		if err := ConvertJSONL(NewBinaryWriter(&buf), bytes.NewReader(data)); err != nil {
			return nil, err
		}
		data = buf.Bytes()
	}
	return OpenIndexed(data)
}

// openV2 reads the trailer, sentinel and index of a v2 archive and
// cross-checks them; any inconsistency is ErrBinary (no rescue scan).
func (r *IndexedReader) openV2() error {
	size := r.Size()
	minSize := int64(len(BinaryMagicV2)) + binaryHeaderLen + indexTrailerLen
	if size < minSize {
		return fmt.Errorf("%w: %d-byte archive is too small for the v2 footer (min %d)", ErrBinary, size, minSize)
	}
	tr := r.data[size-indexTrailerLen:]
	if string(tr[16:24]) != indexTrailerMagic {
		return fmt.Errorf("%w: bad index trailer magic % x", ErrBinary, tr[16:24])
	}
	indexOff := binary.LittleEndian.Uint64(tr[0:8])
	entryCount := binary.LittleEndian.Uint64(tr[8:16])
	sentinelOff := int64(indexOff) - binaryHeaderLen
	if indexOff > uint64(size-indexTrailerLen) || sentinelOff < int64(len(BinaryMagicV2)) {
		return fmt.Errorf("%w: trailer index offset %d outside the archive [44, %d]", ErrBinary, indexOff, size-indexTrailerLen)
	}
	s := r.data[sentinelOff:indexOff]
	if string(s[0:8]) != endSentinelMagic || binary.LittleEndian.Uint32(s[32:36]) != endSentinelBits {
		return fmt.Errorf("%w: corrupt end sentinel at offset %d", ErrBinary, sentinelOff)
	}
	for _, bb := range s[16:32] {
		if bb != 0 {
			return fmt.Errorf("%w: corrupt end sentinel (non-zero reserved bytes)", ErrBinary)
		}
	}
	sentinelCount := binary.LittleEndian.Uint64(s[8:16])
	entries, err := decodeIndexEntries(r.data[indexOff:size-indexTrailerLen], entryCount)
	if err != nil {
		return err
	}
	b := newIndexBuilder()
	off := int64(len(BinaryMagicV2))
	var recs uint64
	// Per-board wall order implies per-board month order, so an index
	// whose months go backwards for a board describes an archive the
	// sequential reader would reject — catch that from the entries
	// alone. (Disorder WITHIN a month segment is caught at read time by
	// ReadSegment's wall check.)
	lastMonth := make(map[int]int)
	for _, e := range entries {
		if last, ok := lastMonth[e.board]; ok && e.month < last {
			return fmt.Errorf("%w: board %d month %d indexed after month %d — records out of order", ErrBinary, e.board, e.month, last)
		}
		lastMonth[e.board] = e.month
		// Checked before the sum, so lengths that wrap int64 cannot
		// bring off back to the sentinel and hand ReadSegment a run
		// past the end of the image.
		if e.length > sentinelOff-off {
			return fmt.Errorf("%w: index entry for board %d month %d (%d bytes at offset %d) runs past the record region's end at %d", ErrBinary, e.board, e.month, e.length, off, sentinelOff)
		}
		b.addRun(e.board, e.month, off, e.length, e.count)
		off += e.length
		recs += uint64(e.count)
	}
	if off != sentinelOff {
		return fmt.Errorf("%w: index covers record bytes [8, %d), archive's record region ends at %d", ErrBinary, off, sentinelOff)
	}
	if recs != sentinelCount {
		return fmt.Errorf("%w: index counts %d records, end sentinel claims %d", ErrBinary, recs, sentinelCount)
	}
	r.end = sentinelOff
	b.finish(r)
	return nil
}

// scanBinary builds the index for an un-indexed v1 archive with one
// front-to-back decode pass over the image, recording byte offsets as it
// goes. The scan enforces per-board wall order. A malformed or
// out-of-order record is an error, unless prefix is set: then the index
// stops before it and r.end marks where the whole-record prefix ends.
func (r *IndexedReader) scanBinary(prefix bool) error {
	b := newIndexBuilder()
	lastWall := make(map[int]time.Time)
	var rec Record
	off := len(BinaryMagic)
	for i := 0; off < len(r.data); i++ {
		n, err := DecodeRecord(r.data[off:], &rec)
		if err == nil {
			if last, ok := lastWall[rec.Board]; ok && rec.Wall.Before(last) {
				err = fmt.Errorf("%w: board %d: out-of-order record at %v", ErrBinary, rec.Board, rec.Wall)
			}
		}
		if err != nil && prefix {
			break
		}
		if err != nil {
			return fmt.Errorf("store: binary record %d: %w", i, err)
		}
		lastWall[rec.Board] = rec.Wall
		b.addRun(rec.Board, MonthIndex(rec.Wall), int64(off), int64(n), 1)
		off += n
	}
	r.end = int64(off)
	b.finish(r)
	return nil
}

// Format returns the archive's detected format (Format* constants).
func (r *IndexedReader) Format() string { return r.format }

// Indexed reports whether the index came from a v2 trailer (O(1) open)
// rather than a fallback scan.
func (r *IndexedReader) Indexed() bool { return r.index }

// Size returns the archive's byte size.
func (r *IndexedReader) Size() int64 { return int64(len(r.data)) }

// End returns the offset where the last record the index covers ends:
// the end of the record region, short of Size on a v2 archive (its
// footer follows) and on a torn v1 archive opened with
// OpenIndexedPrefix.
func (r *IndexedReader) End() int64 { return r.end }

// TotalRecords returns the archive's record count.
func (r *IndexedReader) TotalRecords() int { return r.total }

// Boards returns the board IDs present, ascending.
func (r *IndexedReader) Boards() []int { return append([]int(nil), r.boards...) }

// MonthRecords returns how many records the archive holds for one
// board in one campaign month — an index lookup, no decoding.
func (r *IndexedReader) MonthRecords(board, month int) int {
	return r.counts[segKey{board, month}]
}

// LastMonth returns the largest campaign month one board has records
// in; ok is false when the board is absent.
func (r *IndexedReader) LastMonth(board int) (last int, ok bool) {
	for key := range r.segs {
		if key.board == board && (!ok || key.month > last) {
			last, ok = key.month, true
		}
	}
	return last, ok
}

// MonthRange returns the smallest and largest campaign month present.
// ok is false for an empty archive.
func (r *IndexedReader) MonthRange() (minMonth, maxMonth int, ok bool) {
	if r.total == 0 {
		return 0, 0, false
	}
	return r.minM, r.maxM, true
}

// Segments lists the archive's (board, month) segments, board-major.
func (r *IndexedReader) Segments() []Segment {
	out := make([]Segment, 0, len(r.segs))
	for key, runs := range r.segs {
		s := Segment{Board: key.board, Month: key.month, Count: r.counts[key], Runs: len(runs)}
		for _, run := range runs {
			s.Bytes += run.length
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Board != out[j].Board {
			return out[i].Board < out[j].Board
		}
		return out[i].Month < out[j].Month
	})
	return out
}

// Close releases the archive image: it unmaps a file opened with
// OpenIndexedFile or OpenIndexedPrefix once the segment reads in flight
// have finished. A ReadSegment after Close returns an error. Close is
// idempotent.
func (r *IndexedReader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if r.release == nil {
		return nil
	}
	return r.release()
}

// SegmentDecoder is the reusable decode state of ReadSegment: one
// Record whose payload vector every record of a segment is decoded
// into. One decoder per goroutine; reusing a decoder across segments of
// one read-out length is what makes steady-state segment replay
// allocation-free.
type SegmentDecoder struct {
	rec Record
}

// ReadSegment streams one (board, month) segment to fn in capture
// order, decoding at most limit records (limit <= 0: the whole
// segment). It is an error if the segment holds fewer than limit
// records, or if any decoded record disagrees with the index about its
// board or month (a lying index must fail loudly, never replay a wrong
// month). The Record passed to fn is the decoder's own: it and its Data
// are valid only until the next delivery from the same decoder; retain
// with Clone. The segment is read from the image under the fault guard
// (see IndexedReader), and Close waits for it to finish, so fn must not
// call Close.
func (r *IndexedReader) ReadSegment(d *SegmentDecoder, board, month, limit int, fn func(*Record) error) (err error) {
	key := segKey{board, month}
	want := r.counts[key]
	if limit > 0 {
		if limit > want {
			return fmt.Errorf("%w: board %d month %d holds %d records, want %d", ErrBinary, board, month, want, limit)
		}
		want = limit
	}
	if want == 0 {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return fmt.Errorf("store: reading board %d month %d: %w", board, month, fs.ErrClosed)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer r.catchFault(&err)
	mb := boundsForMonth(month)
	delivered := 0
	// prev enforces the archive's per-board wall order across the whole
	// segment (runs are stored in file order): the v2 footer cannot
	// prove record order, so the seek path re-checks what the
	// sequential reader would have rejected.
	var prev time.Time
	for _, run := range r.segs[key] {
		if err := r.readRun(d, board, mb, run, want, &delivered, &prev, fn); err != nil {
			return err
		}
		if delivered >= want {
			break
		}
	}
	if delivered < want {
		return fmt.Errorf("%w: board %d month %d segment delivered %d of %d records", ErrBinary, board, month, delivered, want)
	}
	return nil
}

// monthBounds is the per-segment wall-clock validator: the month's
// [start, next) window precomputed as Unix nanoseconds, so the hot
// decode loop checks each record with two integer compares instead of
// per-record calendar arithmetic. Months whose windows fall outside
// the nanosecond-representable range (far outside any campaign) fall
// back to the exact MonthIndex computation.
type monthBounds struct {
	month          int
	startNs, endNs int64
	fast           bool
}

func boundsForMonth(month int) monthBounds {
	start, end := MonthlyWindowStart(month), MonthlyWindowStart(month+1)
	mb := monthBounds{month: month}
	if start.Year() >= 1700 && end.Year() <= 2200 {
		mb.startNs, mb.endNs, mb.fast = start.UnixNano(), end.UnixNano(), true
	}
	return mb
}

func (mb monthBounds) contains(t time.Time) bool {
	if mb.fast {
		ns := t.UnixNano()
		return ns >= mb.startNs && ns < mb.endNs
	}
	return MonthIndex(t) == mb.month
}

// readRun decodes one contiguous run, sliced from the image, into the
// decoder's record.
func (r *IndexedReader) readRun(d *SegmentDecoder, board int, mb monthBounds, run segRun, want int, delivered *int, prev *time.Time, fn func(*Record) error) error {
	month := mb.month
	rest := r.data[run.off : run.off+run.length]
	inRun := 0
	for *delivered < want {
		if len(rest) == 0 {
			// Run consumed exactly; cross-check its record count.
			if inRun != run.count {
				return fmt.Errorf("%w: board %d month %d run decoded %d records, index claims %d", ErrBinary, board, month, inRun, run.count)
			}
			return nil
		}
		if len(rest) < binaryHeaderLen {
			return fmt.Errorf("%w: board %d month %d run ends mid-header", ErrBinary, board, month)
		}
		bits := binary.LittleEndian.Uint32(rest[32:])
		if bits > maxBinaryRecordBits {
			return fmt.Errorf("%w: %d-bit payload exceeds the %d-bit bound", ErrBinary, bits, maxBinaryRecordBits)
		}
		total := binaryHeaderLen + 8*((int(bits)+63)/64)
		if total > len(rest) {
			return fmt.Errorf("%w: board %d month %d run ends mid-record", ErrBinary, board, month)
		}
		if _, err := DecodeRecord(rest[:total], &d.rec); err != nil {
			return err
		}
		rest = rest[total:]
		if d.rec.Board != board || !mb.contains(d.rec.Wall) {
			return fmt.Errorf("%w: index sent board %d month %d to a record of board %d month %d", ErrBinary, board, month, d.rec.Board, MonthIndex(d.rec.Wall))
		}
		if d.rec.Wall.Before(*prev) {
			return fmt.Errorf("%w: board %d month %d: out-of-order record at %v", ErrBinary, board, month, d.rec.Wall)
		}
		*prev = d.rec.Wall
		if err := fn(&d.rec); err != nil {
			return err
		}
		*delivered++
		inRun++
	}
	return nil
}

// ArchiveInfo summarises an archive for inspect/convert tooling.
type ArchiveInfo struct {
	Format   string // Format* constant
	Indexed  bool   // true when a v2 trailer served the index
	Size     int64  // archive bytes
	Records  int
	Boards   []int
	Months   int // distinct campaign months present
	Segments int // (board, month) segments
}

// Info summarises the open archive.
func (r *IndexedReader) Info() ArchiveInfo {
	months := make(map[int]bool)
	for key := range r.segs {
		months[key.month] = true
	}
	return ArchiveInfo{
		Format:   r.format,
		Indexed:  r.index,
		Size:     r.Size(),
		Records:  r.total,
		Boards:   r.Boards(),
		Months:   len(months),
		Segments: len(r.segs),
	}
}

// InspectFile opens the archive at path just far enough to describe it.
func InspectFile(path string) (ArchiveInfo, error) {
	r, err := OpenIndexedFile(path)
	if err != nil {
		return ArchiveInfo{}, err
	}
	defer r.Close()
	return r.Info(), nil
}

// UpgradeFile rewrites the archive at path in the indexed v2 format
// (board-major, one segment run per board and month), atomically via a
// temp file and rename. It reports whether a rewrite happened: an
// archive that already carries a valid v2 index is left untouched.
//
// The rewrite streams: it holds a v1 archive's index scan in memory and
// writes each segment's record bytes straight from the mapped image, run
// by run, so heap memory is O(index), not O(archive) (where the platform
// has no mmap, the image itself is read into memory). A JSONL archive is first converted (ConvertJSONL)
// into a temporary v1 file beside it.
func UpgradeFile(path string) (bool, error) {
	r, err := OpenIndexedFile(path)
	if errors.Is(err, ErrJSONL) {
		var v1 string
		v1, err = writeTemp(path, func(out io.Writer) error {
			in, err := os.Open(path)
			if err != nil {
				return err
			}
			defer in.Close()
			return ConvertJSONL(NewBinaryWriterV1(out), in)
		})
		if err != nil {
			return false, fmt.Errorf("store: archive %s: %w", path, err)
		}
		defer os.Remove(v1)
		r, err = OpenIndexedFile(v1)
	}
	if err != nil {
		return false, err
	}
	defer r.Close()
	if r.Indexed() {
		return false, nil
	}
	v2, err := writeTemp(path, r.writeBoardMajor)
	if err != nil {
		return false, err
	}
	if err := os.Rename(v2, path); err != nil {
		os.Remove(v2)
		return false, err
	}
	return true, nil
}

// writeTemp fills a new temp file beside path and returns its name; on
// failure the temp file is removed.
func writeTemp(path string, fill func(io.Writer) error) (string, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return "", err
	}
	err = fill(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// writeBoardMajor writes the archive to out in the v2 format, boards
// ascending and each board's months ascending, by writing each segment's
// record bytes run by run straight from the image, under the fault
// guard. Each segment becomes one index run; the bytes are not decoded
// again (opening the archive validated them).
func (r *IndexedReader) writeBoardMajor(out io.Writer) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer r.catchFault(&err)
	w := NewBinaryWriter(out)
	for _, s := range r.Segments() {
		for _, run := range r.segs[segKey{s.Board, s.Month}] {
			if _, err := w.bw.Write(r.data[run.off : run.off+run.length]); err != nil {
				return err
			}
		}
		w.extendRun(s.Board, s.Month, s.Count, s.Bytes)
		w.off += s.Bytes
		w.count += uint64(s.Count)
	}
	return w.Flush()
}
