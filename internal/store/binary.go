package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/bitvec"
)

// This file is the binary record codec: the allocation-free counterpart
// of the JSON schema, used both as the shard wire payload and as the
// `.bin` archive format. A record is a fixed little-endian header
// followed by the payload's raw bitvec words:
//
//	offset  size  field
//	0       4     board   (int32)
//	4       4     layer   (int32)
//	8       8     seq     (uint64)
//	16      8     cycle   (uint64)
//	24      8     wall    (int64, nanoseconds since the Unix epoch, UTC)
//	32      4     bits    (uint32, payload length in bits)
//	36      8*W   words   (uint64 each, W = ceil(bits/64), bitvec packing)
//
// The word packing is bitvec's own storage layout, so encoding is a
// straight copy and decoding restores the exact vector — no hex, no
// per-record string churn. Archives open with a versioned magic; the
// shard protocol does not repeat it (the handshake already version-gates
// the session).

// BinaryMagic opens a version-1 binary archive: seven identifying bytes
// plus a format version byte. A reader refuses unknown versions, so a
// format change bumps the final byte and old tools fail loudly instead
// of mis-parsing. JSONL archives cannot collide: their first byte is '{'.
const BinaryMagic = "SRPUFA\x00\x01"

// BinaryMagicV2 opens a version-2 (indexed) binary archive: the same
// record stream as v1, terminated by an end sentinel, a per-(board,
// month) segment index and a fixed trailer — see index.go for the
// layout. Readers accept both versions; NewBinaryWriter emits v2.
const BinaryMagicV2 = "SRPUFA\x00\x02"

// ErrBinary reports a malformed binary record or archive.
var ErrBinary = errors.New("store: malformed binary record")

// binaryHeaderLen is the fixed record header size in bytes.
const binaryHeaderLen = 36

// maxBinaryRecordBits bounds a record payload (16 MiB of words) so a
// corrupt length field cannot turn into a giant allocation.
const maxBinaryRecordBits = 1 << 27

// AppendRecordBinary appends the binary encoding of rec to dst and
// returns the extended slice. With sufficient capacity it does not
// allocate — the buffer-reuse contract the shard frame batcher and the
// BinaryWriter build on.
func AppendRecordBinary(dst []byte, rec Record) ([]byte, error) {
	if rec.Data == nil {
		return nil, errors.New("store: record has no data")
	}
	// The decoder's payload bound is enforced symmetrically at encode,
	// so an oversized record fails where it is written instead of
	// producing an archive (or wire frame) that every reader rejects.
	if rec.Data.Len() > maxBinaryRecordBits {
		return nil, fmt.Errorf("%w: %d-bit payload exceeds the %d-bit bound", ErrBinary, rec.Data.Len(), maxBinaryRecordBits)
	}
	var hdr [binaryHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(int32(rec.Board)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(int32(rec.Layer)))
	binary.LittleEndian.PutUint64(hdr[8:], rec.Seq)
	binary.LittleEndian.PutUint64(hdr[16:], rec.Cycle)
	binary.LittleEndian.PutUint64(hdr[24:], uint64(rec.Wall.UnixNano()))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(rec.Data.Len()))
	dst = append(dst, hdr[:]...)
	var wb [8]byte
	for _, w := range rec.Data.Words() {
		binary.LittleEndian.PutUint64(wb[:], w)
		dst = append(dst, wb[:]...)
	}
	return dst, nil
}

// DecodeRecord parses one record from the front of data into rec,
// returning the number of bytes consumed. rec.Data is reused when it
// already holds a vector of the record's exact bit length (the payload
// is then one memmove on a little-endian host, and the decode does not
// allocate); otherwise a fresh vector is allocated. Corrupt input (short
// buffer, oversized length, dirty padding bits) is rejected with
// ErrBinary.
func DecodeRecord(data []byte, rec *Record) (int, error) {
	if len(data) < binaryHeaderLen {
		return 0, fmt.Errorf("%w: %d-byte header, want %d", ErrBinary, len(data), binaryHeaderLen)
	}
	bits := binary.LittleEndian.Uint32(data[32:])
	if bits > maxBinaryRecordBits {
		return 0, fmt.Errorf("%w: %d-bit payload exceeds the %d-bit bound", ErrBinary, bits, maxBinaryRecordBits)
	}
	n := int(bits)
	total := binaryHeaderLen + 8*((n+63)/64)
	if len(data) < total {
		return 0, fmt.Errorf("%w: %d bytes for a %d-bit record, want %d", ErrBinary, len(data), n, total)
	}
	if rec.Data == nil || rec.Data.Len() != n {
		rec.Data = bitvec.New(n)
	}
	if err := rec.Data.LoadLE(data[binaryHeaderLen:total]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBinary, err)
	}
	rec.Board = int(int32(binary.LittleEndian.Uint32(data[0:])))
	rec.Layer = int(int32(binary.LittleEndian.Uint32(data[4:])))
	rec.Seq = binary.LittleEndian.Uint64(data[8:])
	rec.Cycle = binary.LittleEndian.Uint64(data[16:])
	rec.Wall = time.Unix(0, int64(binary.LittleEndian.Uint64(data[24:]))).UTC()
	return total, nil
}

// BinaryWriter encodes records to a binary archive stream one at a time —
// the `.bin` counterpart of JSONLWriter, with one reused encode buffer so
// the steady-state write path is allocation-free. Call Flush when done.
//
// The default (v2) writer accumulates the segment index transparently as
// records stream through it and appends the index footer on the first
// Flush — which therefore FINALIZES the archive: further Writes fail.
// This matches every collection path in the repository (one Flush when
// the campaign ends); a sink that needs mid-stream flushing writes v1
// via NewBinaryWriterV1, which keeps Flush a plain buffer drain.
type BinaryWriter struct {
	bw      *bufio.Writer
	scratch []byte

	indexed bool // v2: accumulate and append the footer index
	final   bool // v2 footer written; the archive is sealed

	off     int64  // bytes written so far (magic + records)
	count   uint64 // records written
	idx     []byte // varint-encoded index entries
	entries uint64
	// Delta base of the last emitted entry, and the open run.
	prevBoard, prevMonth int
	runBoard, runMonth   int
	runCount             int
	runBytes             int64
	runOpen              bool
}

// NewBinaryWriter returns a buffered binary record writer over w in the
// indexed v2 format. The archive magic is written immediately (any
// buffered write error surfaces on the next Write or Flush, as with
// bufio generally); the index footer is written by Flush.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	bw := bufio.NewWriter(w)
	bw.WriteString(BinaryMagicV2)
	return &BinaryWriter{bw: bw, indexed: true, off: int64(len(BinaryMagicV2))}
}

// NewBinaryWriterV1 returns a writer in the un-indexed v1 format: a
// plain record stream with no footer, readable by the same readers via
// a one-pass fallback scan. Flush is a plain buffer drain (no
// finalization), so v1 suits sinks that flush mid-stream — the
// crash-tolerant checkpoint format of a long-running campaign (a
// truncated tail loses only the torn record, never the archive).
func NewBinaryWriterV1(w io.Writer) *BinaryWriter {
	bw := bufio.NewWriter(w)
	bw.WriteString(BinaryMagic)
	return &BinaryWriter{bw: bw, off: int64(len(BinaryMagic))}
}

// ContinueBinaryWriterV1 returns a v1 writer that does NOT emit the
// archive magic — w is positioned at the end of an existing v1 record
// stream (an append-mode file) and the writer continues it. This is the
// resume path of a checkpointed campaign: recover the archive to its
// last complete record, reopen it for append, and keep writing.
func ContinueBinaryWriterV1(w io.Writer) *BinaryWriter {
	return &BinaryWriter{bw: bufio.NewWriter(w), off: int64(len(BinaryMagic))}
}

// Write encodes one record.
func (w *BinaryWriter) Write(rec Record) error {
	if w.final {
		return fmt.Errorf("%w: write after Flush finalized the indexed archive", ErrBinary)
	}
	enc, err := AppendRecordBinary(w.scratch[:0], rec)
	if err != nil {
		return err
	}
	w.scratch = enc[:0]
	if _, err := w.bw.Write(enc); err != nil {
		return err
	}
	if w.indexed {
		// The index must describe what a reader will DECODE, so board and
		// month come from the encoded header's domain (int32 board, and a
		// wall clock that round-trips through UnixNano).
		w.extendRun(int(int32(rec.Board)), MonthIndex(time.Unix(0, rec.Wall.UnixNano())), 1, int64(len(enc)))
	}
	w.off += int64(len(enc))
	w.count++
	return nil
}

// extendRun adds count records of n bytes, all of one (board, month),
// to the open index run, first closing it if it holds another segment.
func (w *BinaryWriter) extendRun(board, month, count int, n int64) {
	if !w.runOpen || board != w.runBoard || month != w.runMonth {
		w.closeRun()
		w.runBoard, w.runMonth, w.runOpen = board, month, true
	}
	w.runCount += count
	w.runBytes += n
}

// closeRun appends the open run as one varint index entry.
func (w *BinaryWriter) closeRun() {
	if !w.runOpen {
		return
	}
	w.idx = binary.AppendVarint(w.idx, int64(w.runBoard-w.prevBoard))
	w.idx = binary.AppendVarint(w.idx, int64(w.runMonth-w.prevMonth))
	w.idx = binary.AppendUvarint(w.idx, uint64(w.runCount))
	w.idx = binary.AppendUvarint(w.idx, uint64(w.runBytes))
	w.prevBoard, w.prevMonth = w.runBoard, w.runMonth
	w.entries++
	w.runCount, w.runBytes, w.runOpen = 0, 0, false
}

// Flush drains the write buffer. On an indexed (v2) writer the first
// Flush also appends the end sentinel, the segment index and the trailer,
// sealing the archive; later Flushes only drain.
func (w *BinaryWriter) Flush() error {
	if w.indexed && !w.final {
		w.closeRun()
		var s [binaryHeaderLen]byte
		copy(s[0:8], endSentinelMagic)
		binary.LittleEndian.PutUint64(s[8:16], w.count)
		binary.LittleEndian.PutUint32(s[32:36], endSentinelBits)
		w.bw.Write(s[:])
		indexOff := w.off + binaryHeaderLen
		w.bw.Write(w.idx)
		var tr [indexTrailerLen]byte
		binary.LittleEndian.PutUint64(tr[0:8], uint64(indexOff))
		binary.LittleEndian.PutUint64(tr[8:16], w.entries)
		copy(tr[16:24], indexTrailerMagic)
		w.bw.Write(tr[:])
		w.final = true
	}
	return w.bw.Flush()
}

// BinaryReader decodes a binary archive stream record by record. Both
// format versions are accepted: a v1 stream ends at EOF, a v2 stream at
// its end sentinel (the reader then validates the index footer against
// the records it decoded before reporting io.EOF).
type BinaryReader struct {
	br   *bufio.Reader
	buf  []byte
	v2   bool
	done bool
	off  int64  // bytes consumed, from the start of the archive
	n    uint64 // records decoded
}

// NewBinaryReader checks the archive magic (including the format
// version) and returns a streaming reader.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var magic [len(BinaryMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: missing archive magic: %v", ErrBinary, err)
	}
	switch string(magic[:]) {
	case BinaryMagic:
		return &BinaryReader{br: br, off: int64(len(magic))}, nil
	case BinaryMagicV2:
		return &BinaryReader{br: br, v2: true, off: int64(len(magic))}, nil
	}
	return nil, fmt.Errorf("%w: bad archive magic % x (version mismatch or not a binary archive)", ErrBinary, magic)
}

// Offset returns the number of archive bytes consumed so far (magic plus
// every fully decoded record) — the truncation point a checkpoint
// recovery cuts a torn archive back to.
func (r *BinaryReader) Offset() int64 { return r.off }

// Records returns the number of records decoded so far.
func (r *BinaryReader) Records() uint64 { return r.n }

// Read decodes the next record into rec, reusing rec.Data when it
// already has the record's bit length (pass the same rec to stream with
// one payload allocation; pass a fresh rec to retain each record). A
// clean end of stream returns io.EOF; a truncated record is ErrBinary.
func (r *BinaryReader) Read(rec *Record) error {
	if r.done {
		return io.EOF
	}
	var hdr [binaryHeaderLen]byte
	if n, err := io.ReadFull(r.br, hdr[:]); err != nil {
		// One ReadFull distinguishes the clean end of a v1 stream (zero
		// bytes, io.EOF) from a record truncated mid-header (some bytes,
		// io.ErrUnexpectedEOF). A v2 stream may not end before its
		// sentinel at all.
		if err == io.EOF && !r.v2 {
			r.done = true
			return io.EOF
		}
		if err == io.EOF {
			return fmt.Errorf("%w: indexed archive truncated before its end sentinel", ErrBinary)
		}
		return fmt.Errorf("%w: truncated record header: %d of %d bytes: %v", ErrBinary, n, binaryHeaderLen, err)
	}
	bits := binary.LittleEndian.Uint32(hdr[32:])
	if r.v2 && bits == endSentinelBits {
		if err := r.finishV2(hdr); err != nil {
			return err
		}
		r.done = true
		return io.EOF
	}
	if bits > maxBinaryRecordBits {
		return fmt.Errorf("%w: %d-bit payload exceeds the %d-bit bound", ErrBinary, bits, maxBinaryRecordBits)
	}
	total := binaryHeaderLen + 8*((int(bits)+63)/64)
	if cap(r.buf) < total {
		r.buf = make([]byte, total)
	}
	buf := r.buf[:total]
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r.br, buf[binaryHeaderLen:]); err != nil {
		return fmt.Errorf("%w: truncated %d-bit payload: %v", ErrBinary, bits, err)
	}
	if _, err := DecodeRecord(buf, rec); err != nil {
		return err
	}
	r.off += int64(total)
	r.n++
	return nil
}

// finishV2 validates a v2 archive's footer after its end sentinel was
// read into hdr: sentinel integrity, then the index entries and trailer
// against the records actually decoded. Sequential reads thereby verify
// the index is truthful even though they never seek through it.
func (r *BinaryReader) finishV2(hdr [binaryHeaderLen]byte) error {
	if string(hdr[0:8]) != endSentinelMagic {
		return fmt.Errorf("%w: corrupt end sentinel", ErrBinary)
	}
	for _, b := range hdr[16:32] {
		if b != 0 {
			return fmt.Errorf("%w: corrupt end sentinel (non-zero reserved bytes)", ErrBinary)
		}
	}
	if got := binary.LittleEndian.Uint64(hdr[8:16]); got != r.n {
		return fmt.Errorf("%w: end sentinel claims %d records, decoded %d", ErrBinary, got, r.n)
	}
	sentinelOff := r.off
	r.off += binaryHeaderLen
	tail, err := io.ReadAll(r.br)
	if err != nil {
		return fmt.Errorf("%w: reading archive index: %v", ErrBinary, err)
	}
	if len(tail) < indexTrailerLen {
		return fmt.Errorf("%w: %d-byte archive tail cannot hold the %d-byte trailer", ErrBinary, len(tail), indexTrailerLen)
	}
	tr := tail[len(tail)-indexTrailerLen:]
	if string(tr[16:24]) != indexTrailerMagic {
		return fmt.Errorf("%w: bad index trailer magic % x", ErrBinary, tr[16:24])
	}
	if got := binary.LittleEndian.Uint64(tr[0:8]); got != uint64(r.off) {
		return fmt.Errorf("%w: trailer index offset %d, want %d", ErrBinary, got, r.off)
	}
	entryCount := binary.LittleEndian.Uint64(tr[8:16])
	entries, err := decodeIndexEntries(tail[:len(tail)-indexTrailerLen], entryCount)
	if err != nil {
		return err
	}
	var recs uint64
	off := int64(len(BinaryMagicV2))
	for _, e := range entries {
		if e.length > sentinelOff-off {
			return fmt.Errorf("%w: index entry for board %d month %d runs past the record region's end at %d", ErrBinary, e.board, e.month, sentinelOff)
		}
		recs += uint64(e.count)
		off += e.length
	}
	if recs != r.n {
		return fmt.Errorf("%w: index counts %d records, archive holds %d", ErrBinary, recs, r.n)
	}
	if off != sentinelOff {
		return fmt.Errorf("%w: index covers %d record bytes, archive holds %d", ErrBinary, off, sentinelOff)
	}
	return nil
}

// RecordWriter is a streaming archive sink: both JSONLWriter and
// BinaryWriter implement it, so collection paths choose a format without
// branching at every record.
type RecordWriter interface {
	Write(Record) error
	Flush() error
}

// NewWriterForPath returns a record writer in the format implied by the
// archive path: `.bin` selects the binary codec, anything else the JSONL
// schema (the human-inspectable default — see DESIGN.md §5).
func NewWriterForPath(path string, w io.Writer) RecordWriter {
	if strings.HasSuffix(path, ".bin") {
		return NewBinaryWriter(w)
	}
	return NewJSONLWriter(w)
}
