package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// The sequential oracles. Replay reads archives only through the index
// (IndexedReader); these materialise a whole archive in memory, record by
// record, so tests can check the seek path, the streaming upgrade and the
// JSONL converter against an independent front-to-back parse, and write
// an archive back out board-major.

// Archive is an in-memory, per-board ordered collection of records.
// Appends must arrive in non-decreasing wall time per board.
type Archive struct {
	byBoard map[int][]Record
	total   int
}

// NewArchive returns an empty archive.
func NewArchive() *Archive {
	return &Archive{byBoard: make(map[int][]Record)}
}

// Append adds one record.
func (a *Archive) Append(r Record) error {
	if r.Data == nil {
		return errors.New("store: record has no data")
	}
	recs := a.byBoard[r.Board]
	if len(recs) > 0 && r.Wall.Before(recs[len(recs)-1].Wall) {
		return fmt.Errorf("store: board %d: out-of-order record at %v", r.Board, r.Wall)
	}
	a.byBoard[r.Board] = append(recs, r)
	a.total++
	return nil
}

// Len returns the total number of records.
func (a *Archive) Len() int { return a.total }

// Boards returns the board indices present, sorted.
func (a *Archive) Boards() []int {
	out := make([]int, 0, len(a.byBoard))
	for b := range a.byBoard {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// Records returns the records of one board in capture order.
func (a *Archive) Records(board int) []Record {
	return a.byBoard[board]
}

// WriteJSONL writes records to w through the shipped JSONLWriter, one
// JSON object per line.
func WriteJSONL(w io.Writer, recs []Record) error {
	jw := NewJSONLWriter(w)
	for i := range recs {
		if err := jw.Write(recs[i]); err != nil {
			return fmt.Errorf("store: record %d: %w", i, err)
		}
	}
	return jw.Flush()
}

// WriteArchiveJSONL writes the entire archive as JSON lines, boards in
// ascending order.
func (a *Archive) WriteArchiveJSONL(w io.Writer) error {
	for _, b := range a.Boards() {
		if err := WriteJSONL(w, a.Records(b)); err != nil {
			return err
		}
	}
	return nil
}

// WriteArchiveBinary writes the entire archive as an indexed (v2) binary
// archive, boards in ascending order.
func (a *Archive) WriteArchiveBinary(w io.Writer) error {
	bw := NewBinaryWriter(w)
	for _, b := range a.Boards() {
		for i, rec := range a.Records(b) {
			if err := bw.Write(rec); err != nil {
				return fmt.Errorf("store: board %d record %d: %w", b, i, err)
			}
		}
	}
	return bw.Flush()
}

// ReadBinary parses a binary archive stream (v1 or v2) into an archive.
func ReadBinary(r io.Reader) (*Archive, error) {
	br, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	a := NewArchive()
	for i := 0; ; i++ {
		var rec Record
		err := br.Read(&rec)
		if err == io.EOF {
			return a, nil
		}
		if err != nil {
			return nil, fmt.Errorf("store: binary record %d: %w", i, err)
		}
		if err := a.Append(rec); err != nil {
			return nil, fmt.Errorf("store: binary record %d: %w", i, err)
		}
	}
}

// ReadJSONL parses a JSON-lines stream into an archive, independently of
// ConvertJSONL.
func ReadJSONL(r io.Reader) (*Archive, error) {
	a := NewArchive()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxJSONLLineBytes)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("store: line %d: %w", line, err)
		}
		if err := a.Append(rec); err != nil {
			return nil, fmt.Errorf("store: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return a, nil
}

// ReadArchive parses an archive in either format, routed on the binary
// magic's identifying bytes (so a future binary version reaches the
// binary reader and fails with its version error).
func ReadArchive(r io.Reader) (*Archive, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	head, err := br.Peek(len(BinaryMagic) - 1)
	if err == nil && bytes.Equal(head, []byte(BinaryMagic[:len(BinaryMagic)-1])) {
		return ReadBinary(br)
	}
	return ReadJSONL(br)
}

// convertJSONL runs the shipped converter into a v1 image and parses
// that image back with the sequential oracle.
func convertJSONL(data []byte) (*Archive, error) {
	var buf bytes.Buffer
	if err := ConvertJSONL(NewBinaryWriterV1(&buf), bytes.NewReader(data)); err != nil {
		return nil, err
	}
	return ReadBinary(&buf)
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
