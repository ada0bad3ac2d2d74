package store

import (
	"bufio"
	"bytes"
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
