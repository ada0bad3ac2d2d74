package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// The sequential oracles. Replay reads archives only through the index
// (IndexedReader); these materialise a whole archive in memory, record by
// record, so tests can check the seek path, the streaming upgrade and the
// JSONL converter against an independent front-to-back parse.

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
