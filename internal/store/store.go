// Package store implements the measurement database of the rig: the
// Raspberry Pi in the paper's setup receives every SRAM read-out from the
// master boards and archives it in JSON (§III). This package provides the
// record schema, the paper's monthly evaluation windows ("the first 1,000
// consecutive measurements after midnight on the 8th of each month",
// §IV-B), the JSON-lines export format, and the binary archive format
// (binary.go, index.go) that every replay reads. Records reach a writer
// one at a time as the rig produces them; no archive is held in memory.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/bitvec"
)

// Epoch is the start of the paper's test campaign: February 8, 2017.
var Epoch = time.Date(2017, time.February, 8, 0, 0, 0, 0, time.UTC)

// TestEnd is the end of the campaign: February 8, 2019.
var TestEnd = time.Date(2019, time.February, 8, 0, 0, 0, 0, time.UTC)

// Record is one archived SRAM power-up read-out.
type Record struct {
	Board int    // global board index (0..15)
	Layer int    // rig layer (0 or 1)
	Seq   uint64 // per-board lifetime measurement index
	Cycle uint64 // rig cycle counter at capture time
	Wall  time.Time
	Data  *bitvec.Vector // the read-out window pattern
}

// jsonRecord is the wire format: timestamps in RFC3339, payload in hex —
// matching the JSON database the Raspberry Pi kept in the paper's setup.
type jsonRecord struct {
	Board int    `json:"board"`
	Layer int    `json:"layer"`
	Seq   uint64 `json:"seq"`
	Cycle uint64 `json:"cycle"`
	Wall  string `json:"wall"`
	Bits  int    `json:"bits"`
	Data  string `json:"data"`
}

// MarshalJSON implements json.Marshaler.
func (r Record) MarshalJSON() ([]byte, error) {
	if r.Data == nil {
		return nil, errors.New("store: record has no data")
	}
	return json.Marshal(jsonRecord{
		Board: r.Board,
		Layer: r.Layer,
		Seq:   r.Seq,
		Cycle: r.Cycle,
		Wall:  r.Wall.UTC().Format(time.RFC3339Nano),
		Bits:  r.Data.Len(),
		Data:  r.Data.Hex(),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Record) UnmarshalJSON(data []byte) error {
	var j jsonRecord
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	wall, err := time.Parse(time.RFC3339Nano, j.Wall)
	if err != nil {
		return fmt.Errorf("store: bad wall time: %w", err)
	}
	v, err := bitvec.ParseHex(j.Data, j.Bits)
	if err != nil {
		return fmt.Errorf("store: bad payload: %w", err)
	}
	*r = Record{Board: j.Board, Layer: j.Layer, Seq: j.Seq, Cycle: j.Cycle, Wall: wall.UTC(), Data: v}
	return nil
}

// MonthlyWindowStart returns midnight (UTC) on the 8th of the month that
// is monthIndex months after the campaign epoch. Index 0 is the epoch
// itself (Feb 8, 2017); index 24 is Feb 8, 2019.
func MonthlyWindowStart(monthIndex int) time.Time {
	return Epoch.AddDate(0, monthIndex, 0)
}

// MonthLabel renders a window start in the paper's axis format ("17-Feb").
func MonthLabel(monthIndex int) string {
	t := MonthlyWindowStart(monthIndex)
	return fmt.Sprintf("%02d-%s", t.Year()%100, t.Format("Jan"))
}

// MonthIndex returns the campaign month a capture time falls in: the
// unique m with MonthlyWindowStart(m) <= t < MonthlyWindowStart(m+1).
// Times before the epoch yield negative indices. This is the inverse of
// MonthlyWindowStart and the month assignment the archive index is built
// from, so a month's records are exactly those captured in
// [MonthlyWindowStart(m), MonthlyWindowStart(m+1)).
func MonthIndex(t time.Time) int {
	t = t.UTC()
	m := (t.Year()-Epoch.Year())*12 + int(t.Month()) - int(Epoch.Month())
	// t sits in calendar month Epoch.Month+m; the campaign month rolls
	// over on the 8th, not the 1st, so times before the window start
	// belong to the previous index.
	if t.Before(MonthlyWindowStart(m)) {
		m--
	}
	return m
}

// JSONLWriter encodes records to a JSON-lines stream one at a time — the
// sink of the streaming collection path, which archives to disk without
// ever holding a window in memory. Call Flush when done.
type JSONLWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewJSONLWriter returns a buffered record writer over w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriter(w)
	return &JSONLWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Write encodes one record.
func (jw *JSONLWriter) Write(rec Record) error { return jw.enc.Encode(rec) }

// Flush drains the write buffer.
func (jw *JSONLWriter) Flush() error { return jw.bw.Flush() }

// maxJSONLLineBytes bounds one JSONL archive line. It is derived from
// the binary codec's payload bound so the two formats accept the same
// records: a maxBinaryRecordBits payload hex-encodes to two bytes per
// payload byte, plus a small JSON envelope. (A fixed 16 MiB cap used to
// reject hex lines for records the binary codec wrote fine.)
const maxJSONLLineBytes = 2*(maxBinaryRecordBits/8) + 4096

// ConvertJSONL streams a JSON-lines archive into the binary writer w,
// one record at a time, and flushes w. It is the one JSONL reader:
// replay reads only binary archives, so a JSONL archive is converted
// once — UpgradeFile rewrites a file, OpenIndexedBytes an in-memory
// image. Blank lines are skipped; a malformed line, a record out of
// its board's wall order or one the binary codec cannot hold exactly
// (an int32 board and layer, a nanosecond wall clock) is an error
// naming the line.
func ConvertJSONL(w *BinaryWriter, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxJSONLLineBytes)
	lastWall := make(map[int]time.Time)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("store: line %d: %w", line, err)
		}
		if rec.Board != int(int32(rec.Board)) || rec.Layer != int(int32(rec.Layer)) || !time.Unix(0, rec.Wall.UnixNano()).Equal(rec.Wall) {
			return fmt.Errorf("store: line %d: board, layer or wall time outside the binary record's range", line)
		}
		if last, ok := lastWall[rec.Board]; ok && rec.Wall.Before(last) {
			return fmt.Errorf("store: line %d: board %d: out-of-order record at %v", line, rec.Board, rec.Wall)
		}
		lastWall[rec.Board] = rec.Wall
		if err := w.Write(rec); err != nil {
			return fmt.Errorf("store: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return w.Flush()
}
