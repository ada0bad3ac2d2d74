package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/bitvec"
)

// testRecords builds a small deterministic record set spanning two
// boards, non-trivial metadata and word-unaligned payload lengths.
func testRecords(t *testing.T, bits int) []Record {
	t.Helper()
	var recs []Record
	for b := 0; b < 2; b++ {
		for i := 0; i < 5; i++ {
			v := bitvec.New(bits)
			for j := i; j < bits; j += 7 {
				v.Set(j, true)
			}
			recs = append(recs, Record{
				Board: b,
				Layer: b % 2,
				Seq:   uint64(1000*b + i),
				Cycle: uint64(5000*b + i),
				Wall:  Epoch.Add(time.Duration(i) * 5400 * time.Millisecond),
				Data:  v,
			})
		}
	}
	return recs
}

// decodeRecord decodes one record from the front of data into a fresh
// Record.
func decodeRecord(data []byte) (Record, int, error) {
	var rec Record
	n, err := DecodeRecord(data, &rec)
	return rec, n, err
}

func sameRecord(a, b Record) bool {
	return a.Board == b.Board && a.Layer == b.Layer && a.Seq == b.Seq &&
		a.Cycle == b.Cycle && a.Wall.Equal(b.Wall) && a.Data.Equal(b.Data)
}

func TestBinaryRecordRoundTrip(t *testing.T) {
	for _, bits := range []int{1, 63, 64, 65, 8192} {
		for _, rec := range testRecords(t, bits) {
			enc, err := AppendRecordBinary(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			if want := binaryHeaderLen + 8*len(rec.Data.Words()); len(enc) != want {
				t.Fatalf("bits=%d: encoded %d bytes, the record layout says %d", bits, len(enc), want)
			}
			back, n, err := decodeRecord(enc)
			if err != nil {
				t.Fatalf("bits=%d: decode: %v", bits, err)
			}
			if n != len(enc) {
				t.Fatalf("bits=%d: consumed %d of %d bytes", bits, n, len(enc))
			}
			if !sameRecord(rec, back) {
				t.Fatalf("bits=%d: round trip differs: %+v vs %+v", bits, rec, back)
			}
		}
	}
}

// TestBinaryMatchesJSONL: the two archive codecs must carry the exact
// same record content — the bit-identity seam the replay guarantee
// crosses.
func TestBinaryMatchesJSONL(t *testing.T) {
	recs := testRecords(t, 200)

	var jbuf, bbuf bytes.Buffer
	if err := WriteJSONL(&jbuf, recs); err != nil {
		t.Fatal(err)
	}
	bw := NewBinaryWriter(&bbuf)
	for _, rec := range recs {
		if err := bw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if bbuf.Len() >= jbuf.Len() {
		t.Fatalf("binary archive (%d bytes) is not smaller than JSONL (%d bytes)", bbuf.Len(), jbuf.Len())
	}

	ja, err := convertJSONL(jbuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ba, err := ReadArchive(bytes.NewReader(bbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ja.Len() != ba.Len() || ja.Len() != len(recs) {
		t.Fatalf("lengths differ: jsonl %d, binary %d, want %d", ja.Len(), ba.Len(), len(recs))
	}
	for _, board := range ja.Boards() {
		jr, br := ja.Records(board), ba.Records(board)
		if len(jr) != len(br) {
			t.Fatalf("board %d: %d vs %d records", board, len(jr), len(br))
		}
		for i := range jr {
			if !sameRecord(jr[i], br[i]) {
				t.Fatalf("board %d record %d differs across codecs", board, i)
			}
		}
	}
}

func TestBinaryReaderPayloadReuse(t *testing.T) {
	recs := testRecords(t, 128)
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
	br, err := NewBinaryReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	var firstData *bitvec.Vector
	for i := range recs {
		if err := br.Read(&rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if i == 0 {
			firstData = rec.Data
		} else if rec.Data != firstData {
			t.Fatalf("record %d: payload vector was reallocated despite matching length", i)
		}
		if !sameRecord(rec, recs[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
	if err := br.Read(&rec); err != io.EOF {
		t.Fatalf("after last record: err = %v, want io.EOF", err)
	}
}

func TestBinaryCorruptionRejected(t *testing.T) {
	rec := testRecords(t, 100)[0]
	enc, err := AppendRecordBinary(nil, rec)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated header", func(t *testing.T) {
		if _, _, err := decodeRecord(enc[:binaryHeaderLen-1]); !errors.Is(err, ErrBinary) {
			t.Fatalf("err = %v, want ErrBinary", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, _, err := decodeRecord(enc[:len(enc)-1]); !errors.Is(err, ErrBinary) {
			t.Fatalf("err = %v, want ErrBinary", err)
		}
	})
	t.Run("oversized bit length", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint32(bad[32:], maxBinaryRecordBits+1)
		if _, _, err := decodeRecord(bad); !errors.Is(err, ErrBinary) {
			t.Fatalf("err = %v, want ErrBinary", err)
		}
	})
	t.Run("dirty padding bits", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[len(bad)-1] = 0xff // bits 100..127 of the final word
		if _, _, err := decodeRecord(bad); !errors.Is(err, ErrBinary) {
			t.Fatalf("err = %v, want ErrBinary", err)
		}
	})
	t.Run("bad archive magic", func(t *testing.T) {
		if _, err := ReadBinary(strings.NewReader("SRPUFA\x00\x03rest")); !errors.Is(err, ErrBinary) {
			t.Fatalf("version 3 magic: err = %v, want ErrBinary", err)
		}
		if _, err := ReadBinary(strings.NewReader("short")); !errors.Is(err, ErrBinary) {
			t.Fatalf("short magic: err = %v, want ErrBinary", err)
		}
		// Auto-detection must route a FUTURE format version to the
		// binary reader's version error, not to the JSONL parser.
		if _, err := ReadArchive(strings.NewReader("SRPUFA\x00\x03rest")); !errors.Is(err, ErrBinary) {
			t.Fatalf("future version via ReadArchive: err = %v, want ErrBinary", err)
		}
	})
	t.Run("truncated archive tail", func(t *testing.T) {
		var buf bytes.Buffer
		bw := NewBinaryWriter(&buf)
		if err := bw.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBinary(bytes.NewReader(buf.Bytes()[:buf.Len()-3])); !errors.Is(err, ErrBinary) {
			t.Fatalf("err = %v, want ErrBinary", err)
		}
	})
}

func TestNewWriterForPath(t *testing.T) {
	var buf bytes.Buffer
	if _, ok := NewWriterForPath("campaign.bin", &buf).(*BinaryWriter); !ok {
		t.Fatal(".bin path did not select the binary writer")
	}
	if _, ok := NewWriterForPath("campaign.jsonl", &buf).(*JSONLWriter); !ok {
		t.Fatal(".jsonl path did not select the JSONL writer")
	}
	if _, ok := NewWriterForPath("campaign", &buf).(*JSONLWriter); !ok {
		t.Fatal("extensionless path did not default to JSONL")
	}
}

func TestWriteArchiveBinaryRoundTrip(t *testing.T) {
	a := NewArchive()
	for _, rec := range testRecords(t, 96) {
		if err := a.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := a.WriteArchiveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != a.Len() {
		t.Fatalf("round trip lost records: %d -> %d", a.Len(), b.Len())
	}
	for _, board := range a.Boards() {
		ra, rb := a.Records(board), b.Records(board)
		for i := range ra {
			if !sameRecord(ra[i], rb[i]) {
				t.Fatalf("board %d record %d differs after round trip", board, i)
			}
		}
	}
}

// TestContinueBinaryWriterV1 is the checkpoint-resume seam: a v1 archive
// interrupted between records and reopened for append through
// ContinueBinaryWriterV1 must read back as one continuous stream, with
// Offset/Records tracking the recovery truncation point.
func TestContinueBinaryWriterV1(t *testing.T) {
	recs := testRecords(t, 129)
	var buf bytes.Buffer
	w := NewBinaryWriterV1(&buf)
	for _, rec := range recs[:4] {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Append the rest as a resumed session: no second magic.
	cw := ContinueBinaryWriterV1(&buf)
	for _, rec := range recs[4:] {
		if err := cw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewBinaryReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Offset(); got != int64(len(BinaryMagic)) {
		t.Fatalf("Offset() after magic = %d, want %d", got, len(BinaryMagic))
	}
	for i := range recs {
		var rec Record
		if err := r.Read(&rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !sameRecord(rec, recs[i]) {
			t.Fatalf("record %d differs after continued write", i)
		}
	}
	var rec Record
	if err := r.Read(&rec); err != io.EOF {
		t.Fatalf("want io.EOF after %d records, got %v", len(recs), err)
	}
	if got := r.Records(); got != uint64(len(recs)) {
		t.Fatalf("Records() = %d, want %d", got, len(recs))
	}
	if got := r.Offset(); got != int64(buf.Len()) {
		t.Fatalf("Offset() at EOF = %d, want %d", got, buf.Len())
	}
}
