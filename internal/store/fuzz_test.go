package store

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/bitvec"
)

// FuzzRecordJSONRoundTrip: any constructible record must survive the wire
// format (hex payload, RFC3339Nano timestamps) bit for bit — the property
// the archive-replay-equals-live guarantee rests on.
func FuzzRecordJSONRoundTrip(f *testing.F) {
	f.Add(0, 0, uint64(0), uint64(0), int64(0), []byte{0x00})
	f.Add(3, 1, uint64(42), uint64(1000), time.Date(2017, 2, 8, 0, 0, 0, 0, time.UTC).UnixNano(), []byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(15, 1, ^uint64(0), ^uint64(0), int64(1<<62), bytes.Repeat([]byte{0xff}, 128))
	f.Add(-1, -1, uint64(7), uint64(9), int64(-1), []byte{0x80, 0x01})
	f.Fuzz(func(t *testing.T, board, layer int, seq, cycle uint64, nsec int64, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			t.Skip()
		}
		v, err := bitvec.FromBytes(data, len(data)*8)
		if err != nil {
			t.Fatalf("FromBytes rejected its own full-width packing: %v", err)
		}
		rec := Record{Board: board, Layer: layer, Seq: seq, Cycle: cycle, Wall: time.Unix(0, nsec).UTC(), Data: v}
		wire, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Record
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("unmarshal of own wire format: %v\n%s", err, wire)
		}
		if back.Board != rec.Board || back.Layer != rec.Layer || back.Seq != rec.Seq || back.Cycle != rec.Cycle {
			t.Fatalf("metadata round trip: got %+v, want %+v", back, rec)
		}
		if !back.Wall.Equal(rec.Wall) {
			t.Fatalf("wall time round trip: got %v, want %v", back.Wall, rec.Wall)
		}
		if !back.Data.Equal(rec.Data) {
			t.Fatalf("payload round trip differs")
		}
	})
}

// FuzzReadJSONL fuzzes the JSONL converter, the one JSONL reader:
// arbitrary input must convert or fail cleanly (never panic); whatever
// converts must carry exactly the records the independent sequential
// JSONL oracle parses, and must re-export to JSONL that converts back
// to the same content.
func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	v, _ := bitvec.FromBytes([]byte{0xa5, 0x5a}, 16)
	_ = jw.Write(Record{Board: 1, Layer: 0, Seq: 3, Cycle: 9, Wall: Epoch, Data: v})
	_ = jw.Write(Record{Board: 1, Layer: 0, Seq: 4, Cycle: 10, Wall: Epoch.Add(time.Second), Data: v})
	_ = jw.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"board":0}`))
	f.Add([]byte(`{"board":0,"layer":0,"seq":0,"cycle":0,"wall":"2017-02-08T00:00:00Z","bits":8,"data":"ff"}`))
	f.Add([]byte("not json at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := convertJSONL(data)
		if err != nil {
			return // rejected cleanly
		}
		oracle, err := ReadJSONL(bytes.NewReader(data))
		if err == nil {
			assertSameArchive(t, oracle, a)
		}
		var out bytes.Buffer
		if err := a.WriteArchiveJSONL(&out); err != nil {
			t.Fatalf("re-serialising a converted archive: %v", err)
		}
		b, err := convertJSONL(out.Bytes())
		if err != nil {
			t.Fatalf("re-converting own serialisation: %v", err)
		}
		assertSameArchive(t, a, b)
	})
}

// assertSameArchive fails unless a and b hold the same records, board by
// board, in order.
func assertSameArchive(t *testing.T, a, b *Archive) {
	t.Helper()
	if b.Len() != a.Len() {
		t.Fatalf("archives hold %d and %d records", a.Len(), b.Len())
	}
	for _, board := range a.Boards() {
		ra, rb := a.Records(board), b.Records(board)
		if len(ra) != len(rb) {
			t.Fatalf("board %d: %d vs %d records", board, len(ra), len(rb))
		}
		for i := range ra {
			if !sameRecord(ra[i], rb[i]) {
				t.Fatalf("board %d record %d differs", board, i)
			}
		}
	}
}
