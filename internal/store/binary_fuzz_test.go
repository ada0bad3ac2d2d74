package store

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bitvec"
)

// FuzzRecordBinaryRoundTrip: any constructible record must survive the
// binary codec bit for bit — the property the shard wire format and the
// `.bin` replay guarantee rest on. The binary wall clock is nanoseconds
// since the Unix epoch, so timestamps are drawn through time.Unix
// (the codec's exact domain), like the JSON fuzz target draws through
// RFC3339Nano's.
func FuzzRecordBinaryRoundTrip(f *testing.F) {
	f.Add(0, 0, uint64(0), uint64(0), int64(0), []byte{0x00})
	f.Add(3, 1, uint64(42), uint64(1000), time.Date(2017, 2, 8, 0, 0, 0, 0, time.UTC).UnixNano(), []byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(15, 1, ^uint64(0), ^uint64(0), int64(1<<62), bytes.Repeat([]byte{0xff}, 128))
	f.Add(-1, -1, uint64(7), uint64(9), int64(-1), []byte{0x80, 0x01})
	f.Fuzz(func(t *testing.T, board, layer int, seq, cycle uint64, nsec int64, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			t.Skip()
		}
		// The header carries board/layer as int32 — the codec's domain.
		if int(int32(board)) != board || int(int32(layer)) != layer {
			t.Skip()
		}
		v, err := bitvec.FromBytes(data, len(data)*8)
		if err != nil {
			t.Fatalf("FromBytes rejected its own full-width packing: %v", err)
		}
		rec := Record{Board: board, Layer: layer, Seq: seq, Cycle: cycle, Wall: time.Unix(0, nsec).UTC(), Data: v}
		wire, err := AppendRecordBinary(nil, rec)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		back, n, err := decodeRecord(wire)
		if err != nil {
			t.Fatalf("decode of own wire format: %v", err)
		}
		if n != len(wire) {
			t.Fatalf("consumed %d of %d bytes", n, len(wire))
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

// FuzzReadBinary: arbitrary input must parse or fail cleanly (never
// panic, never allocate past the record bound), and whatever parses
// must re-serialise losslessly, with the serialisation a byte-exact
// fixed point — the v2 codec has one canonical form, reached after at
// most one round trip (v1 input upgrades on the first serialisation).
// Truncated and corrupt headers and footers must be rejected.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	v, _ := bitvec.FromBytes([]byte{0xa5, 0x5a}, 16)
	_ = bw.Write(Record{Board: 1, Layer: 0, Seq: 3, Cycle: 9, Wall: Epoch, Data: v})
	_ = bw.Write(Record{Board: 1, Layer: 0, Seq: 4, Cycle: 10, Wall: Epoch.Add(time.Second), Data: v})
	_ = bw.Flush()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-1]) // truncated index trailer
	var v1 bytes.Buffer
	v1w := NewBinaryWriterV1(&v1)
	_ = v1w.Write(Record{Board: 1, Layer: 0, Seq: 3, Cycle: 9, Wall: Epoch, Data: v})
	_ = v1w.Flush()
	f.Add(v1.Bytes())               // un-indexed v1 archive
	f.Add(v1.Bytes()[:v1.Len()-1])  // truncated v1 payload tail
	f.Add([]byte(BinaryMagic))      // empty v1 archive
	f.Add([]byte(BinaryMagicV2))    // v2 archive truncated before its footer
	f.Add([]byte("SRPUFA\x00\x03")) // future format version
	f.Add([]byte("not binary"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		var out bytes.Buffer
		if err := a.WriteArchiveBinary(&out); err != nil {
			t.Fatalf("re-serialising a parsed archive: %v", err)
		}
		b, err := ReadBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing own serialisation: %v", err)
		}
		if b.Len() != a.Len() {
			t.Fatalf("round trip lost records: %d -> %d", a.Len(), b.Len())
		}
		for _, board := range a.Boards() {
			ra, rb := a.Records(board), b.Records(board)
			if len(ra) != len(rb) {
				t.Fatalf("board %d: %d -> %d records", board, len(ra), len(rb))
			}
			for i := range ra {
				if !ra[i].Data.Equal(rb[i].Data) || !ra[i].Wall.Equal(rb[i].Wall) || ra[i].Seq != rb[i].Seq {
					t.Fatalf("board %d record %d differs after round trip", board, i)
				}
			}
		}
		// Serialisation is a fixed point: whatever WriteArchiveBinary
		// emits for a parsed archive, re-parsing and re-serialising must
		// reproduce byte for byte (accepted v1 input upgrades to v2 on
		// the first round, so only rounds two and later are canonical).
		var out2 bytes.Buffer
		if err := b.WriteArchiveBinary(&out2); err != nil {
			t.Fatalf("re-serialising the re-parse: %v", err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatalf("serialisation is not a fixed point")
		}
	})
}
