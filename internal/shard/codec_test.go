package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/store"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		typ     byte
		payload []byte
	}{
		{frameHello, []byte(`{"protocol":2}`)},
		{frameShutdown, nil},
		{frameRecordBatch, bytes.Repeat([]byte{0xa5}, 4096)},
		{frameEnd, []byte{}},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		if err := WriteFrame(&buf, c.typ, c.payload); err != nil {
			t.Fatalf("write type %d: %v", c.typ, err)
		}
	}
	for _, c := range cases {
		typ, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read type %d: %v", c.typ, err)
		}
		if typ != c.typ || !bytes.Equal(payload, c.payload) {
			t.Fatalf("round trip: got (%d, %d bytes), want (%d, %d bytes)", typ, len(payload), c.typ, len(c.payload))
		}
	}
	if _, _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	// type 1, length 0xFFFFFFFF: must refuse before allocating.
	data := []byte{1, 0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadFrame(bytes.NewReader(data)); !errors.Is(err, ErrCodec) {
		t.Fatalf("oversize frame: err = %v, want ErrCodec", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, frameRecordBatch, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(full[:cut])); !errors.Is(err, ErrCodec) {
			t.Fatalf("cut at %d: err = %v, want ErrCodec", cut, err)
		}
	}
}

func TestRecordBatchRoundTrip(t *testing.T) {
	mkRec := func(board, fill int) store.Record {
		v := bitvec.New(100)
		for j := fill; j < 100; j += 5 {
			v.Set(j, true)
		}
		return store.Record{
			Board: board,
			Layer: board % 2,
			Seq:   uint64(42 + fill),
			Cycle: uint64(99 + fill),
			Wall:  time.Date(2017, 5, 8, 0, 0, fill, 0, time.UTC),
			Data:  v,
		}
	}
	// Interleave two devices in one batch: order must be preserved and
	// each device's payload storage must be reused across its entries.
	type entry struct {
		device int
		rec    store.Record
	}
	entries := []entry{
		{7, mkRec(11, 0)}, {9, mkRec(12, 1)}, {7, mkRec(11, 2)}, {9, mkRec(12, 3)}, {7, mkRec(11, 4)},
	}
	var payload []byte
	var err error
	for _, e := range entries {
		if payload, err = AppendBatchRecord(payload, e.device, e.rec); err != nil {
			t.Fatal(err)
		}
	}

	dec := NewBatchDecoder()
	i := 0
	seenData := map[int]*bitvec.Vector{}
	err = dec.Decode(payload, func(device int, rec store.Record) error {
		want := entries[i]
		if device != want.device {
			t.Fatalf("entry %d: device = %d, want %d", i, device, want.device)
		}
		w := want.rec
		if rec.Board != w.Board || rec.Layer != w.Layer || rec.Seq != w.Seq ||
			rec.Cycle != w.Cycle || !rec.Wall.Equal(w.Wall) || !rec.Data.Equal(w.Data) {
			t.Fatalf("entry %d round trip: got %+v, want %+v", i, rec, w)
		}
		if prev, ok := seenData[device]; ok && prev != rec.Data {
			t.Fatalf("entry %d: device %d payload storage was not reused", i, device)
		}
		seenData[device] = rec.Data
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(entries) {
		t.Fatalf("decoded %d of %d entries", i, len(entries))
	}

	// Malformed batches are ErrCodec: empty, trailing garbage, negative
	// device on encode.
	if err := dec.Decode(nil, func(int, store.Record) error { return nil }); !errors.Is(err, ErrCodec) {
		t.Fatalf("empty batch: err = %v, want ErrCodec", err)
	}
	if err := dec.Decode(payload[:len(payload)-2], func(int, store.Record) error { return nil }); !errors.Is(err, ErrCodec) {
		t.Fatalf("truncated batch: err = %v, want ErrCodec", err)
	}
	if err := dec.Decode(payload[:3], func(int, store.Record) error { return nil }); !errors.Is(err, ErrCodec) {
		t.Fatalf("3-byte batch: err = %v, want ErrCodec", err)
	}
	if _, err := AppendBatchRecord(nil, -1, entries[0].rec); !errors.Is(err, ErrCodec) {
		t.Fatalf("negative device: err = %v, want ErrCodec", err)
	}

	// A sink error aborts the walk at that entry.
	sinkErr := errors.New("sink says no")
	count := 0
	err = dec.Decode(payload, func(int, store.Record) error {
		count++
		if count == 2 {
			return sinkErr
		}
		return nil
	})
	if !errors.Is(err, sinkErr) || count != 2 {
		t.Fatalf("sink abort: err = %v after %d entries, want sinkErr after 2", err, count)
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"sim", Spec{Protocol: Protocol, Sim: json.RawMessage(`{"devices":4}`)}, true},
		{"archive", Spec{Protocol: Protocol, ArchivePath: "a.jsonl"}, true},
		{"bad protocol", Spec{Protocol: Protocol + 1, Sim: json.RawMessage(`{"devices":4}`)}, false},
		{"neither", Spec{Protocol: Protocol}, false},
		{"both", Spec{Protocol: Protocol, Sim: json.RawMessage(`{"devices":4}`), ArchivePath: "a.jsonl"}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok {
			if err == nil {
				t.Errorf("%s: invalid spec accepted", c.name)
			} else if !errors.Is(err, ErrProtocol) {
				t.Errorf("%s: err = %v, want ErrProtocol", c.name, err)
			}
		}
	}
}

func TestPartition(t *testing.T) {
	cases := []struct {
		total, shards int
		want          [][]int
	}{
		{4, 1, [][]int{{0, 1, 2, 3}}},
		{4, 2, [][]int{{0, 1}, {2, 3}}},
		{5, 2, [][]int{{0, 1}, {2, 3, 4}}},
		{8, 7, [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6, 7}}},
	}
	for _, c := range cases {
		got, err := Partition(c.total, c.shards)
		if err != nil {
			t.Fatalf("Partition(%d, %d): %v", c.total, c.shards, err)
		}
		// Every device appears exactly once, in ascending contiguous
		// shards — the invariant bit-identical replays rely on.
		seen := 0
		for i, idx := range got {
			for j, d := range idx {
				if d != seen {
					t.Fatalf("Partition(%d, %d) shard %d position %d = %d, want %d", c.total, c.shards, i, j, d, seen)
				}
				seen++
			}
		}
		if seen != c.total {
			t.Fatalf("Partition(%d, %d) covers %d devices", c.total, c.shards, seen)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("Partition(%d, %d) = %v, want %v", c.total, c.shards, got, c.want)
		}
	}
	for _, bad := range [][2]int{{0, 1}, {4, 0}, {3, 4}} {
		if _, err := Partition(bad[0], bad[1]); !errors.Is(err, ErrProtocol) {
			t.Fatalf("Partition(%d, %d): err = %v, want ErrProtocol", bad[0], bad[1], err)
		}
	}
}

func TestRemoteErrorMessage(t *testing.T) {
	err := &RemoteError{Shard: 3, Code: CodeShortWindow, Message: "board 5 has 10 records"}
	for _, want := range []string{"shard 3", CodeShortWindow, "board 5"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}
