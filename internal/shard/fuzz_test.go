package shard

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/store"
)

// seedFrames returns valid wire encodings for the fuzz corpora: one
// frame of every type the protocol speaks or has spoken.
func seedFrames(t interface{ Fatal(...any) }) [][]byte {
	v := bitvec.New(32)
	v.Set(5, true)
	rec := store.Record{Board: 3, Seq: 9, Wall: store.Epoch.Add(time.Hour), Data: v}
	batch, err := AppendBatchRecord(nil, 3, rec)
	if err != nil {
		t.Fatal(err)
	}
	if batch, err = AppendBatchRecord(batch, 4, rec); err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{}
	add := func(typ byte, payload []byte) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	add(frameHello, []byte(`{"protocol":5,"sim":{"devices":4,"seed":7}}`))
	add(frameHelloAck, []byte(`{"protocol":5,"devices":4}`))
	add(frameAssign, []byte(`{"indices":[0,1]}`))
	add(frameMeasure, []byte(`{"month":2,"size":100,"workers":3}`))
	add(frameRecordBatch, batch)
	add(frameEnd, []byte(`{"month":2,"records":200}`))
	add(frameError, []byte(`{"code":"short-window","message":"board 5"}`))
	// Types 8 and 9, the retired months exchange, stay in the corpus:
	// the codec frames them like any other byte.
	add(8, []byte(`{"window_size":100}`))
	add(9, []byte(`{"months":[0,1,2]}`))
	add(frameShutdown, nil)
	return frames
}

// FuzzFrameCodec decodes arbitrary bytes as a frame stream: ReadFrame
// must never panic, and every frame it accepts must re-encode to
// exactly the bytes it consumed (decode∘encode is the identity on the
// accepted language). Record-batch frames are additionally pushed
// through the batch decoder, which must not panic either.
func FuzzFrameCodec(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
	}
	// A two-frame stream and some degenerate inputs.
	frames := seedFrames(f)
	f.Add(append(append([]byte{}, frames[0]...), frames[4]...))
	f.Add([]byte{})
	f.Add([]byte{5, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		dec := NewBatchDecoder()
		offset := 0
		for {
			typ, payload, err := ReadFrame(r)
			if err != nil {
				return // malformed tails are fine; panics are not
			}
			consumed := len(data) - r.Len()
			var buf bytes.Buffer
			if werr := WriteFrame(&buf, typ, payload); werr != nil {
				t.Fatalf("accepted frame does not re-encode: %v", werr)
			}
			if !bytes.Equal(buf.Bytes(), data[offset:consumed]) {
				t.Fatalf("re-encoded frame differs from consumed bytes at offset %d", offset)
			}
			offset = consumed
			if typ == frameRecordBatch {
				// Must not panic; errors are fine (arbitrary bytes).
				checkBatchRoundTrip(t, dec, payload)
			}
		}
	})
}

// checkBatchRoundTrip pushes a batch payload through the decoder and,
// when it is accepted, asserts that re-encoding every decoded entry
// reproduces the payload byte for byte (decode∘encode is the identity
// on the accepted language — the binary codec has one canonical form).
func checkBatchRoundTrip(t *testing.T, dec *BatchDecoder, payload []byte) {
	t.Helper()
	var reenc []byte
	err := dec.Decode(payload, func(device int, rec store.Record) error {
		if rec.Data == nil {
			t.Fatal("decoder accepted a record without data")
		}
		var aerr error
		reenc, aerr = AppendBatchRecord(reenc, device, rec)
		if aerr != nil {
			t.Fatalf("accepted batch entry does not re-encode: %v", aerr)
		}
		return nil
	})
	if err != nil {
		return // rejected cleanly
	}
	if !bytes.Equal(reenc, payload) {
		t.Fatalf("batch round trip differs: %d bytes re-encoded vs %d consumed", len(reenc), len(payload))
	}
}

// FuzzRecordBatch decodes arbitrary bytes as a record-batch payload —
// the frame type a hostile or corrupt worker controls most directly.
// Accepted batches must re-encode to the identical bytes; the decoder's
// scratch reuse must never leak one record's bits into the next.
func FuzzRecordBatch(f *testing.F) {
	frames := seedFrames(f)
	f.Add(frames[4][5:]) // the record-batch frame's payload
	f.Add([]byte{0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0}, 44))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBatchRoundTrip(t, NewBatchDecoder(), data)
	})
}
