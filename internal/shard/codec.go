// Package shard fans one assessment campaign across worker processes.
//
// The paper's rig pumps 16 boards in one process; fleet-scale studies
// (thousands of CPUs/GPUs in Van Aubel et al., OS-level deployments in
// Kietzmann et al.) need the device population partitioned across
// workers. This package provides the wire protocol and the coordinator:
// the device list is split into contiguous shards, each shard is served
// by a worker process (cmd/shardworker over stdin/stdout, or an
// in-process goroutine over an io.Pipe for tests) running its slice
// through the same streaming engine sources, and the coordinator merges
// the shard streams back into one measurement stream. Each device's
// measurements stay in capture order within its shard, which is all the
// engine's per-device accumulators require — so a sharded campaign is
// bit-identical to the single-process one.
//
// The protocol is length-prefixed frames over any reliable byte stream:
//
//	frame := type(1 byte) | length(uint32 BE) | payload(length bytes)
//
// Control payloads are JSON; measurement payloads are BATCHES of binary
// records — each entry a 4-byte little-endian global device index
// followed by one store.Record in the store package's binary encoding
// (fixed header + raw bitvec words), many records per frame. The binary
// codec is the same one the `.bin` archives use, so wire transport and
// archive storage share one record definition; protocol v1 carried one
// JSON record per frame, which cost one marshal/unmarshal and a hex
// round trip per measurement (see DESIGN.md §5).
//
// Session flow (coordinator → worker unless noted):
//
//	hello{Spec}            configuration: sim spec or archive path
//	← helloAck{Devices}    worker's total device view (archive: board count)
//	assign{Lo,Hi}          the shard's global device index range
//	measure{Month,Size,Workers}   one evaluation window request
//	← recordBatch*         binary record batches, Size × (Hi−Lo)
//	                       records in total (less any pruned devices)
//	← end{Month,Records}   window complete
//	← error{Code,Message}  instead of end: typed failure
//	prune{Indices}         (screening) stop measuring these devices
//	← pruneAck
//	shutdown               clean exit (closing the stream at a frame
//	                       boundary is the equivalent, and what the
//	                       coordinator's Close does — a farewell frame
//	                       could block on a busy worker's full pipe)
package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/bitvec"
	"repro/internal/store"
)

// Protocol is the wire protocol version carried in the handshake; a
// worker refuses a mismatch so a stale shardworker binary fails loudly
// instead of mis-decoding frames. Version 2 replaced the per-record JSON
// measurement frames of version 1 with batched binary record payloads.
// Version 3 made assignments contiguous ranges instead of index lists
// (a million-device shard is two ints, not a 7 MB JSON array), let the
// measure-done frame carry the shard's profile assignment, and added
// between-month device pruning (screening). Version 4 carries the
// simulated source's configuration as one opaque encoded spec instead of
// a mode and seven spec fields. Version 5 drops the months exchange:
// the coordinator's process lists an archive's months from its own
// index, so a worker only measures and prunes.
const Protocol = 5

// Frame types. Type 5 was protocol v1's per-record JSON frame and types
// 8 and 9 the months exchange of v4 and earlier; they are retired, not
// recycled.
const (
	frameHello       byte = 1  // coordinator → worker: Spec
	frameHelloAck    byte = 2  // worker → coordinator: helloAck
	frameAssign      byte = 3  // coordinator → worker: assignment
	frameMeasure     byte = 4  // coordinator → worker: measureRequest
	frameEnd         byte = 6  // worker → coordinator: endOfWindow
	frameError       byte = 7  // worker → coordinator: errorFrame
	frameShutdown    byte = 10 // coordinator → worker: clean exit, no payload
	frameRecordBatch byte = 11 // worker → coordinator: batched binary records
	framePrune       byte = 12 // coordinator → worker: pruneRequest
	framePruneAck    byte = 13 // worker → coordinator: prune applied, no payload
)

// maxFrame bounds a frame payload. Record batches flush at
// batchFrameTarget (64 KiB), far below the bound; control payloads are
// smaller still. The bound keeps a corrupt length prefix from
// turning into a giant allocation.
const maxFrame = 1 << 24

// batchFrameTarget is the flush threshold for record-batch frames: a
// batch is written once its payload reaches this size, so a 1 KiB read
// window rides ~60 records per frame instead of one — the wire cost per
// record is amortised memcpy, not a frame header and a syscall. A frame
// may exceed the target by one record (the batcher flushes after the
// append that crosses it).
const batchFrameTarget = 60 * 1024

// Typed protocol errors, matchable with errors.Is.
var (
	// ErrCodec reports a malformed frame (bad length, bad payload).
	ErrCodec = errors.New("shard: malformed frame")
	// ErrProtocol reports a well-formed frame that violates the session
	// flow (unexpected type, version mismatch, wrong device count).
	ErrProtocol = errors.New("shard: protocol violation")
	// ErrWorker reports a worker that died or became unreachable
	// mid-campaign (closed pipe, crashed subprocess).
	ErrWorker = errors.New("shard: worker failure")
	// ErrClosed reports use of a coordinator after Close (or after a
	// failure tore the session down).
	ErrClosed = errors.New("shard: coordinator closed")
)

// Spec is the handshake payload: everything a worker needs to build its
// measurement source. It rides the wire as JSON, so a worker process is
// fully configured by its coordinator — cmd/shardworker takes no flags.
// Exactly one of Sim and ArchivePath is set, and that choice is the
// worker's mode.
type Spec struct {
	Protocol int `json:"protocol"`
	// Sim is the encoded configuration of a simulated source (direct
	// chips or the full rig). This package never interprets it: the
	// worker's backend builder decodes and validates it.
	Sim json.RawMessage `json:"sim,omitempty"`
	// ArchivePath is the binary measurement archive to replay (v1 or
	// v2, detected by the magic; JSONL is refused). The path must be
	// readable by the worker process.
	ArchivePath string `json:"archive_path,omitempty"`
}

// Validate checks the spec a worker received.
func (s Spec) Validate() error {
	if s.Protocol != Protocol {
		return fmt.Errorf("%w: protocol %d, worker speaks %d", ErrProtocol, s.Protocol, Protocol)
	}
	if (len(s.Sim) > 0) == (s.ArchivePath != "") {
		return fmt.Errorf("%w: spec needs exactly one of a sim spec and an archive path", ErrProtocol)
	}
	return nil
}

// helloAck is the worker's handshake reply.
type helloAck struct {
	Protocol int `json:"protocol"`
	// Devices is the worker's view of the TOTAL device population (the
	// spec's device count, or the archive's board count) — the
	// coordinator cross-checks all workers agree before partitioning.
	Devices int `json:"devices"`
}

// assignment hands a worker its shard: the half-open GLOBAL device
// index range [Lo, Hi). Partition always produces contiguous ascending
// shards, so the range IS the assignment — protocol v2 shipped the
// expanded index list, which serialised a million-device shard into a
// multi-megabyte JSON array before a single chip was built.
type assignment struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// measureRequest asks for one evaluation window over the assigned shard.
type measureRequest struct {
	Month int `json:"month"`
	Size  int `json:"size"`
	// Workers is this shard's slice of the campaign's sampling
	// parallelism budget (0: unbounded, one worker per logical CPU).
	Workers int `json:"workers"`
}

// endOfWindow closes one measure exchange. On the FIRST window of a
// fleet campaign it additionally carries the shard's profile breakdown
// data — the fleet's profile names and one byte per assigned device
// (local order, base64 on the wire) — so the coordinator merges the
// per-shard assignments its workers already computed instead of
// re-deriving a million-device assignment centrally.
type endOfWindow struct {
	Month   int `json:"month"`
	Records int `json:"records"`
	// Profiles / ProfileIdx are the shard's ProfileAssignment, sent with
	// the first measure-done only (empty afterwards, and always empty for
	// plain-profile campaigns).
	Profiles   []string `json:"profiles,omitempty"`
	ProfileIdx []byte   `json:"profile_idx,omitempty"`
}

// pruneRequest tells a worker to stop measuring the given GLOBAL device
// indices (all within its assignment) from the next measure on — the
// screening decision, fanned out between months. The worker answers
// with a bare framePruneAck so the coordinator knows the prune landed
// before it requests the next window.
type pruneRequest struct {
	Indices []int `json:"indices"`
}

// errorFrame reports a worker-side failure. Code carries the typed error
// class across the process boundary (see ErrorCode / RemoteError).
type errorFrame struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Worker-error codes carried by errorFrame. The core layer maps them
// back onto its typed assessment errors so errors.Is works across the
// process boundary.
const (
	CodeConfig      = "config"
	CodeShortWindow = "short-window"
	CodeInternal    = "internal"
)

// RemoteError is a worker-reported failure, decoded from an error frame.
type RemoteError struct {
	Shard   int    // shard index that reported it
	Code    string // one of the Code* constants
	Message string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("shard %d: worker error (%s): %s", e.Shard, e.Code, e.Message)
}

// WriteFrame writes one frame. Concurrent writers must serialise
// externally (the worker loop and the coordinator both do).
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: %d-byte payload exceeds the %d-byte frame bound", ErrCodec, len(payload), maxFrame)
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame. io.EOF is returned verbatim at a clean
// frame boundary (peer closed); a mid-frame EOF is ErrCodec. Each call
// returns a freshly allocated payload; loops that read many frames use
// a frameReader to reuse the buffer.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	fr := frameReader{r: r}
	return fr.next()
}

// frameReader reads frames like ReadFrame but reuses one payload buffer
// across calls — the coordinator's measure loop reads thousands of
// record batches per window and must not allocate one payload slice per
// frame. The returned payload is valid only until the next call.
type frameReader struct {
	r   io.Reader
	buf []byte
}

func (fr *frameReader) next() (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(fr.r, hdr[:1]); err != nil {
		return 0, nil, err
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated header: %v", ErrCodec, err)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("%w: %d-byte payload exceeds the %d-byte frame bound", ErrCodec, n, maxFrame)
	}
	if n == 0 {
		return hdr[0], nil, nil
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	payload = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated %d-byte payload: %v", ErrCodec, n, err)
	}
	return hdr[0], payload, nil
}

// writeJSON marshals v and writes it as one frame of the given type.
func writeJSON(w io.Writer, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCodec, err)
	}
	return WriteFrame(w, typ, payload)
}

// decodeJSON unmarshals a control payload.
func decodeJSON(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("%w: %v", ErrCodec, err)
	}
	return nil
}

// AppendBatchRecord appends one batch entry — the global device index
// (uint32 LE, matching the binary codec's endianness) followed by the
// record in the store's binary encoding — to a record-batch payload.
// With sufficient capacity it does not allocate; the worker's batcher
// reuses pooled frame buffers across windows.
func AppendBatchRecord(dst []byte, device int, rec store.Record) ([]byte, error) {
	if device < 0 {
		return nil, fmt.Errorf("%w: negative device index %d", ErrCodec, device)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(device))
	out, err := store.AppendRecordBinary(dst, rec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	return out, nil
}

// BatchDecoder decodes record-batch payloads. It keeps one payload
// vector per device, reused across batches, so the steady-state decode
// path allocates nothing: decoded records alias the per-device
// scratch, which is exactly the engine Sink contract (pattern
// storage may be reused between deliveries to the same device; consumers
// that retain a pattern must clone it).
type BatchDecoder struct {
	data map[int]*bitvec.Vector
}

// NewBatchDecoder returns an empty batch decoder.
func NewBatchDecoder() *BatchDecoder {
	return &BatchDecoder{data: make(map[int]*bitvec.Vector)}
}

// Decode walks one record-batch payload in order, invoking fn for every
// entry. The record handed to fn reuses the decoder's per-device payload
// storage; fn errors abort the walk. A malformed entry is ErrCodec.
func (d *BatchDecoder) Decode(payload []byte, fn func(device int, rec store.Record) error) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty record batch", ErrCodec)
	}
	for off := 0; off < len(payload); {
		if len(payload)-off < 4 {
			return fmt.Errorf("%w: %d trailing bytes in record batch", ErrCodec, len(payload)-off)
		}
		device := int(binary.LittleEndian.Uint32(payload[off:]))
		rec := store.Record{Data: d.data[device]}
		n, err := store.DecodeRecord(payload[off+4:], &rec)
		if err != nil {
			return fmt.Errorf("%w: batch entry at offset %d: %v", ErrCodec, off, err)
		}
		d.data[device] = rec.Data
		off += 4 + n
		if err := fn(device, rec); err != nil {
			return err
		}
	}
	return nil
}
