package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/store"
)

// Backend is a worker's measurement side: one shard of the device
// population behind the protocol loop. Implementations live next to the
// engine sources (internal/core builds sim, rig and archive backends
// from a Spec); this package only speaks the protocol.
type Backend interface {
	// Devices returns the worker's view of the TOTAL device population —
	// echoed in the handshake ack so the coordinator can cross-check all
	// workers agree before partitioning.
	Devices() int
	// Assign hands the backend its shard: global device indices,
	// ascending. Called once, before any Measure.
	Assign(indices []int) error
	// Measure streams one evaluation window for the assigned shard:
	// exactly size records per assigned device at the given month,
	// delivered to emit with the GLOBAL device index. Months arrive in
	// ascending order (stateful silicon ages monotonically). emit is
	// safe for concurrent calls across distinct devices.
	Measure(ctx context.Context, month, size, workers int, emit func(device int, rec store.Record) error) error
}

// Pruner is implemented by backends that can stop measuring a subset of
// their assigned devices mid-campaign (screening). Indices are GLOBAL
// device indices within the backend's assignment; pruning is monotonic
// and applies from the next Measure.
type Pruner interface {
	Prune(indices []int) error
}

// ProfileReporter is implemented by backends that know the fleet
// profile of each assigned device. The worker ships the assignment in
// its first measure-done frame (names once, one byte per device in
// local assignment order), which is how the coordinator assembles a
// fleet campaign's profile breakdown without re-deriving it centrally.
type ProfileReporter interface {
	// ProfileAssignment returns (names, idx) with one idx byte per
	// assigned device, or (nil, nil) when the campaign has no profile
	// breakdown (single profile).
	ProfileAssignment() ([]string, []uint8)
}

// ServerConfig parameterises a worker's protocol loop.
type ServerConfig struct {
	// Build constructs the backend from the handshake spec.
	Build func(Spec) (Backend, error)
	// ErrorCode maps a backend error onto a wire code (Code*) so typed
	// errors survive the process boundary. Nil maps everything to
	// CodeInternal.
	ErrorCode func(error) string
}

// Serve runs one worker session over rw: handshake, assignment, then
// measure and prune requests until a shutdown frame or EOF. A clean
// shutdown (or the coordinator closing the connection at a frame
// boundary) returns nil; protocol violations and transport failures
// return an error. Backend failures do NOT end the session — they are
// reported to the coordinator as error frames, which tears the session
// down from its side.
func Serve(ctx context.Context, rw io.ReadWriter, cfg ServerConfig) error {
	if cfg.Build == nil {
		return fmt.Errorf("%w: ServerConfig without a backend builder", ErrProtocol)
	}
	code := cfg.ErrorCode
	if code == nil {
		code = func(error) string { return CodeInternal }
	}
	var (
		wmu          sync.Mutex // serialises frame writes (Measure emits concurrently)
		backend      Backend
		assigned     bool
		sentProfiles bool
	)
	// Backends may hold resources open for the session (the archive
	// backend keeps its indexed file open for seek-based replay); release
	// them however the session ends.
	defer func() {
		if c, ok := backend.(io.Closer); ok {
			c.Close()
		}
	}()
	write := func(typ byte, v any) error {
		wmu.Lock()
		defer wmu.Unlock()
		if v == nil {
			return WriteFrame(rw, typ, nil)
		}
		return writeJSON(rw, typ, v)
	}
	fail := func(err error) error {
		return write(frameError, errorFrame{Code: code(err), Message: err.Error()})
	}
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("shard: worker: %w", err)
		}
		typ, payload, err := ReadFrame(rw)
		if errors.Is(err, io.EOF) {
			return nil // coordinator closed the session
		}
		if err != nil {
			return fmt.Errorf("shard: worker: %w", err)
		}
		switch typ {
		case frameHello:
			var spec Spec
			if err := decodeJSON(payload, &spec); err != nil {
				return err
			}
			if err := spec.Validate(); err != nil {
				if werr := fail(err); werr != nil {
					return werr
				}
				return err
			}
			b, err := cfg.Build(spec)
			if err != nil {
				if werr := fail(err); werr != nil {
					return werr
				}
				return err
			}
			backend = b
			if err := write(frameHelloAck, helloAck{Protocol: Protocol, Devices: b.Devices()}); err != nil {
				return err
			}
		case frameAssign:
			if backend == nil {
				return fmt.Errorf("%w: assign before hello", ErrProtocol)
			}
			var a assignment
			if err := decodeJSON(payload, &a); err != nil {
				return err
			}
			if a.Lo < 0 || a.Hi <= a.Lo {
				return fmt.Errorf("%w: assignment range [%d, %d)", ErrProtocol, a.Lo, a.Hi)
			}
			idx := make([]int, a.Hi-a.Lo)
			for i := range idx {
				idx[i] = a.Lo + i
			}
			if err := backend.Assign(idx); err != nil {
				if werr := fail(err); werr != nil {
					return werr
				}
				return err
			}
			assigned = true
		case frameMeasure:
			if backend == nil || !assigned {
				return fmt.Errorf("%w: measure before hello/assign", ErrProtocol)
			}
			var req measureRequest
			if err := decodeJSON(payload, &req); err != nil {
				return err
			}
			bw := newBatchWriter(rw, &wmu)
			err := backend.Measure(ctx, req.Month, req.Size, req.Workers, bw.add)
			if err == nil {
				err = bw.flush()
			}
			sent := bw.sent
			bw.release()
			if err != nil {
				if werr := fail(err); werr != nil {
					return werr
				}
				continue // the coordinator decides whether the session ends
			}
			end := endOfWindow{Month: req.Month, Records: sent}
			if !sentProfiles {
				// First window: ship the shard's profile assignment so the
				// coordinator can merge breakdowns instead of re-deriving
				// them. One byte per device, base64 inside the JSON frame.
				sentProfiles = true
				if pr, ok := backend.(ProfileReporter); ok {
					if names, idx := pr.ProfileAssignment(); len(names) > 0 {
						end.Profiles, end.ProfileIdx = names, idx
					}
				}
			}
			if err := write(frameEnd, end); err != nil {
				return err
			}
		case framePrune:
			if backend == nil || !assigned {
				return fmt.Errorf("%w: prune before hello/assign", ErrProtocol)
			}
			var req pruneRequest
			if err := decodeJSON(payload, &req); err != nil {
				return err
			}
			pr, ok := backend.(Pruner)
			if !ok {
				if werr := fail(fmt.Errorf("backend %T cannot prune devices", backend)); werr != nil {
					return werr
				}
				continue
			}
			if err := pr.Prune(req.Indices); err != nil {
				if werr := fail(err); werr != nil {
					return werr
				}
				continue
			}
			if err := write(framePruneAck, nil); err != nil {
				return err
			}
		case frameShutdown:
			return nil
		default:
			return fmt.Errorf("%w: unexpected frame type %d from coordinator", ErrProtocol, typ)
		}
	}
}

// framePool recycles record-batch buffers across windows (and across
// the worker goroutines of an in-process transport), so the steady-state
// measure path never allocates frame storage.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, batchFrameTarget+8*1024)
	return &b
}}

// batchWriter accumulates record-batch entries in a pooled buffer and
// writes one frameRecordBatch whenever the payload crosses
// batchFrameTarget. add is the worker's emit callback: it copies the
// record synchronously (callers may reuse the pattern's storage) and is
// safe for concurrent use across devices. Entry order is append order,
// so each device's records stay in capture order — the merge invariant
// the coordinator forwards to the engine.
type batchWriter struct {
	w   io.Writer
	wmu *sync.Mutex // the session's frame-write lock

	mu   sync.Mutex // guards buf and sent; taken before wmu on flush
	buf  []byte
	sent int
}

func newBatchWriter(w io.Writer, wmu *sync.Mutex) *batchWriter {
	return &batchWriter{w: w, wmu: wmu, buf: (*framePool.Get().(*[]byte))[:0]}
}

func (b *batchWriter) add(device int, rec store.Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf, err := AppendBatchRecord(b.buf, device, rec)
	if err != nil {
		return err
	}
	b.buf = buf
	b.sent++
	if len(b.buf) >= batchFrameTarget {
		return b.flushLocked()
	}
	return nil
}

func (b *batchWriter) flushLocked() error {
	if len(b.buf) == 0 {
		return nil
	}
	b.wmu.Lock()
	err := WriteFrame(b.w, frameRecordBatch, b.buf)
	b.wmu.Unlock()
	b.buf = b.buf[:0]
	return err
}

// flush writes any buffered tail — called after a successful Measure,
// before the end-of-window frame.
func (b *batchWriter) flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushLocked()
}

// release returns the buffer to the pool. The writer must not be used
// afterwards.
func (b *batchWriter) release() {
	b.mu.Lock()
	buf := b.buf
	b.buf = nil
	b.mu.Unlock()
	if buf != nil {
		buf = buf[:0]
		framePool.Put(&buf)
	}
}
