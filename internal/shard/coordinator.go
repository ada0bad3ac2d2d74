package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/store"
	"repro/internal/stream"
)

// Transport opens the byte stream to one worker. It is called once per
// shard with the shard index and the total shard count; Close on the
// returned connection must terminate the worker's session (closing the
// pipe of an in-process worker, or the stdin of a subprocess, which
// makes its Serve loop return).
type Transport func(shard, shards int) (io.ReadWriteCloser, error)

// Coordinator partitions a device population across workers and merges
// their measurement streams back into one. It is the process-level
// counterpart of stream.Pool: the pool schedules goroutines inside one
// process, the coordinator schedules worker processes.
//
// A Coordinator is constructed against a Spec and a Transport, performs
// the handshake/assignment with every worker eagerly, and then serves
// Measure and Prune calls until Close. The first failure (worker
// crash, protocol violation, sink error, cancellation) tears the whole
// session down: every connection is closed, which unblocks every
// in-flight reader, so no goroutine outlives the failing call.
type Coordinator struct {
	spec    Spec
	shards  int
	conns   []io.ReadWriteCloser
	lo, hi  []int // shard i serves global devices [lo[i], hi[i])
	alive   []int // devices not yet pruned per shard
	pruned  map[int]bool
	devices int

	// states holds each shard's persistent read-side scratch — frame
	// payload buffer and batch decoder — allocated once at session start
	// and reused by every window, so the steady-state merge loop costs no
	// per-month allocation.
	states []shardState

	// profNames/profIdx accumulate the campaign's profile assignment from
	// the workers' first measure-done frames (fleet campaigns only).
	profNames []string
	profIdx   []uint8
	profSeen  int            // shards whose assignment has arrived
	shardProf []shardProfile // raw per-shard payloads until all arrive

	mu      sync.Mutex
	workers int
	closed  bool
}

// shardState is one shard's read-side scratch, owned by that shard's
// forwarding goroutine during a Measure and by the coordinator loop
// otherwise (the protocol is strictly request/response per shard).
type shardState struct {
	fr  frameReader
	dec *BatchDecoder
}

// shardProfile is one shard's raw profile-assignment payload (names +
// one local-order byte per device), held until every shard's has
// arrived.
type shardProfile struct {
	names []string
	idx   []byte
	ok    bool
}

// NewCoordinator opens one connection per shard, handshakes the spec and
// assigns the device partition. The device population is what the
// workers report at hello: the archive's board count, or the sim spec's
// device count.
func NewCoordinator(spec Spec, shards int, transport Transport) (*Coordinator, error) {
	if transport == nil {
		return nil, fmt.Errorf("%w: nil transport", ErrProtocol)
	}
	if shards < 1 {
		return nil, fmt.Errorf("%w: need >= 1 shard, got %d", ErrProtocol, shards)
	}
	spec.Protocol = Protocol
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{spec: spec, shards: shards}
	if err := c.start(transport); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// start opens, handshakes and assigns every worker.
func (c *Coordinator) start(transport Transport) error {
	c.conns = make([]io.ReadWriteCloser, 0, c.shards)
	for i := 0; i < c.shards; i++ {
		conn, err := transport(i, c.shards)
		if err != nil {
			return fmt.Errorf("%w: shard %d: transport: %v", ErrWorker, i, err)
		}
		c.conns = append(c.conns, conn)
	}
	devices := -1
	for i, conn := range c.conns {
		if err := writeJSON(conn, frameHello, c.spec); err != nil {
			return fmt.Errorf("%w: shard %d: handshake: %v", ErrWorker, i, err)
		}
		var ack helloAck
		if err := c.expect(i, conn, frameHelloAck, &ack); err != nil {
			return err
		}
		if ack.Protocol != Protocol {
			return fmt.Errorf("%w: shard %d speaks protocol %d, coordinator speaks %d", ErrProtocol, i, ack.Protocol, Protocol)
		}
		switch {
		case devices < 0:
			devices = ack.Devices
		case ack.Devices != devices:
			return fmt.Errorf("%w: shard %d sees %d devices, shard 0 sees %d — workers disagree on the population", ErrProtocol, i, ack.Devices, devices)
		}
	}
	if devices < 1 || c.shards > devices {
		return fmt.Errorf("%w: cannot partition %d devices into %d shards", ErrProtocol, devices, c.shards)
	}
	c.lo = make([]int, c.shards)
	c.hi = make([]int, c.shards)
	c.alive = make([]int, c.shards)
	c.states = make([]shardState, c.shards)
	for i, conn := range c.conns {
		c.lo[i], c.hi[i] = i*devices/c.shards, (i+1)*devices/c.shards
		c.alive[i] = c.hi[i] - c.lo[i]
		c.states[i].fr.r = conn
		c.states[i].dec = NewBatchDecoder()
		if err := writeJSON(conn, frameAssign, assignment{Lo: c.lo[i], Hi: c.hi[i]}); err != nil {
			return fmt.Errorf("%w: shard %d: assign: %v", ErrWorker, i, err)
		}
	}
	c.devices = devices
	return nil
}

// expect reads the next frame from shard i and decodes it into v,
// mapping error frames and transport failures to typed errors.
func (c *Coordinator) expect(i int, conn io.Reader, want byte, v any) error {
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		return fmt.Errorf("%w: shard %d: %v", ErrWorker, i, err)
	}
	if typ == frameError {
		var ef errorFrame
		if derr := decodeJSON(payload, &ef); derr != nil {
			return fmt.Errorf("%w: shard %d: undecodable error frame: %v", ErrProtocol, i, derr)
		}
		return &RemoteError{Shard: i, Code: ef.Code, Message: ef.Message}
	}
	if typ != want {
		return fmt.Errorf("%w: shard %d: frame type %d, want %d", ErrProtocol, i, typ, want)
	}
	return decodeJSON(payload, v)
}

// Devices returns the total device population.
func (c *Coordinator) Devices() int { return c.devices }

// ProfileAssignment returns the campaign's merged fleet profile
// assignment — the distinct profile names plus one byte per global
// device — once every shard's first measure-done frame has delivered its
// slice; (nil, nil) before that, and always for plain-profile
// campaigns. The merge normalises each shard's name list onto shard 0's
// ordering, so heterogeneous workers cannot skew the breakdown.
func (c *Coordinator) ProfileAssignment() ([]string, []uint8) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.profSeen != c.shards || len(c.profNames) == 0 {
		return nil, nil
	}
	return c.profNames, c.profIdx
}

// Prune tells the owning shards to stop measuring the given GLOBAL
// device indices from the next window on — the screening fan-out. The
// call blocks until every affected worker acknowledges, so a following
// Measure cannot race its own prune. Pruning is monotonic; re-pruning a
// device is a no-op.
func (c *Coordinator) Prune(indices []int) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.pruned == nil {
		c.pruned = make(map[int]bool, len(indices))
	}
	byShard := make(map[int][]int)
	for _, g := range indices {
		if g < 0 || g >= c.devices {
			c.mu.Unlock()
			return fmt.Errorf("%w: prune index %d of %d devices", ErrProtocol, g, c.devices)
		}
		if c.pruned[g] {
			continue
		}
		c.pruned[g] = true
		// Contiguous equal partition: the owner is found by range scan
		// (shards is small; no arithmetic edge cases).
		for i := 0; i < c.shards; i++ {
			if g >= c.lo[i] && g < c.hi[i] {
				byShard[i] = append(byShard[i], g)
				c.alive[i]--
				break
			}
		}
	}
	c.mu.Unlock()
	for i, list := range byShard {
		if err := writeJSON(c.conns[i], framePrune, pruneRequest{Indices: list}); err != nil {
			c.Close()
			return fmt.Errorf("%w: shard %d: prune request: %v", ErrWorker, i, err)
		}
		typ, payload, err := c.states[i].fr.next()
		if err != nil {
			c.Close()
			return fmt.Errorf("%w: shard %d: prune ack: %v", ErrWorker, i, err)
		}
		switch typ {
		case framePruneAck:
		case frameError:
			var ef errorFrame
			if derr := decodeJSON(payload, &ef); derr != nil {
				c.Close()
				return fmt.Errorf("%w: shard %d: undecodable error frame: %v", ErrProtocol, i, derr)
			}
			c.Close()
			return &RemoteError{Shard: i, Code: ef.Code, Message: ef.Message}
		default:
			c.Close()
			return fmt.Errorf("%w: shard %d: frame type %d, want prune ack", ErrProtocol, i, typ)
		}
	}
	return nil
}

// SetWorkers sets the campaign's TOTAL sampling-parallelism budget; each
// subsequent Measure hands every shard its slice of it (per-shard pool
// budgeting via stream.SplitBudget). n <= 0 leaves every shard
// unbounded, the single-process default.
func (c *Coordinator) SetWorkers(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers = n
}

// Measure requests one evaluation window from every shard concurrently
// and forwards the merged record stream to sink. sink is called
// concurrently across DISTINCT devices (each device lives in exactly one
// shard, and each shard's frames are forwarded in order, so one device's
// records arrive sequentially in capture order — the engine's Sink
// contract). The first failure closes the whole session and the call
// reports it after every forwarding goroutine has drained.
func (c *Coordinator) Measure(ctx context.Context, month, size int, sink func(device int, rec store.Record) error) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	budget := stream.SplitBudget(c.workers, c.shards)
	c.mu.Unlock()

	// A cancelled context closes every connection: blocked readers fail
	// fast, worker Serve loops terminate on their dead pipes.
	watchdog := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			c.Close()
		case <-watchdog:
		}
	}()
	defer close(watchdog)

	errs := make([]error, c.shards)
	var wg sync.WaitGroup
	for i, conn := range c.conns {
		wg.Add(1)
		go func(i int, conn io.ReadWriteCloser) {
			defer wg.Done()
			if err := c.measureShard(i, conn, month, size, budget[i], sink); err != nil {
				errs[i] = err
				c.Close() // unblock the sibling readers
			}
		}(i, conn)
	}
	wg.Wait()
	c.mergeProfiles()
	err := errors.Join(errs...)
	if err == nil {
		return nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		// The read failures are fallout of the watchdog closing the
		// session; surface the cancellation itself.
		return fmt.Errorf("shard: month %d: %w", month, ctxErr)
	}
	return fmt.Errorf("shard: month %d: %w", month, err)
}

// storeShardProfiles stashes one shard's first-window profile payload.
func (c *Coordinator) storeShardProfiles(i int, names []string, idx []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shardProf == nil {
		c.shardProf = make([]shardProfile, c.shards)
	}
	if !c.shardProf[i].ok {
		c.shardProf[i] = shardProfile{names: names, idx: idx, ok: true}
	}
}

// mergeProfiles assembles the global profile assignment once every
// shard's payload has arrived: shard 0's name list is the canonical
// ordering and every other shard's idx bytes are remapped onto it, so
// the merged assignment is insensitive to per-worker name ordering.
// Malformed payloads (unknown name, out-of-range idx, wrong length)
// abandon the merge — the breakdown is an enrichment, not a correctness
// gate, and the engine treats a nil assignment as "no breakdown".
func (c *Coordinator) mergeProfiles() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.profSeen == c.shards || c.shardProf == nil {
		return
	}
	for i := range c.shardProf {
		if !c.shardProf[i].ok {
			return // not all shards have reported yet
		}
	}
	names := c.shardProf[0].names
	pos := make(map[string]uint8, len(names))
	for p, n := range names {
		pos[n] = uint8(p)
	}
	idx := make([]uint8, c.devices)
	for i := range c.shardProf {
		sp := c.shardProf[i]
		if len(sp.idx) != c.hi[i]-c.lo[i] {
			c.shardProf = nil
			return
		}
		remap := make([]uint8, len(sp.names))
		for p, n := range sp.names {
			g, ok := pos[n]
			if !ok {
				c.shardProf = nil
				return
			}
			remap[p] = g
		}
		for d, b := range sp.idx {
			if int(b) >= len(remap) {
				c.shardProf = nil
				return
			}
			idx[c.lo[i]+d] = remap[b]
		}
	}
	c.profNames, c.profIdx, c.profSeen = names, idx, c.shards
	c.shardProf = nil
}

// measureShard runs one shard's side of a Measure: request, then forward
// record-batch frames until the end frame. The shard's persistent state
// — frame payload buffer, the batch decoder's per-device payload vectors
// and its word scratch — is reused across windows AND months, so the
// steady-state merge loop is decode-in-place plus the sink call: no
// per-measurement and no per-month allocation. The sink sees each
// device's payload storage reused between that device's deliveries,
// which is the engine Sink contract. Delivery validation is a range
// check against the shard's contiguous assignment (pruned devices are
// caught by the record count: a pruned device's records would overshoot
// the shard's alive total).
func (c *Coordinator) measureShard(i int, conn io.ReadWriteCloser, month, size, workers int, sink func(device int, rec store.Record) error) error {
	if err := writeJSON(conn, frameMeasure, measureRequest{Month: month, Size: size, Workers: workers}); err != nil {
		return fmt.Errorf("%w: shard %d: measure request: %v", ErrWorker, i, err)
	}
	received := 0
	lo, hi := c.lo[i], c.hi[i]
	st := &c.states[i]
	forward := func(device int, rec store.Record) error {
		if device < lo || device >= hi {
			return fmt.Errorf("%w: shard %d delivered device %d outside its assignment [%d, %d)", ErrProtocol, i, device, lo, hi)
		}
		received++
		return sink(device, rec)
	}
	for {
		typ, payload, err := st.fr.next()
		if err != nil {
			return fmt.Errorf("%w: shard %d: %v", ErrWorker, i, err)
		}
		switch typ {
		case frameRecordBatch:
			if err := st.dec.Decode(payload, forward); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		case frameEnd:
			var end endOfWindow
			if err := decodeJSON(payload, &end); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			if wantTotal := size * c.alive[i]; end.Records != wantTotal || received != wantTotal {
				return fmt.Errorf("%w: shard %d month %d delivered %d of %d records", ErrProtocol, i, month, received, wantTotal)
			}
			if len(end.Profiles) > 0 {
				c.storeShardProfiles(i, end.Profiles, end.ProfileIdx)
			}
			return nil
		case frameError:
			var ef errorFrame
			if err := decodeJSON(payload, &ef); err != nil {
				return fmt.Errorf("%w: shard %d: undecodable error frame: %v", ErrProtocol, i, err)
			}
			return &RemoteError{Shard: i, Code: ef.Code, Message: ef.Message}
		default:
			return fmt.Errorf("%w: shard %d: frame type %d during measure", ErrProtocol, i, typ)
		}
	}
}

// Close closes every worker connection. An idle worker sees EOF at a
// frame boundary and exits cleanly; a mid-window worker sees its writes
// fail and winds down. No farewell frame is written — a busy worker is
// not reading, and a write into its full pipe would block Close (and
// the cancellation watchdog behind it) indefinitely. Idempotent and
// safe for concurrent use; after Close every coordinator call reports
// ErrClosed.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := c.conns
	c.mu.Unlock()
	var errs []error
	for _, conn := range conns {
		if err := conn.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
