package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/shard"
	"repro/internal/store"
)

// This file is the engine's side of sharded execution: the worker
// backends that serve one shard of the device population through the
// shard protocol (ServeShardWorker — what cmd/shardworker and the
// in-process test transport run), and ShardedSource — the coordinator
// wrapped as a core.Source, so Assessment.Run over N worker processes
// produces bit-identical Results to the single-process path.

// ErrShardWorker reports a shard worker that died or became unreachable
// mid-campaign. It aliases the shard package's typed error so callers
// can match it without importing the protocol package.
var ErrShardWorker = shard.ErrWorker

// shardErrorCode maps a worker-side error onto a wire code so the typed
// class survives the process boundary.
func shardErrorCode(err error) string {
	switch {
	case errors.Is(err, ErrConfig):
		return shard.CodeConfig
	case errors.Is(err, ErrShortWindow):
		return shard.CodeShortWindow
	default:
		return shard.CodeInternal
	}
}

// remoteCodeErr is the inverse mapping, applied by the coordinator side.
var remoteCodeErr = map[string]error{
	shard.CodeConfig:      ErrConfig,
	shard.CodeShortWindow: ErrShortWindow,
}

// mapShardErr re-types a coordinator error: worker-reported error frames
// carry their class as a wire code, which is folded back onto the
// assessment's typed errors so errors.Is works across process
// boundaries. Transport-level failures already wrap ErrShardWorker.
func mapShardErr(err error) error {
	if err == nil {
		return nil
	}
	var re *shard.RemoteError
	if errors.As(err, &re) {
		if base, ok := remoteCodeErr[re.Code]; ok {
			return fmt.Errorf("%w: %v", base, err)
		}
	}
	return err
}

// ServeShardWorker runs one worker session over rw: it receives its
// Spec in the handshake, builds the matching measurement backend (sim,
// rig or archive) and serves measure and prune requests until shutdown.
// This is the entire body of cmd/shardworker, and what
// InProcessShardTransport runs on a goroutine for tests.
func ServeShardWorker(ctx context.Context, rw io.ReadWriter) error {
	return shard.Serve(ctx, rw, shard.ServerConfig{
		Build:     buildShardBackend,
		ErrorCode: shardErrorCode,
	})
}

// buildShardBackend constructs the measurement backend for a handshake
// spec. A sim handshake carries an encoded SimSpec, validated here so an
// invalid spec fails the handshake before any assignment; the backend
// opens it once the assignment arrives.
func buildShardBackend(spec shard.Spec) (shard.Backend, error) {
	if spec.ArchivePath != "" {
		archive, err := OpenArchiveSource(spec.ArchivePath)
		if err != nil {
			return nil, err
		}
		return &archiveShardBackend{archive: archive}, nil
	}
	var sim SimSpec
	if err := json.Unmarshal(spec.Sim, &sim); err != nil {
		return nil, fmt.Errorf("%w: shard sim spec: %v", ErrConfig, err)
	}
	if err := sim.Validate(); err != nil {
		return nil, err
	}
	if sim.Rig {
		return &rigShardBackend{spec: sim}, nil
	}
	return &simShardBackend{spec: sim}, nil
}

// simShardBackend serves a shard of simulated chips: it opens the
// handshake spec over the assigned GLOBAL indices, so each chip derives
// from the campaign seed by its global index and the shard's streams are
// bit-identical to the same devices in a single-process source. A lazy
// spec builds chips on demand inside the measuring worker slots — the
// worker's resident array state is O(sampling workers), not O(shard
// devices), which is what lets a million-device fleet shard across a
// handful of ordinary processes.
type simShardBackend struct {
	spec    SimSpec
	indices []int
	src     *SimSource
	emit    func(device int, rec store.Record) error
}

func (b *simShardBackend) Devices() int { return b.spec.Devices }

func (b *simShardBackend) Assign(indices []int) error {
	if err := validAssignment(indices, b.spec.Devices); err != nil {
		return err
	}
	spec := b.spec
	spec.Indices = indices
	src, err := openAs[*SimSource](spec)
	if err != nil {
		return err
	}
	b.src, b.indices = src, indices
	// The source's tap builds each record envelope from the global index.
	// One Measure runs at a time per worker (the protocol is a
	// request/response loop), so the emit field is safe.
	b.src.SetTap(func(rec store.Record) error { return b.emit(rec.Board, rec) })
	return nil
}

// ProfileAssignment reports the shard's slice of the fleet's profile
// assignment (local order) — shipped to the coordinator in the first
// measure-done frame; a plain-profile shard reports nothing. A one-profile
// fleet reports, as SimSource does, so screening agrees across layouts.
func (b *simShardBackend) ProfileAssignment() ([]string, []uint8) {
	if b.spec.Fleet == nil {
		return nil, nil
	}
	return b.spec.Fleet.ProfileNames(), b.spec.Fleet.AssignmentIndices(b.spec.Seed, b.indices)
}

// Prune maps the screening decision's GLOBAL indices onto the shard's
// local namespace and forwards it to the source. Assignments are
// contiguous ascending ranges, so the mapping is an offset.
func (b *simShardBackend) Prune(globals []int) error {
	return pruneLocal(b.src, b.indices, globals)
}

// pruneLocal maps global device indices onto a shard's local namespace
// (indices is the contiguous ascending assignment) and prunes them.
func pruneLocal(src DevicePruner, indices []int, globals []int) error {
	if len(indices) == 0 {
		return fmt.Errorf("%w: prune before assignment", ErrConfig)
	}
	lo := indices[0]
	locals := make([]int, len(globals))
	for i, g := range globals {
		d := g - lo
		if d < 0 || d >= len(indices) {
			return fmt.Errorf("%w: pruned device %d outside shard assignment [%d, %d)", ErrConfig, g, lo, lo+len(indices))
		}
		locals[i] = d
	}
	return src.PruneDevices(locals)
}

// Measure samples the shard's arrays; the records leave through the
// source's tap, whose envelopes carry the rig's month-to-cycle mapping,
// so a tapped sharded sim campaign writes a replayable archive.
func (b *simShardBackend) Measure(ctx context.Context, month, size, workers int, emit func(device int, rec store.Record) error) error {
	b.emit = emit
	defer func() { b.emit = nil }()
	b.src.SetWorkers(workers)
	return b.src.Measure(ctx, month, size, discardSink)
}

// rigShardBackend serves a shard of rig boards. The rig is one
// physically coupled instrument — two master layers sharing a power
// switch and cycle counter — so every worker simulates the FULL rig's
// power sequence and bus traffic, but samples only its shard's chips:
// the other boards are muted (harness.Rig.Mute), keeping their bus
// timing and error draws while serving blank windows nobody forwards.
// Sharding the rig shards sampling, record forwarding and downstream
// evaluation, not the instrument, so per-board record streams are
// bit-identical to a single-process rig run by construction.
type rigShardBackend struct {
	spec SimSpec
	src  *RigSource
	emit func(device int, rec store.Record) error
}

func (b *rigShardBackend) Devices() int { return b.spec.Devices }

func (b *rigShardBackend) Assign(indices []int) error {
	if err := validAssignment(indices, b.spec.Devices); err != nil {
		return err
	}
	src, err := openAs[*RigSource](b.spec)
	if err != nil {
		return err
	}
	assigned := make([]bool, b.spec.Devices)
	for _, g := range indices {
		assigned[g] = true
	}
	for g, ok := range assigned {
		if !ok {
			if err := src.rig.Mute(g); err != nil {
				return err
			}
		}
	}
	// The record tap sees only the shard's boards. One Measure runs at a
	// time per worker (the protocol is a request/response loop), so the
	// emit field is safe.
	src.SetTap(func(rec store.Record) error { return b.emit(rec.Board, rec) })
	b.src = src
	return nil
}

// Prune screens boards out of the campaign. Rig board indices ARE global
// device indices (every worker simulates the full instrument), so the
// decision forwards without translation; the rig keeps cycling pruned
// boards to preserve the coupled instrument's timing and every
// survivor's bits.
func (b *rigShardBackend) Prune(globals []int) error {
	return b.src.PruneDevices(globals)
}

func (b *rigShardBackend) Measure(ctx context.Context, month, size, workers int, emit func(device int, rec store.Record) error) error {
	b.emit = emit
	defer func() { b.emit = nil }()
	b.src.SetWorkers(workers)
	return b.src.Measure(ctx, month, size, discardSink)
}

// archiveShardBackend replays a shard of an archive's boards. The
// worker opens the archive once (board discovery must agree across
// workers, and on a v2 archive the open reads only the footer), then
// Assign narrows the replay view to the assigned boards over the same
// indexed reader: no records are ever materialised — each Measure seeks
// straight to the shard's (board, month) segments. The backend holds the
// archive file open for the session; shard.Serve closes it on exit.
type archiveShardBackend struct {
	archive *ArchiveSource // the whole archive: board order is global device order
	indices []int
	src     *ArchiveSource // replay view over the assigned boards only
}

func (b *archiveShardBackend) Devices() int { return b.archive.Devices() }

func (b *archiveShardBackend) Assign(indices []int) error {
	if err := validAssignment(indices, b.archive.Devices()); err != nil {
		return err
	}
	shardBs := make([]int, len(indices))
	for d, g := range indices {
		shardBs[d] = b.archive.boards[g]
	}
	b.indices = indices
	b.src = newArchiveSourceOver(b.archive.ir, shardBs)
	return nil
}

// Prune stops replaying the screened-out boards' segments.
func (b *archiveShardBackend) Prune(globals []int) error {
	return pruneLocal(b.src, b.indices, globals)
}

// Measure replays the shard's boards with the worker's parallelism
// budget; emit is safe for concurrent calls across distinct devices and
// encodes the record synchronously, so the decoder's one payload vector
// can be reused between a board's deliveries.
func (b *archiveShardBackend) Measure(ctx context.Context, month, size, workers int, emit func(device int, rec store.Record) error) error {
	b.src.SetWorkers(workers)
	return b.src.replay(ctx, month, size, func(d int, rec *store.Record) error {
		return emit(b.indices[d], *rec)
	})
}

// Close releases the archive file when the worker session ends.
func (b *archiveShardBackend) Close() error { return b.archive.Close() }

// validAssignment checks a shard assignment: ascending, unique, in
// range.
func validAssignment(indices []int, devices int) error {
	if len(indices) == 0 {
		return fmt.Errorf("%w: empty shard assignment", ErrConfig)
	}
	for i, g := range indices {
		if g < 0 || g >= devices {
			return fmt.Errorf("%w: assigned device %d outside population of %d", ErrConfig, g, devices)
		}
		if i > 0 && g <= indices[i-1] {
			return fmt.Errorf("%w: shard assignment must be ascending, got %v", ErrConfig, indices)
		}
	}
	return nil
}

// InProcessShardTransport runs each worker as a goroutine inside the
// coordinator's process, connected over an io.Pipe pair — the test (and
// single-binary) transport. The wire protocol, framing and backends are
// exactly the subprocess path; only the byte stream differs.
func InProcessShardTransport() shard.Transport {
	return func(i, n int) (io.ReadWriteCloser, error) {
		coordR, workerW := io.Pipe()
		workerR, coordW := io.Pipe()
		go func() {
			// Serve ends on shutdown/EOF; tear down the worker's pipe
			// ends so the coordinator never blocks on a finished worker.
			_ = ServeShardWorker(context.Background(), pipeConn{r: workerR, w: workerW})
			workerW.Close()
			workerR.Close()
		}()
		return pipeConn{r: coordR, w: coordW}, nil
	}
}

// pipeConn glues an io.Pipe pair into an io.ReadWriteCloser.
type pipeConn struct {
	r *io.PipeReader
	w *io.PipeWriter
}

func (c pipeConn) Read(b []byte) (int, error)  { return c.r.Read(b) }
func (c pipeConn) Write(b []byte) (int, error) { return c.w.Write(b) }
func (c pipeConn) Close() error {
	werr := c.w.Close()
	rerr := c.r.Close()
	if werr != nil {
		return werr
	}
	return rerr
}

// ShardedSource fans a campaign's device population across worker
// processes and merges their record streams back into one Source: the
// engine sees exactly the per-device measurement streams of the
// single-process sources, so Assessment.Run produces bit-identical
// Results for any shard count. Like RigSource it can tap the merged
// record stream (archive collection while sharded); unlike the
// in-process sources it holds worker connections, so callers that build
// one directly must Close it when done.
type ShardedSource struct {
	recordTap
	co *shard.Coordinator
}

func newShardedSource(spec shard.Spec, shards int, transport shard.Transport) (*ShardedSource, error) {
	if transport == nil {
		transport = InProcessShardTransport()
	}
	co, err := shard.NewCoordinator(spec, shards, transport)
	if err != nil {
		return nil, mapShardErr(err)
	}
	return &ShardedSource{co: co}, nil
}

// Devices returns the total device population across all shards.
func (s *ShardedSource) Devices() int { return s.co.Devices() }

// ProfileAssignment returns the campaign's profile assignment as merged
// from the workers' first measure-done frames (ProfileAssigner): the
// shards compute their slices' assignments while measuring and stream
// them back, so the coordinator never re-derives a million-device
// assignment centrally. Nil until the first window completes, and
// always nil for plain-profile campaigns — the engine resolves profile
// names after the first Measure, which is exactly when this is ready.
func (s *ShardedSource) ProfileAssignment() ([]string, []uint8) {
	return s.co.ProfileAssignment()
}

// DeviceProfileNames returns the fleet's per-device profile names
// (ProfileLister), expanded from the worker-streamed assignment; nil
// before the first window and for plain-profile sharded campaigns.
func (s *ShardedSource) DeviceProfileNames() []string {
	names, idx := s.co.ProfileAssignment()
	if names == nil {
		return nil
	}
	out := make([]string, len(idx))
	for d, i := range idx {
		out[d] = names[i]
	}
	return out
}

// PruneDevices fans a screening decision out to the owning shards
// (DevicePruner): each worker stops measuring its pruned devices from
// the next window on. Engine device indices ARE global device indices
// on the sharded source.
func (s *ShardedSource) PruneDevices(indices []int) error {
	return mapShardErr(s.co.Prune(indices))
}

// SetWorkers sets the campaign's TOTAL sampling-parallelism budget,
// split across the shards (stream.SplitBudget) so -workers keeps one
// meaning whether the campaign runs in one process or many.
func (s *ShardedSource) SetWorkers(n int) { s.co.SetWorkers(n) }

// Measure fans the window request out to every shard and forwards the
// merged stream to sink. A worker crash surfaces as an error wrapping
// ErrShardWorker; worker-reported failures keep their typed class
// (ErrConfig, ErrShortWindow, ...) across the process boundary.
func (s *ShardedSource) Measure(ctx context.Context, month, size int, sink Sink) error {
	return mapShardErr(s.co.Measure(ctx, month, size, func(device int, rec store.Record) error {
		if err := s.tee(rec); err != nil {
			return err
		}
		return sink(device, rec.Data)
	}))
}

// Close shuts every worker down. The engine does not close sources;
// whoever built the ShardedSource owns its lifetime.
func (s *ShardedSource) Close() error { return s.co.Close() }

// ShardedArchiveSource is a ShardedSource over archive replay, with the
// MonthLister behaviour of ArchiveSource. The workers replay only their
// own boards; the coordinator's process opens the archive too and lists
// months from that one index with the archive's one completeness rule,
// so a sharded listing equals the single-process one by construction.
// It is a distinct type (not a mode flag) so the unbounded sim/rig
// sharded sources do not present a MonthLister they cannot serve.
type ShardedArchiveSource struct {
	*ShardedSource
	// index is the whole archive, opened in this process for month
	// discovery and its description. A field, not an embed: both types
	// have Measure, Devices and Close.
	index *ArchiveSource
}

// NewShardedArchiveSource shards replay of the binary archive at path.
// The archive is opened here first, so a JSONL or empty archive is
// refused before any worker starts. Every worker must be able to read
// the path (workers on the same host, or a shared filesystem); the
// workers' board discovery is cross-checked during the handshake.
func NewShardedArchiveSource(path string, shards int, transport shard.Transport) (*ShardedArchiveSource, error) {
	index, err := OpenArchiveSource(path)
	if err != nil {
		return nil, err
	}
	src, err := newShardedSource(shard.Spec{ArchivePath: path}, shards, transport)
	if err != nil {
		index.Close()
		return nil, err
	}
	return &ShardedArchiveSource{ShardedSource: src, index: index}, nil
}

// Boards returns the archive's board IDs in device-index order.
func (s *ShardedArchiveSource) Boards() []int { return s.index.Boards() }

// Info describes the archive being replayed.
func (s *ShardedArchiveSource) Info() store.ArchiveInfo { return s.index.Info() }

// AvailableMonths lists the months every board holds a complete window
// for — ArchiveSource.AvailableMonths on the whole archive, so lost
// records surface as ErrShortWindow and an interrupted tail is dropped
// exactly as in a single-process replay.
func (s *ShardedArchiveSource) AvailableMonths(windowSize int) ([]int, error) {
	return s.index.AvailableMonths(windowSize)
}

// AvailableMonthsSurviving is AvailableMonths under screening semantics
// (SurvivingMonthLister), as ArchiveSource.AvailableMonthsSurviving.
func (s *ShardedArchiveSource) AvailableMonthsSurviving(windowSize int) ([]int, error) {
	return s.index.AvailableMonthsSurviving(windowSize)
}

// Close shuts every worker down and releases the archive file.
func (s *ShardedArchiveSource) Close() error {
	return errors.Join(s.ShardedSource.Close(), s.index.Close())
}
