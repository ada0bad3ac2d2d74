package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/harness"
	"repro/internal/store"
	"repro/internal/stream"
)

// Sink receives the measurements of one evaluation window: the device
// index (0-based, dense) and the power-up pattern. Pattern storage may be
// reused between deliveries to the same device; sinks that retain a
// pattern must Clone it. Sinks must be safe for concurrent use across
// DISTINCT devices — sources are free to deliver devices in parallel or
// interleaved, but each device's measurements arrive in capture order.
type Sink func(device int, m *bitvec.Vector) error

// discardSink drops every measurement: the sink of a shard backend
// whose records leave through the source's tap.
var discardSink Sink = func(int, *bitvec.Vector) error { return nil }

// recordTap is the record tap every live source carries (SimSource,
// RigSource, ShardedSource).
type recordTap struct {
	mu  sync.Mutex
	tap func(store.Record) error
}

// SetTap installs a callback that receives every record the source
// measures, in addition to the assessment's own accumulators — e.g. a
// store.BinaryWriter archiving the campaign as it runs. Each board's
// records arrive in capture order; boards measured concurrently are
// serialised, so the tap is never called concurrently. A record's Data
// is the source's scratch, reused between a board's deliveries: a tap
// that retains it must Clone it (streaming writers encode in place).
func (t *recordTap) SetTap(tap func(store.Record) error) { t.tap = tap }

// tee hands rec to the tap, if one is set.
func (t *recordTap) tee(rec store.Record) error {
	if t.tap == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tap(rec)
}

// envelope tees every measurement of the month into the tap before it
// reaches sink, framed by the rig's envelope (harness.Timing.Envelope at
// the paper's timing): Board is the device's global index (indices maps
// local devices to global ones), Layer its half of the population of
// devices, and the device's i-th measurement of the month is the i-th
// power cycle of its layer's window. With no tap set, sink is returned
// unwrapped.
func (t *recordTap) envelope(month int, indices []int, devices int, sink Sink) Sink {
	if t.tap == nil {
		return sink
	}
	timing := harness.PaperTiming()
	seqs := make([]int, len(indices))
	return func(d int, m *bitvec.Vector) error {
		i := seqs[d] // per-device delivery is sequential; devices are distinct slots
		seqs[d]++
		g := indices[d]
		if err := t.tee(timing.Envelope(g, g*2/max(devices, 1), month, i, m)); err != nil {
			return err
		}
		return sink(d, m)
	}
}

// Source is where an assessment's measurements come from. The three
// built-in implementations — SimSource (direct sampling), RigSource (full
// measurement-rig simulation) and ArchiveSource (binary archive replay) —
// make offline evaluation and live campaigns the same call; external
// implementations (sharded, networked, condition-sweep) plug into the
// same engine.
type Source interface {
	// Devices returns the number of boards the source measures.
	Devices() int
	// Measure streams one evaluation window: exactly size measurements
	// per device at the given month, delivered to sink. The engine
	// visits months in ascending order; stateful sources (simulated
	// silicon ages monotonically) may rely on that. Measure must honour
	// ctx cancellation between measurements and return an error wrapping
	// ctx.Err() when interrupted.
	Measure(ctx context.Context, month, size int, sink Sink) error
}

// MonthLister is implemented by bounded sources (archive replay) that
// know which month indices they can serve. The engine consults it when no
// explicit month list is configured.
type MonthLister interface {
	// AvailableMonths returns the ascending month indices for which the
	// source holds a complete window of the given size on every device.
	AvailableMonths(windowSize int) ([]int, error)
}

// SurvivingMonthLister is the screened counterpart of MonthLister:
// AvailableMonthsSurviving treats a board with NO records in a month
// after the first complete one as legitimately absent (pruned by an
// earlier screening decision) instead of as lost data, so a screened
// campaign's archive still lists its complete months. Boards that hold
// SOME records but less than a window, and pruned boards that return,
// remain a defect.
type SurvivingMonthLister interface {
	AvailableMonthsSurviving(windowSize int) ([]int, error)
}

// WorkerSetter is implemented by sources whose window delivery can be
// parallelised; the assessment builder forwards its worker bound here.
type WorkerSetter interface {
	// SetWorkers bounds delivery parallelism. n <= 0 lifts the bound:
	// SimSource then runs one worker slot per logical CPU, RigSource one
	// capture and aging worker per logical CPU, ArchiveSource one
	// goroutine per board, and a ShardedSource leaves its shards
	// unbounded.
	SetWorkers(n int)
}

// RigSource routes every evaluation window through the full measurement
// rig simulation (masters, power switch, boot, I2C, record forwarding).
// The rig's records may additionally be copied to a tap, like every
// live source's: archive collection writes the archive while the
// assessment evaluates the same stream.
type RigSource struct {
	recordTap
	rig     *harness.Rig
	workers int          // capture and aging width; <= 0: one per logical CPU
	pool    *stream.Pool // nil: pump in the caller's goroutine
}

// Devices returns the number of boards on the rig, muted ones included.
func (s *RigSource) Devices() int { return len(s.rig.Boards()) }

// PruneDevices screens the given boards out of the campaign: the rig
// keeps cycling them (the physical rig would — a screened board is
// unplugged from collection, not from the power sequence, so the shared
// masters' timing and every other board's bits are untouched), but it
// mutes them (harness.Rig.Mute): their chips are released and their
// records reach neither the sink nor the archive tap.
func (s *RigSource) PruneDevices(indices []int) error {
	for _, d := range indices {
		if d < 0 || d >= s.Devices() {
			return fmt.Errorf("%w: prune index %d of %d boards", ErrConfig, d, s.Devices())
		}
	}
	return s.rig.Mute(indices...)
}

// SetWorkers bounds how many boards' power-up captures and aging run at
// once (harness.Rig.SetWorkers; <= 0: one per logical CPU). It does not
// apply under SetPool.
func (s *RigSource) SetWorkers(n int) { s.workers = n }

// SetPool routes the rig's window pump through a shared scheduler: the
// pump (one job per Measure call) then counts against the pool's worker
// budget and samples every capture itself. This is how a multi-campaign
// service keeps N concurrent rig campaigns inside ONE global sampling
// budget; a nil or absent pool pumps in the caller's goroutine with
// SetWorkers' width.
func (s *RigSource) SetPool(p *stream.Pool) { s.pool = p }

// Measure ages every board to the month boundary and streams the month's
// rig window to the record tap and the sink; the rig buffers nothing.
// Each record carries the rig's envelope (harness.Timing.Envelope): its
// Wall is the power-on edge that latched the pattern, not the instant
// the read-out reached the sink.
// With SetPool, the pump runs as one job on the shared pool (the service's
// global budget) and samples inline; otherwise it runs in the caller's
// goroutine and spreads captures and aging over SetWorkers' width.
func (s *RigSource) Measure(ctx context.Context, month, size int, sink Sink) error {
	if s.pool != nil {
		s.rig.SetWorkers(1)
	} else {
		s.rig.SetWorkers(s.workers)
	}
	pump := func() error {
		if err := s.rig.AgeTo(float64(month)); err != nil {
			return err
		}
		return s.rig.StreamWindow(size, month, func(rec store.Record) error {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: board %d: %w", rec.Board, err)
			}
			if err := s.tee(rec); err != nil {
				return err
			}
			return sink(rec.Board, rec.Data)
		})
	}
	if s.pool != nil {
		return s.pool.Run(pump)
	}
	return pump()
}

// ArchiveSource replays a measurement archive — the offline-evaluation
// path of cmd/evaluate, promoted to a first-class source so archive
// replay and live campaigns are the same Assessment call. Device index d
// is the d-th board present in the archive (board IDs may be sparse).
//
// Replay is seek-based: the source sits on a store.IndexedReader, so an
// indexed (v2) archive streams each month's window straight from the
// mapped file — the whole archive is never decoded into memory — and the
// per-board segment decodes are fanned across the source's worker pool.
// A v1 archive gets the same interface through the reader's one-pass
// fallback scan. JSONL is not a replay format: store.UpgradeFile
// converts a JSONL file once, store.OpenIndexedBytes an in-memory image.
type ArchiveSource struct {
	ir     *store.IndexedReader
	boards []int
	pool   *stream.Pool
	pruned []bool // screened-out boards; nil until PruneDevices
}

func newArchiveSourceOver(ir *store.IndexedReader, boards []int) *ArchiveSource {
	return &ArchiveSource{ir: ir, boards: boards, pool: stream.NewPool(0)}
}

// NewArchiveSource replays the archive behind an open indexed reader
// and takes ownership of it: the source's Close closes the reader. An
// archive without records is ErrConfig (the reader is closed).
func NewArchiveSource(ir *store.IndexedReader) (*ArchiveSource, error) {
	if ir.TotalRecords() == 0 {
		ir.Close()
		return nil, fmt.Errorf("%w: empty archive", ErrConfig)
	}
	return newArchiveSourceOver(ir, ir.Boards()), nil
}

// OpenArchiveSource opens the binary archive file at path for
// seek-based replay (a v2 index is used directly, a v1 archive is
// scanned once to build one). A JSONL archive fails with ErrConfig
// wrapping store.ErrJSONL: convert it once with `evaluate -index`
// (store.UpgradeFile). The caller must Close the source.
func OpenArchiveSource(path string) (*ArchiveSource, error) {
	ir, err := store.OpenIndexedFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	src, err := NewArchiveSource(ir)
	if err != nil {
		return nil, fmt.Errorf("%w %s", err, path)
	}
	return src, nil
}

// Devices returns the number of boards present in the archive.
func (s *ArchiveSource) Devices() int { return len(s.boards) }

// Boards returns the archive's board IDs in device-index order.
func (s *ArchiveSource) Boards() []int { return append([]int(nil), s.boards...) }

// Info describes the archive backing the source.
func (s *ArchiveSource) Info() store.ArchiveInfo { return s.ir.Info() }

// SetWorkers bounds the per-board replay parallelism (<= 0: one
// goroutine per board).
func (s *ArchiveSource) SetWorkers(n int) { s.pool = stream.NewPool(n) }

// PruneDevices stops replaying the given (device-index) boards — the
// replay side of the screening contract. Replaying a screened campaign's
// archive with the same screening config reproduces the original prune
// sequence, and the skipped boards' segments are never decoded (or even
// read: seek-based replay touches only surviving boards' byte ranges).
func (s *ArchiveSource) PruneDevices(indices []int) error {
	if s.pruned == nil {
		s.pruned = make([]bool, len(s.boards))
	}
	for _, d := range indices {
		if d < 0 || d >= len(s.pruned) {
			return fmt.Errorf("%w: prune index %d of %d boards", ErrConfig, d, len(s.pruned))
		}
		s.pruned[d] = true
	}
	return nil
}

// Close releases the underlying archive file (no-op for in-memory
// images). The engine does not close sources; whoever opened the
// archive owns its lifetime.
func (s *ArchiveSource) Close() error { return s.ir.Close() }

// AvailableMonths returns the ascending month indices at which EVERY
// board holds a complete window of the given size — the paper's "first
// 1,000 consecutive measurements after midnight on the 8th" selection,
// bounded to the month so a collection gap can never borrow the next
// month's records. A month in which no board holds a window (the rig was
// off) is simply not evaluated, and a partial month at the tail of the
// archive (collection interrupted mid-window) is dropped; but a month
// complete on SOME boards and short on others while later months are
// complete is a data defect (lost records) and is reported as an error
// naming the month and boards, never silently skipped.
//
// Discovery is pure index arithmetic (per-board month record counts) —
// on a v2 archive no record is decoded.
func (s *ArchiveSource) AvailableMonths(windowSize int) ([]int, error) {
	return s.discoverMonths(windowSize, false)
}

// AvailableMonthsSurviving is AvailableMonths under screening
// semantics: after the first complete month, a board with NO records
// was legitimately pruned by an earlier screening decision, not lost,
// and stays pruned. The first complete month must hold every board; a
// board with some records but less than a window, or a pruned board
// that returns, makes its month partial exactly like a short board
// under the strict lister.
func (s *ArchiveSource) AvailableMonthsSurviving(windowSize int) ([]int, error) {
	return s.discoverMonths(windowSize, true)
}

// MaxArchiveMonths caps the month index the archive listers walk to:
// 50 years past the campaign epoch. Archives are external input, and a
// single corrupt far-future timestamp must not turn discovery into a
// ~100k-iteration scan.
const MaxArchiveMonths = 600

// discoverMonths walks the archive's months under the completeness rule.
// A partial month is the archive's interrupted tail unless a complete
// month follows it; then records were lost, and the first partial month
// is reported.
func (s *ArchiveSource) discoverMonths(windowSize int, screened bool) ([]int, error) {
	last := -1
	for _, b := range s.boards {
		if m, ok := s.ir.LastMonth(b); ok && m > last {
			last = m
		}
	}
	last = min(last, MaxArchiveMonths)
	rule := newMonthRule(s.ir, s.boards, windowSize, screened)
	var months []int
	partialMonth, partialBoards := -1, []int(nil)
	for m := 0; m <= last; m++ {
		complete, short := rule.classify(m)
		switch {
		case complete:
			if partialMonth >= 0 {
				return nil, fmt.Errorf("%w: month %d is short on boards %v (want %d records) but month %d is complete — records were lost mid-archive",
					ErrShortWindow, partialMonth, partialBoards, windowSize, m)
			}
			months = append(months, m)
		case len(short) > 0 && partialMonth < 0:
			partialMonth, partialBoards = m, short
		}
	}
	return months, nil
}

// DoneMonths returns the longest prefix of months (ascending) that the
// archive holds complete for boards under the completeness rule of the
// listers — strict, or screened as in AvailableMonthsSurviving. It is
// what a campaign over boards can resume from its checkpoint: the
// listers report a partial month followed by a complete one as lost
// data, while a resume keeps the prefix before it.
func DoneMonths(ir *store.IndexedReader, boards []int, window int, screened bool, months []int) []int {
	rule := newMonthRule(ir, boards, window, screened)
	var done []int
	for _, m := range months {
		if complete, _ := rule.classify(m); !complete {
			break
		}
		done = append(done, m)
	}
	return done
}

// monthRule is the archive's one month-completeness rule, shared by the
// listers and by checkpoint recovery (DoneMonths). It is fed months in
// ascending order and carries the state a screened walk needs.
type monthRule struct {
	ir       *store.IndexedReader
	boards   []int
	window   int
	screened bool
	started  bool   // a month was complete: later absences are prunes
	pruned   []bool // by position in boards
}

func newMonthRule(ir *store.IndexedReader, boards []int, window int, screened bool) *monthRule {
	return &monthRule{ir: ir, boards: boards, window: window, screened: screened, pruned: make([]bool, len(boards))}
}

// classify reports whether month m is complete: every board holds at
// least a window, except — screened, after the first complete month —
// boards with no records, which an earlier month's decision pruned. A
// pruned board never returns. An incomplete month lists the boards that
// make it partial in short; short is empty when no board holds a window
// (the rig was off, or the window exceeds what was archived), and the
// month is skipped rather than partial. A complete month is accepted:
// its absent boards stay pruned from then on.
func (r *monthRule) classify(m int) (complete bool, short []int) {
	full := false
	var absent []int
	for i, b := range r.boards {
		n := r.ir.MonthRecords(b, m)
		full = full || n >= r.window
		switch {
		case n == 0 && (r.pruned[i] || r.screened && r.started):
			absent = append(absent, i)
		case n < r.window || r.pruned[i]:
			short = append(short, b)
		}
	}
	if !full {
		return false, nil
	}
	if len(short) > 0 {
		return false, short
	}
	r.started = true
	for _, i := range absent {
		r.pruned[i] = true
	}
	return true, nil
}

// replay streams the month's windows with full record envelopes, one
// segment job per surviving board on the source's pool, each with its
// own decoder. The *store.Record (and its Data, the decoder's one
// reused vector) is valid only inside fn — retainers must Clone, the
// same reuse rule as the engine Sink.
func (s *ArchiveSource) replay(ctx context.Context, month, size int, fn func(device int, rec *store.Record) error) error {
	jobs := make([]func() error, 0, len(s.boards))
	for d, b := range s.boards {
		if s.pruned != nil && s.pruned[d] {
			continue
		}
		d, b := d, b
		jobs = append(jobs, func() error {
			if n := s.ir.MonthRecords(b, month); n < size {
				return fmt.Errorf("%w: board %d month %d: archive holds %d records in the month's window, want %d",
					ErrShortWindow, b, month, n, size)
			}
			var dec store.SegmentDecoder
			i := 0
			return s.ir.ReadSegment(&dec, b, month, size, func(rec *store.Record) error {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: board %d measurement %d: %w", b, i, err)
				}
				i++
				return fn(d, rec)
			})
		})
	}
	return s.pool.Run(jobs...)
}

// Measure replays the month's window per board, bounded to the month's
// records like AvailableMonths. Boards decode in parallel on the
// source's pool; each board's measurements arrive in capture order.
func (s *ArchiveSource) Measure(ctx context.Context, month, size int, sink Sink) error {
	return s.replay(ctx, month, size, func(d int, rec *store.Record) error {
		return sink(d, rec.Data)
	})
}
