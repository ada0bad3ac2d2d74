package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/keylife"
	"repro/internal/store"
	"repro/internal/stream"
)

// ErrNotFound reports an unknown campaign ID.
var ErrNotFound = errors.New("serve: no such campaign")

// ErrDraining reports a submission to a service that is shutting down.
var ErrDraining = errors.New("serve: service is draining, not accepting campaigns")

// Config parameterises the service.
type Config struct {
	// DataDir holds the per-campaign state files and checkpoint archives.
	DataDir string
	// Workers is the GLOBAL sampling budget shared by every concurrent
	// campaign: unsharded campaigns submit their measurement pumps to one
	// stream.Pool of this size, and sharded campaigns receive a
	// SplitBudget share of it at admission. 0 is unbounded.
	Workers int
	// MaxActive bounds how many campaigns measure concurrently; further
	// submissions queue in "submitted" until a slot frees. 0 is unlimited.
	MaxActive int
}

// Manager owns the service's campaigns: admission, execution under the
// global budget, continuous checkpointing, and resume of interrupted
// campaigns found in DataDir at startup. A Manager is safe for
// concurrent use; Close drains it.
type Manager struct {
	cfg  Config
	pool *stream.Pool

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string
	seq       int
	waiting   []*campaign // FIFO admission queue (MaxActive > 0)
	active    int         // campaigns holding an admission slot

	draining atomic.Bool
	wg       sync.WaitGroup
	ctx      context.Context
	cancel   context.CancelFunc
}

// NewManager creates the data directory, recovers every campaign state
// found in it — terminal campaigns become queryable history, interrupted
// ones transition to "checkpointed" and are immediately resumed — and
// starts accepting submissions.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("%w: service needs a data directory", core.ErrConfig)
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:       cfg,
		pool:      stream.NewPool(cfg.Workers),
		campaigns: map[string]*campaign{},
		ctx:       ctx,
		cancel:    cancel,
	}
	resumable, err := m.recoverStates()
	if err != nil {
		cancel()
		return nil, err
	}
	for _, c := range resumable {
		if cfg.MaxActive > 0 {
			m.waiting = append(m.waiting, c)
		}
		m.wg.Add(1)
		go m.run(c)
	}
	return m, nil
}

// recoverStates loads every *.state.json in the data directory and
// returns the campaigns that need to resume.
func (m *Manager) recoverStates() ([]*campaign, error) {
	entries, err := os.ReadDir(m.cfg.DataDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".state.json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var resumable []*campaign
	for _, name := range names {
		doc, err := loadState(filepath.Join(m.cfg.DataDir, name))
		if err != nil {
			return nil, err
		}
		c := newCampaign(doc.ID, doc.Spec)
		c.monthly = doc.Monthly
		c.table = doc.Table
		if doc.Error != "" {
			c.err = savedError{kind: doc.ErrKind, msg: doc.Error}
		}
		// Replay the persisted months into the event history so a
		// post-restart stream still delivers the full campaign.
		for i := range doc.Monthly {
			ev := doc.Monthly[i]
			c.history = append(c.history, Event{Type: "month", Month: &ev})
		}
		if doc.Status.Terminal() {
			c.status = doc.Status
			c.updated = doc.Updated
			c.history = append(c.history, Event{Type: "status", Status: doc.Status})
			switch doc.Status {
			case StatusDone:
				c.history = append(c.history, Event{Type: "done", Table: c.table})
			default:
				c.history = append(c.history, Event{Type: "error", ErrKind: doc.ErrKind, Error: doc.Error})
			}
		} else {
			// The service died under this campaign: its archive is the
			// checkpoint. Results recompute on resume, so the persisted
			// monthly series is advisory only — drop it and let the
			// resumed run re-emit every month.
			c.status = StatusCheckpointed
			c.monthly, c.history = nil, c.history[:0]
			c.history = append(c.history, Event{Type: "status", Status: StatusCheckpointed})
			if err := c.save(m.cfg.DataDir); err != nil {
				return nil, err
			}
			resumable = append(resumable, c)
		}
		m.campaigns[doc.ID] = c
		m.order = append(m.order, doc.ID)
		if n := idSeq(doc.ID); n > m.seq {
			m.seq = n
		}
	}
	return resumable, nil
}

// savedError carries a persisted failure across a restart, preserving
// its typed wire kind.
type savedError struct{ kind, msg string }

func (e savedError) Error() string { return e.msg }

// idSeq parses the numeric tail of a campaign ID (0 if malformed).
func idSeq(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "c"))
	return n
}

// Submit validates nothing (the spec is already validated by DecodeSpec
// or the caller), admits the campaign and starts its lifecycle.
func (m *Manager) Submit(spec Spec) (CampaignState, error) {
	if err := spec.Validate(); err != nil {
		return CampaignState{}, err
	}
	if m.draining.Load() {
		return CampaignState{}, ErrDraining
	}
	m.mu.Lock()
	m.seq++
	id := fmt.Sprintf("c%06d", m.seq)
	c := newCampaign(id, spec)
	c.history = append(c.history, Event{Type: "status", Status: StatusSubmitted})
	m.campaigns[id] = c
	m.order = append(m.order, id)
	if m.cfg.MaxActive > 0 {
		// Enqueued here, under the same lock that assigns the ID, so
		// admission is FIFO in submission order, not in goroutine
		// scheduling order.
		m.waiting = append(m.waiting, c)
	}
	m.mu.Unlock()
	if err := c.save(m.cfg.DataDir); err != nil {
		return CampaignState{}, err
	}
	m.wg.Add(1)
	go m.run(c)
	return c.state(), nil
}

// lookup finds a campaign by ID.
func (m *Manager) lookup(id string) (*campaign, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.campaigns[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return c, nil
}

// Get returns one campaign's state snapshot.
func (m *Manager) Get(id string) (CampaignState, error) {
	c, err := m.lookup(id)
	if err != nil {
		return CampaignState{}, err
	}
	return c.state(), nil
}

// Monthly returns a campaign's completed month evaluations so far.
func (m *Manager) Monthly(id string) ([]core.MonthEval, error) {
	c, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]core.MonthEval(nil), c.monthly...), nil
}

// List returns every campaign in submission order.
func (m *Manager) List() []CampaignState {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	states := make([]CampaignState, 0, len(ids))
	for _, id := range ids {
		if st, err := m.Get(id); err == nil {
			states = append(states, st)
		}
	}
	return states
}

// Cancel requests a campaign's cancellation: queued campaigns terminate
// immediately, running ones abort at the next month boundary. Cancelling
// a terminal campaign is a no-op returning its state.
func (m *Manager) Cancel(id string) (CampaignState, error) {
	c, err := m.lookup(id)
	if err != nil {
		return CampaignState{}, err
	}
	c.mu.Lock()
	if !c.status.Terminal() && !c.userCancel {
		c.userCancel = true
		close(c.quit)
	}
	cancel := c.cancel
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return c.state(), nil
}

// Subscribe returns a campaign's full event history plus a live channel
// for the rest of it (nil channel: the campaign is already terminal).
// The caller must call Unsubscribe with the returned channel.
func (m *Manager) Subscribe(id string) ([]Event, chan Event, error) {
	c, err := m.lookup(id)
	if err != nil {
		return nil, nil, err
	}
	hist, ch := c.subscribe()
	return hist, ch, nil
}

// Unsubscribe detaches a Subscribe channel.
func (m *Manager) Unsubscribe(id string, ch chan Event) {
	if ch == nil {
		return
	}
	if c, err := m.lookup(id); err == nil {
		c.unsubscribe(ch)
	}
}

// Close drains the service: no new submissions, every running campaign
// is interrupted at its next month boundary and left as a checkpoint on
// disk (status "checkpointed", archive flushed) for the next start to
// resume. Close waits for the drain to finish or ctx to expire.
func (m *Manager) Close(ctx context.Context) error {
	m.draining.Store(true)
	m.cancel()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// grant admits waiting campaigns in strict submission order while slots
// are free. Cancelled-while-queued campaigns are skipped (their run
// goroutine observes quit); unlimited managers never queue.
func (m *Manager) grant() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.active < m.cfg.MaxActive && len(m.waiting) > 0 {
		c := m.waiting[0]
		m.waiting = m.waiting[1:]
		c.mu.Lock()
		cancelled := c.userCancel
		if !cancelled {
			c.granted = true
		}
		c.mu.Unlock()
		if cancelled {
			continue
		}
		m.active++
		close(c.admitted)
	}
}

// releaseSlot returns an admission slot and admits the next campaign.
func (m *Manager) releaseSlot() {
	m.mu.Lock()
	m.active--
	m.mu.Unlock()
	m.grant()
}

// run is one campaign's lifecycle goroutine: admission, execution,
// terminal state, persistence.
func (m *Manager) run(c *campaign) {
	defer m.wg.Done()
	if m.cfg.MaxActive > 0 {
		m.grant()
		admitted := false
		select {
		case <-c.admitted:
			admitted = true
		case <-c.quit:
			// The grant may have raced the cancel; only a truly queued
			// campaign terminates here, a granted one runs (and is
			// cancelled immediately by the context guard below).
			c.mu.Lock()
			admitted = c.granted
			c.mu.Unlock()
			if !admitted {
				c.finish(nil, fmt.Errorf("serve: campaign %s cancelled while queued: %w", c.id, context.Canceled))
				c.save(m.cfg.DataDir)
				return
			}
		case <-m.ctx.Done():
			// Draining before the campaign ever ran: it stays a
			// checkpoint (possibly with no archive yet) and resumes on
			// the next start.
			c.mu.Lock()
			admitted = c.granted
			c.mu.Unlock()
			if !admitted {
				c.setStatus(StatusCheckpointed)
				c.save(m.cfg.DataDir)
				return
			}
		}
		defer m.releaseSlot()
	}
	ctx, cancel := context.WithCancel(m.ctx)
	defer cancel()
	c.mu.Lock()
	c.cancel = cancel
	c.mu.Unlock()
	select {
	case <-c.quit: // cancel raced admission; make it stick
		cancel()
	default:
	}

	res, err := m.execute(ctx, c)
	if err != nil && m.ctx.Err() != nil && !c.userCancel && errors.Is(err, context.Canceled) {
		// Service drain, not campaign failure: the archive holds every
		// completed month; the next start resumes from it.
		c.setStatus(StatusCheckpointed)
		c.save(m.cfg.DataDir)
		return
	}
	c.finish(res, err)
	c.save(m.cfg.DataDir)
}

// tappableSource is a live source whose record stream can be teed into
// the checkpoint archive: every source OpenSim builds is one.
type tappableSource interface {
	core.Source
	SetTap(func(store.Record) error)
}

// campaignBudget is one campaign's share of the global sampling budget:
// with MaxActive concurrency slots, SplitBudget keeps the sum of all
// shares at the global bound even for sharded campaigns whose workers
// cannot share the in-process pool. requested (Spec.Workers) may lower
// the share, never raise it.
func (m *Manager) campaignBudget(requested int) int {
	share := m.cfg.Workers
	if share > 0 && m.cfg.MaxActive > 1 {
		// The smallest share: every concurrent slot could be a sharded
		// campaign, and the sum of shares must stay within the budget.
		shares := stream.SplitBudget(share, m.cfg.MaxActive)
		share = shares[len(shares)-1]
	}
	if requested > 0 && (share == 0 || requested < share) {
		return requested
	}
	return share
}

// execute runs one campaign: recover its checkpoint, build the live
// source under the global budget, compose the resume path, tee every
// record into the archive, evaluate, and seal the archive on success.
func (m *Manager) execute(ctx context.Context, c *campaign) (*core.Results, error) {
	spec := c.spec
	sim, err := spec.sim()
	if err != nil {
		return nil, err
	}
	months := spec.EvalMonths()
	apath := archivePath(m.cfg.DataDir, c.id)

	done, err := recoverCheckpoint(apath, spec, months)
	if err != nil {
		return nil, fmt.Errorf("serve: campaign %s: recovering checkpoint: %w", c.id, err)
	}

	opened, err := core.OpenSim(sim)
	if err != nil {
		return nil, err
	}
	live := opened.(tappableSource)
	switch src := live.(type) {
	case *core.ShardedSource:
		defer src.Close()
		if b := m.campaignBudget(spec.Workers); b > 0 {
			src.SetWorkers(b)
		}
	case interface{ SetPool(*stream.Pool) }:
		// Rig, eager and lazy sources all measure on the global pool.
		src.SetPool(m.pool)
	}

	// The archive tee. A fresh campaign records from measurement one; a
	// resumed campaign opens the recovered checkpoint for append and arms
	// the tap only when live measurement begins, so replayed months are
	// never re-recorded.
	var src core.Source = live
	var f *os.File
	var w *store.BinaryWriter
	if len(done) > 0 {
		arch, err := core.OpenArchiveSource(apath)
		if err != nil {
			return nil, fmt.Errorf("serve: campaign %s: reopening checkpoint: %w", c.id, err)
		}
		arch.SetPool(m.pool)
		compose := core.NewResumeSource
		if spec.screening() != nil {
			// Screened campaigns re-prune during replay: the decisions
			// forward to both halves so the live silicon's population
			// tracks the killed run's exactly when measurement resumes.
			compose = core.NewScreenedResumeSource
		}
		rs, err := compose(live, arch, done, spec.Window)
		if err != nil {
			arch.Close()
			return nil, err
		}
		defer rs.Close()
		if f, err = os.OpenFile(apath, os.O_WRONLY|os.O_APPEND, 0); err != nil {
			return nil, err
		}
		w = store.ContinueBinaryWriterV1(f)
		rs.OnBeforeLive(func() error {
			live.SetTap(w.Write)
			return nil
		})
		src = rs
		c.mu.Lock()
		c.resumed = len(done)
		c.mu.Unlock()
	} else {
		if f, err = os.Create(apath); err != nil {
			return nil, err
		}
		w = store.NewBinaryWriterV1(f)
		live.SetTap(w.Write)
	}
	defer f.Close()

	// The key-lifecycle workload is rebuilt from (profile, devices, seed)
	// on every execute — screening is deterministic, so a resume derives
	// the same enrollment the killed run had and the replayed months
	// re-stream identical series.
	var metrics []core.Metric
	var crossMetrics []core.CrossMetric
	if spec.KeyLife {
		wl, err := keylife.New(ctx, keylife.Config{Profile: sim.Profile, Devices: spec.Devices, Seed: spec.Seed})
		if err != nil {
			return nil, fmt.Errorf("serve: campaign %s: key-lifecycle workload: %w", c.id, err)
		}
		metrics, crossMetrics = wl.Metrics(), wl.CrossMetrics()
	}

	// Per-month checkpoint barrier: the archive is flushed and the state
	// file rewritten after every completed evaluation, so a kill at any
	// moment loses at most the month in flight.
	var flushErr error
	eng, err := core.NewAssessment(core.AssessmentConfig{
		Source:       src,
		WindowSize:   spec.Window,
		Months:       months,
		Metrics:      metrics,
		CrossMetrics: crossMetrics,
		Screening:    spec.screening(),
		Progress: func(ev core.MonthEval) {
			c.month(ev)
			if err := w.Flush(); err != nil && flushErr == nil {
				flushErr = err
			}
			c.save(m.cfg.DataDir)
		},
	})
	if err != nil {
		return nil, err
	}
	if len(done) > 0 {
		c.setStatus(StatusResumed)
	} else {
		c.setStatus(StatusRunning)
	}
	c.save(m.cfg.DataDir)

	res, err := eng.Run(ctx)
	if ferr := w.Flush(); ferr != nil && flushErr == nil {
		flushErr = ferr
	}
	if cerr := f.Close(); cerr != nil && flushErr == nil {
		flushErr = cerr
	}
	if err != nil {
		return nil, err
	}
	if flushErr != nil {
		return nil, fmt.Errorf("serve: campaign %s: writing checkpoint: %w", c.id, flushErr)
	}
	// Completed: seal the archive in the indexed v2 format (O(1) month
	// seeks for replay consumers). Idempotent if already sealed.
	if _, err := store.UpgradeFile(apath); err != nil {
		return nil, fmt.Errorf("serve: campaign %s: sealing archive: %w", c.id, err)
	}
	return res, nil
}

// recoverCheckpoint restores a campaign's archive to its longest usable
// prefix in four steps: scan the archive's whole-record prefix; ask the
// completeness rule (core.DoneMonths, the rule the archive listers
// apply, screened when the campaign screens) for the done prefix of the
// campaign's evaluation months; leave the file alone if it already is
// exactly that prefix; otherwise cut it to that prefix — each done
// month's windows copied to a fresh v1 archive, temp + rename — which
// drops a torn tail record, a partially measured month and stray bytes
// after a crash. Returns the done months (nil: start fresh).
func recoverCheckpoint(path string, spec Spec, months []int) ([]int, error) {
	ir, err := store.OpenIndexedPrefix(path)
	switch {
	case errors.Is(err, fs.ErrNotExist), errors.Is(err, store.ErrBinary):
		return nil, nil // nothing readable to recover: start afresh
	case err != nil:
		return nil, err
	}
	defer ir.Close()
	boards := make([]int, spec.Devices) // device d archives as board d
	for d := range boards {
		boards[d] = d
	}
	done := core.DoneMonths(ir, boards, spec.Window, spec.screening() != nil, months)
	// The prefix is one window per done month and board present in it
	// (absent boards were pruned); the archive is exactly the prefix when
	// it holds nothing else and no torn tail.
	var windows int
	for _, m := range done {
		for _, b := range boards {
			if ir.MonthRecords(b, m) > 0 {
				windows++
			}
		}
	}
	if ir.End() == ir.Size() && ir.TotalRecords() == windows*spec.Window {
		return done, nil
	}
	tmp := path + ".recover"
	out, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	w := store.NewBinaryWriterV1(out)
	var dec store.SegmentDecoder
	for _, m := range done {
		for _, b := range boards {
			if ir.MonthRecords(b, m) == 0 {
				continue
			}
			if err := ir.ReadSegment(&dec, b, m, spec.Window, func(rec *store.Record) error { return w.Write(*rec) }); err != nil {
				return nil, err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if err := out.Close(); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return done, nil
}
