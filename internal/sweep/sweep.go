// Package sweep runs condition-sweep campaigns: one full Assessment per
// point of a temperature × voltage grid, executed concurrently over the
// same silicon population (same profile, same seed — so every grid point
// measures the same chips, just in a different oven).
//
// The paper's long-term test holds one ambient condition for two years;
// the related work it cites (accelerated aging, temperature-susceptibility
// studies) and operating-corner screening both need the same campaign
// swept across conditions. Each point reuses the streaming engine of
// internal/core unchanged — the condition enters as the Scenario of the
// sweep's core.SimSpec, which core.OpenSim opens per point: the
// profile's BTI kinetics run at the point's temperature/voltage and the
// power-up noise scales accordingly. A sweep whose only point is the
// profile's nominal scenario is therefore bit-identical to a plain
// Assessment.
//
// Cross-condition series (worst-corner WCHD/FHW, the stable-cell
// intersection across corners, temperature-sensitivity slopes) are
// assembled after all points complete; per-cell stable masks are
// harvested from the engine's WindowDone hook, so the per-point Results
// stay byte-identical to what a standalone Assessment emits.
package sweep

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/aging"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/stream"
)

// Grid is a cartesian temperature × voltage condition grid.
type Grid struct {
	TempsC []float64 // ambient temperatures, degrees Celsius
	Volts  []float64 // supply voltages
}

// Validate checks that both axes are non-empty and every point is a
// physically valid condition.
func (g Grid) Validate() error {
	if len(g.TempsC) == 0 || len(g.Volts) == 0 {
		return fmt.Errorf("%w: sweep grid needs at least one temperature and one voltage", core.ErrConfig)
	}
	for _, t := range g.TempsC {
		for _, v := range g.Volts {
			if err := aging.Condition(t, v).Validate(); err != nil {
				return fmt.Errorf("%w: %v", core.ErrConfig, err)
			}
		}
	}
	return nil
}

// Points expands the grid into scenarios, temperature-major ("0C-4.5V",
// "0C-5V", ..., "85C-5.5V").
func (g Grid) Points() []aging.Scenario {
	out := make([]aging.Scenario, 0, len(g.TempsC)*len(g.Volts))
	for _, t := range g.TempsC {
		for _, v := range g.Volts {
			out = append(out, aging.Condition(t, v))
		}
	}
	return out
}

// Config parameterises a sweep: the per-point campaign plus the sweep's
// own execution knobs. Unlike AssessmentConfig it carries the simulated
// source's spec rather than a Source, because the sweep opens one
// source per grid point.
type Config struct {
	// Campaign is every point's campaign. Each point opens Campaign.Sim
	// with the point's condition as its Scenario (the spec's own
	// Scenario is ignored); every point shares the spec's seed, so all
	// corners measure the same chips — in process or sharded, eager or
	// lazy, sampled directly or through the rig. Nil Months defers to
	// the per-point source (MonthLister) exactly as a plain assessment
	// would; all points must then resolve the same list. Screening is
	// not read: a sweep compares corners over one fixed population, and
	// the facade refuses a screened sweep. Nor is KeyLife: a
	// key-lifecycle campaign supplies its workloads through PointMetrics.
	Campaign core.CampaignSpec

	// Workers bounds the TOTAL sampling parallelism across all concurrent
	// points: every point's direct-sampling source shares one worker pool
	// (<= 0: unbounded, one worker per logical CPU per in-flight point,
	// the single-assessment default). A rig point captures on its own
	// workers, one per logical CPU. With Campaign.Sim.Shards the budget is PER
	// CORNER — each corner's worker processes split it among themselves,
	// but corners do not share a pool across process boundaries.
	Workers int
	// Concurrency bounds how many grid points run at once (<= 0: all).
	Concurrency int

	// NewSource, when non-nil, overrides the built-in source construction
	// — e.g. replaying one recorded archive per corner. The sweep does
	// not touch the returned source's workers; the factory owns that.
	NewSource func(sc aging.Scenario) (core.Source, error)

	// Metrics / CrossMetrics are registered with every point's engine.
	Metrics      []core.Metric
	CrossMetrics []core.CrossMetric

	// PointMetrics, when non-nil, is invoked once per grid point as the
	// point spins up and returns additional metrics registered with THAT
	// point's engine only, after the shared Metrics/CrossMetrics. Stateful
	// workloads (key-lifecycle enrollment) need one instance per point —
	// a shared Metric would race across concurrently running points.
	PointMetrics func(ctx context.Context, sc aging.Scenario) ([]core.Metric, []core.CrossMetric, error)

	// Progress, when non-nil, receives every completed month of every
	// point as it finalises. Points run concurrently, so Progress MUST be
	// safe for concurrent calls.
	Progress func(Progress)
}

// Progress is one completed month evaluation of one grid point.
type Progress struct {
	Point    int // index into the sweep's point list
	Scenario aging.Scenario
	Eval     core.MonthEval
}

// PointResult is one grid point's complete campaign outcome. Results is
// byte-identical to what a standalone Assessment with the same source
// configuration would return.
type PointResult struct {
	Scenario aging.Scenario
	Results  *core.Results
}

// Results is the outcome of a sweep: every point's full campaign results
// in grid order, plus the cross-condition comparison series.
type Results struct {
	Points     []PointResult
	Comparison Comparison
}

// RunPoints executes one Assessment per scenario, at most
// cfg.Concurrency points in flight, and assembles the cross-condition
// comparison. The first point to fail cancels the remaining points;
// RunPoints waits for every in-flight point to wind down before
// returning, so no evaluation goroutine outlives the call. Cancelling
// ctx aborts the same way with an error wrapping ctx.Err().
func RunPoints(ctx context.Context, cfg Config, points []aging.Scenario) (*Results, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("%w: sweep needs at least one condition point", core.ErrConfig)
	}
	for _, sc := range points {
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", core.ErrConfig, err)
		}
	}
	newSource := cfg.NewSource
	if newSource == nil {
		newSource = simSources(*cfg.Campaign.Sim, cfg.Workers)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	limit := cfg.Concurrency
	if limit <= 0 || limit > len(points) {
		limit = len(points)
	}
	sem := make(chan struct{}, limit)
	results := make([]*core.Results, len(points))
	intersect := newStableIntersector()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(sc aging.Scenario, err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = fmt.Errorf("sweep: point %q: %w", sc.Name, err)
			cancel()
		}
	}
	for i, sc := range points {
		wg.Add(1)
		go func(i int, sc aging.Scenario) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-runCtx.Done():
				return // a sibling failed (or the caller cancelled) while queued
			}
			if runCtx.Err() != nil {
				return
			}
			src, err := newSource(sc)
			if err != nil {
				fail(sc, err)
				return
			}
			// Sharded (and other connection-holding) sources own worker
			// processes; release them when the point winds down.
			if closer, ok := src.(io.Closer); ok {
				defer closer.Close()
			}
			metrics, crossMetrics := cfg.Metrics, cfg.CrossMetrics
			if cfg.PointMetrics != nil {
				ms, cms, err := cfg.PointMetrics(runCtx, sc)
				if err != nil {
					fail(sc, err)
					return
				}
				metrics = append(append([]core.Metric{}, metrics...), ms...)
				crossMetrics = append(append([]core.CrossMetric{}, crossMetrics...), cms...)
			}
			harvest := &maskHarvest{si: intersect}
			acfg := core.AssessmentConfig{
				Source:       src,
				WindowSize:   cfg.Campaign.Window,
				Months:       cfg.Campaign.Months,
				Metrics:      metrics,
				CrossMetrics: crossMetrics,
				WindowDone:   harvest.windowDone,
			}
			if cfg.Progress != nil {
				acfg.Progress = func(ev core.MonthEval) {
					cfg.Progress(Progress{Point: i, Scenario: sc, Eval: ev})
				}
			}
			eng, err := core.NewAssessment(acfg)
			if err != nil {
				fail(sc, err)
				return
			}
			res, err := eng.Run(runCtx)
			if err != nil {
				fail(sc, err)
				return
			}
			results[i] = res
		}(i, sc)
	}
	wg.Wait()
	if firstErr == nil {
		// A caller-side cancellation can drain queued points silently
		// (they exit on runCtx.Done without recording an error) while
		// every started point happens to finish cleanly.
		if err := ctx.Err(); err != nil {
			firstErr = fmt.Errorf("sweep: %w", err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	out := &Results{Points: make([]PointResult, len(points))}
	for i, sc := range points {
		if results[i] == nil {
			return nil, fmt.Errorf("sweep: point %q produced no results", sc.Name)
		}
		out.Points[i] = PointResult{Scenario: sc, Results: results[i]}
	}
	cmp, err := buildComparison(out.Points, intersect)
	if err != nil {
		return nil, err
	}
	out.Comparison = cmp
	return out, nil
}

// simSources opens the sweep's spec once per point, at the point's
// condition. In-process sim sources share one pool sized by workers,
// sharded sources split workers among their own processes, and the rig
// pumps in its point's goroutine, capturing on one worker per logical
// CPU.
func simSources(spec core.SimSpec, workers int) func(aging.Scenario) (core.Source, error) {
	pool := stream.NewPool(workers)
	return func(sc aging.Scenario) (core.Source, error) {
		spec := spec
		spec.Scenario = sc
		src, err := core.OpenSim(spec)
		if err != nil {
			return nil, err
		}
		switch {
		case spec.Shards > 0:
			src.(core.WorkerSetter).SetWorkers(workers)
		case !spec.Rig:
			src.(interface{ SetPool(*stream.Pool) }).SetPool(pool)
		}
		return src, nil
	}
}

// maskHarvest is one point's stable-mask harvest from the engine's
// WindowDone hook: one scratch mask per device, reused across every
// window (StableMaskInto, no per-window allocation), its contents folded
// straight into the shared cross-point intersection. The engine invokes
// WindowDone from its sequential window-finalisation loop and each point
// owns its own harvest, so the scratch needs no locking.
type maskHarvest struct {
	si      *stableIntersector
	scratch []*bitvec.Vector
}

func (h *maskHarvest) windowDone(month, device int, dev *stream.Device) {
	for device >= len(h.scratch) {
		h.scratch = append(h.scratch, nil)
	}
	mask := h.scratch[device]
	if mask == nil || mask.Len() != dev.Ref().Len() {
		mask = bitvec.New(dev.Ref().Len())
		h.scratch[device] = mask
	}
	if err := dev.StableMaskInto(mask); err != nil {
		return // unreachable: WindowDone fires only after a complete window
	}
	h.si.absorb(month, device, mask)
}

// stableIntersector accumulates the cross-corner stable-cell
// intersection in place: one running AND per (month, device), shared by
// every sweep point, instead of retaining every point's every mask until
// the end of the sweep. Points run concurrently, hence the lock.
type stableIntersector struct {
	mu      sync.Mutex
	err     error
	byMonth map[int][]*bitvec.Vector // running intersection per device
	seen    map[int][]int            // points folded in per device
}

func newStableIntersector() *stableIntersector {
	return &stableIntersector{byMonth: map[int][]*bitvec.Vector{}, seen: map[int][]int{}}
}

// absorb folds one point's (month, device) mask into the running
// intersection. The mask is the caller's reusable scratch; absorb only
// reads it.
func (si *stableIntersector) absorb(month, device int, mask *bitvec.Vector) {
	si.mu.Lock()
	defer si.mu.Unlock()
	row, seen := si.byMonth[month], si.seen[month]
	for device >= len(row) {
		row, seen = append(row, nil), append(seen, 0)
	}
	if row[device] == nil {
		row[device] = mask.Clone()
	} else if err := row[device].AndInPlace(mask); err != nil && si.err == nil {
		si.err = fmt.Errorf("sweep: stable mask for month %d device %d: %w", month, device, err)
	}
	seen[device]++
	si.byMonth[month], si.seen[month] = row, seen
}

// intersection returns the device-averaged ratio of cells stable in
// every point's window of the given month; points is the number of sweep
// points whose masks must have been folded in.
func (si *stableIntersector) intersection(month, points int) (float64, error) {
	si.mu.Lock()
	defer si.mu.Unlock()
	if si.err != nil {
		return 0, si.err
	}
	row, seen := si.byMonth[month], si.seen[month]
	if len(row) == 0 {
		return 0, fmt.Errorf("sweep: missing stable masks for month %d", month)
	}
	sum := 0.0
	for d, inter := range row {
		if inter == nil || seen[d] != points {
			return 0, fmt.Errorf("sweep: missing stable mask for month %d device %d", month, d)
		}
		sum += float64(inter.HammingWeight()) / float64(inter.Len())
	}
	return sum / float64(len(row)), nil
}
