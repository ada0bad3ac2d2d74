package stream

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Pool is the campaign engine's shared scheduler: a bounded worker pool
// that both execution paths submit their window jobs to. The direct path
// submits one job per device; the rig path submits a single simulation
// pump. One Pool per campaign makes Config.Workers govern all evaluation
// parallelism regardless of path.
//
// The bound is held by one semaphore owned by the Pool, not per Run call:
// concurrent Run calls on the same Pool share the worker budget. That is
// what lets a condition sweep run many grid points at once — and the
// assessment service run many concurrent campaigns — while the total
// sampling parallelism stays at one bound.
type Pool struct {
	workers int
	sem     chan struct{} // nil when unbounded

	// Budget accounting: how many jobs hold a slot right now, and the
	// highest that count has ever been. The high-watermark is what lets a
	// multi-campaign service assert that its single global budget was
	// never exceeded no matter how many campaigns ran concurrently.
	inflight atomic.Int64
	high     atomic.Int64
}

// NewPool returns a pool running at most workers jobs concurrently across
// all Run calls. workers <= 0 means one goroutine per submitted job (the
// historical direct-path default).
func NewPool(workers int) *Pool {
	p := &Pool{workers: workers}
	if workers > 0 {
		p.sem = make(chan struct{}, workers)
	}
	return p
}

// Workers returns the configured concurrency bound (0 = unbounded).
func (p *Pool) Workers() int { return p.workers }

// MaxInFlight returns the highest concurrent job count the pool has ever
// reached — the accounting a service's pool-budget test asserts against:
// for a bounded pool it can never exceed Workers().
func (p *Pool) MaxInFlight() int { return int(p.high.Load()) }

// SplitBudget divides a total worker budget across parts — the
// per-shard pool budgeting of a sharded campaign, where each worker
// process runs its own Pool but the campaign's -workers bound should
// govern the TOTAL sampling parallelism across all of them, and the
// per-campaign budgeting of a multi-campaign service admitting work
// against one global budget. A non-positive total leaves every part
// unbounded (the single-process default); otherwise every part gets
// total/parts with the remainder spread over the first parts, and never
// less than 1 (a zero share would mean "unbounded" to the receiving pool
// and overshoot the budget, so a budget smaller than the part count
// inflates to one worker per part).
func SplitBudget(total, parts int) []int {
	if parts < 1 {
		return nil
	}
	out := make([]int, parts)
	if total <= 0 {
		return out
	}
	base, rem := total/parts, total%parts
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

// Run executes the jobs, at most Workers at a time (shared with any
// concurrent Run on the same Pool), waits for all of them and returns the
// joined errors (nil when every job succeeded).
func (p *Pool) Run(jobs ...func() error) error {
	if len(jobs) == 0 {
		return nil
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job func() error) {
			defer wg.Done()
			if p.sem != nil {
				p.sem <- struct{}{}
				defer func() { <-p.sem }()
			}
			n := p.inflight.Add(1)
			for {
				high := p.high.Load()
				if n <= high || p.high.CompareAndSwap(high, n) {
					break
				}
			}
			defer p.inflight.Add(-1)
			errs[i] = job()
		}(i, job)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// RunSlotted executes the jobs like Run, but additionally hands each job
// an exclusive slot index in [0, slots): no two concurrently executing
// jobs ever see the same slot. Slots are how a lazy source keeps O(slots)
// scratch state (reusable chip arrays) for an O(jobs) device population —
// each job rebuilds its device into the per-slot scratch it was handed.
//
// slots caps the call's own concurrency in addition to the pool bound: at
// most min(slots, Workers) jobs of this call run at once (other concurrent
// Run calls still share the pool semaphore). slots <= 0 defaults to the
// pool bound, or to len(jobs) on an unbounded pool.
func (p *Pool) RunSlotted(slots int, jobs ...func(slot int) error) error {
	if len(jobs) == 0 {
		return nil
	}
	if slots <= 0 {
		slots = p.workers
	}
	if slots <= 0 || slots > len(jobs) {
		slots = len(jobs)
	}
	free := make(chan int, slots)
	for s := 0; s < slots; s++ {
		free <- s
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job func(int) error) {
			defer wg.Done()
			// Slot first, then the pool semaphore: a job holding a slot but
			// queued on the semaphore blocks only its own call's siblings,
			// never another Run call's budget.
			slot := <-free
			defer func() { free <- slot }()
			if p.sem != nil {
				p.sem <- struct{}{}
				defer func() { <-p.sem }()
			}
			n := p.inflight.Add(1)
			for {
				high := p.high.Load()
				if n <= high || p.high.CompareAndSwap(high, n) {
					break
				}
			}
			defer p.inflight.Add(-1)
			errs[i] = job(slot)
		}(i, job)
	}
	wg.Wait()
	return errors.Join(errs...)
}
