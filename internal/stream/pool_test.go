package stream

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
)

func TestSplitBudget(t *testing.T) {
	cases := []struct {
		total, parts int
		want         []int
	}{
		// Unbounded stays unbounded on every shard.
		{0, 3, []int{0, 0, 0}},
		{-4, 2, []int{0, 0}},
		// Even and uneven splits preserve the total.
		{8, 2, []int{4, 4}},
		{7, 3, []int{3, 2, 2}},
		{5, 5, []int{1, 1, 1, 1, 1}},
		// A budget below the shard count inflates to 1 per shard — a
		// zero share would mean "unbounded" to the receiving pool.
		{2, 4, []int{1, 1, 1, 1}},
		{1, 1, []int{1}},
	}
	for _, c := range cases {
		got := SplitBudget(c.total, c.parts)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitBudget(%d, %d) = %v, want %v", c.total, c.parts, got, c.want)
		}
	}
	if got := SplitBudget(4, 0); got != nil {
		t.Errorf("SplitBudget(4, 0) = %v, want nil", got)
	}
}

func TestPoolWorkers(t *testing.T) {
	if got := NewPool(3).Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
	if got := NewPool(0).Workers(); got != 0 {
		t.Errorf("unbounded Workers() = %d, want 0", got)
	}
}

// TestPoolAccountingSharedBudget is the pool-budget guarantee of the
// assessment service: many concurrent Run calls (one per campaign) on one
// bounded Pool never exceed the single global worker budget, and the
// high-watermark proves the bound was actually contended (the budget was
// used, not just never approached).
func TestPoolAccountingSharedBudget(t *testing.T) {
	const workers, campaigns, jobsPer = 3, 5, 8
	p := NewPool(workers)
	gate := make(chan struct{}) // holds every job until all are queued
	var wg sync.WaitGroup
	for c := 0; c < campaigns; c++ {
		jobs := make([]func() error, jobsPer)
		for j := range jobs {
			jobs[j] = func() error {
				if got := int(p.inflight.Load()); got > workers {
					t.Errorf("InFlight() = %d during job, budget %d", got, workers)
				}
				<-gate
				return nil
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Run(jobs...); err != nil {
				t.Errorf("Run: %v", err)
			}
		}()
	}
	// Release the jobs only once the budget is observably saturated:
	// exactly `workers` jobs hold slots and block on the gate.
	for int(p.inflight.Load()) < workers {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := p.MaxInFlight(); got > workers {
		t.Fatalf("MaxInFlight() = %d, want <= %d: concurrent campaigns overshot the global budget", got, workers)
	}
	if got := p.MaxInFlight(); got != workers {
		t.Fatalf("MaxInFlight() = %d, want %d: %d campaigns x %d jobs should saturate the budget", got, workers, campaigns, jobsPer)
	}
	if got := int(p.inflight.Load()); got != 0 {
		t.Fatalf("InFlight() = %d after all Runs returned, want 0", got)
	}
}

// TestRunSlotted verifies the slot contract: every job gets a slot in
// [0, slots), no two concurrent jobs share one, all jobs run, and errors
// join like Run's.
func TestRunSlotted(t *testing.T) {
	const slots, jobs = 3, 20
	p := NewPool(8)
	var mu sync.Mutex
	held := make(map[int]bool, slots)
	ran := make([]bool, jobs)
	fns := make([]func(int) error, jobs)
	for i := range fns {
		i := i
		fns[i] = func(slot int) error {
			if slot < 0 || slot >= slots {
				t.Errorf("job %d: slot %d out of [0,%d)", i, slot, slots)
			}
			mu.Lock()
			if held[slot] {
				t.Errorf("job %d: slot %d already held by a concurrent job", i, slot)
			}
			held[slot] = true
			ran[i] = true
			mu.Unlock()
			runtime.Gosched()
			mu.Lock()
			held[slot] = false
			mu.Unlock()
			return nil
		}
	}
	if err := p.RunSlotted(slots, fns...); err != nil {
		t.Fatalf("RunSlotted: %v", err)
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("job %d never ran", i)
		}
	}
}

// TestRunSlottedDefaults pins slot-count defaulting: non-positive slots
// fall back to the pool bound, and an unbounded pool hands every job its
// own slot.
func TestRunSlottedDefaults(t *testing.T) {
	bounded := NewPool(2)
	seen := make(map[int]bool)
	var mu sync.Mutex
	job := func(slot int) error {
		mu.Lock()
		seen[slot] = true
		mu.Unlock()
		return nil
	}
	if err := bounded.RunSlotted(0, job, job, job, job); err != nil {
		t.Fatal(err)
	}
	for slot := range seen {
		if slot < 0 || slot >= 2 {
			t.Fatalf("bounded pool handed slot %d, want [0,2)", slot)
		}
	}
	unbounded := NewPool(0)
	slotCh := make(chan int, 3)
	gate := make(chan struct{})
	err := unbounded.RunSlotted(0,
		func(s int) error { slotCh <- s; <-gate; return nil },
		func(s int) error { slotCh <- s; <-gate; return nil },
		func(s int) error { slotCh <- s; close(gate); return nil })
	if err != nil {
		t.Fatal(err)
	}
	close(slotCh)
	distinct := make(map[int]bool)
	for s := range slotCh {
		distinct[s] = true
	}
	if len(distinct) != 3 {
		t.Fatalf("unbounded pool: %d distinct slots for 3 gated jobs, want 3", len(distinct))
	}
}
