// Package desim is a minimal deterministic discrete-event simulation
// kernel. The measurement harness runs on it: power switches, board boot
// delays, I2C transfers and layer handshakes are all events on one
// simulated clock.
//
// Determinism: events at equal times fire in scheduling order (FIFO), so a
// seeded simulation always produces an identical event trace. Simulated
// time is an integer microsecond count to keep event ordering exact (no
// floating-point time accumulation).
package desim

import (
	"container/heap"
	"errors"
	"fmt"
)

// Time is simulated time in microseconds since simulation start.
type Time int64

// Common conversions.
const (
	Millisecond Time = 1000
	Second      Time = 1000000
)

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts floating-point seconds to a Time, rounding to the
// nearest microsecond.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

type event struct {
	at  Time
	seq uint64 // FIFO tiebreaker for equal times
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Simulator is a single-threaded discrete-event scheduler.
type Simulator struct {
	now    Time
	seq    uint64
	events eventHeap
}

// New returns an empty simulator at time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Schedule queues fn to run after the given delay. A negative delay is an
// error; a zero delay runs after all events already queued for Now.
func (s *Simulator) Schedule(delay Time, fn func()) error {
	if delay < 0 {
		return fmt.Errorf("desim: negative delay %v", delay)
	}
	return s.At(s.now+delay, fn)
}

// At queues fn to run at absolute time t, which must not be in the past.
func (s *Simulator) At(t Time, fn func()) error {
	if fn == nil {
		return errors.New("desim: nil event function")
	}
	if t < s.now {
		return fmt.Errorf("desim: cannot schedule at %v, now is %v", t, s.now)
	}
	s.seq++
	heap.Push(&s.events, &event{at: t, seq: s.seq, fn: fn})
	return nil
}

// Step executes the next event. It returns false when no events remain.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*event)
	s.now = e.at
	e.fn()
	return true
}
