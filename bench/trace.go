package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one operation
// (a campaign, a month of the paper campaign, a record+replay cycle, a
// service campaign) share a Trace ID; Parent is the span that caused it
// (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the benchmark ends. Every method is a
// no-op on a nil *Tracer, so untraced runs pay nothing at the boundaries.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer whose timestamps count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Now returns the monotonic nanoseconds since the tracer started.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// Begin opens a span and returns its ID.
func (t *Tracer) Begin(trace, parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := t.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return id
}

// End closes the span Begin returned.
func (t *Tracer) End(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := t.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the closed spans as one JSON array.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTimes returns, for every span with the given name, its duration minus
// the part of that interval its child spans cover (overlapping children
// count once).
func SelfTimes(spans []Span, name string) []int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []int64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, s.End-s.Start-covered)
	}
	return out
}

// Counter records a per-read-out event — a sink delivery, an archive write
// — as a count and a summed duration, where a span per event would swamp
// the trace.
type Counter struct {
	n, ns atomic.Int64
}

// Add records one event of the given duration.
func (c *Counter) Add(ns int64) {
	c.n.Add(1)
	c.ns.Add(ns)
}

// N returns the event count.
func (c *Counter) N() int64 { return c.n.Load() }

// Ns returns the summed duration.
func (c *Counter) Ns() int64 { return c.ns.Load() }
