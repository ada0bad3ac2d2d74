package main

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/store"
)

// scope is where a traced boundary attaches its span: the operation's trace
// ID and the enclosing span.
type scope struct {
	tr     *Tracer
	trace  int64
	parent int64
}

// begin opens a child span; the returned scope is where its own children
// attach.
func (s scope) begin(name string) scope {
	return scope{tr: s.tr, trace: s.trace, parent: s.tr.Begin(s.trace, s.parent, name)}
}

// end closes the span begin opened.
func (s scope) end() { s.tr.End(s.parent) }

// sourceProbe measures a core.Source from outside. While on, every Measure
// is a span and every sink delivery is timed: the engine's accumulation
// (stream.add) and the gap since the same device's previous read-out (the
// source producing the next one). It claims every optional source
// interface the engine consults and forwards each to the wrapped source,
// answering as a source without that capability would when the wrapped one
// lacks it.
type sourceProbe struct {
	core.Source
	on      bool
	at      *scope // the enclosing month, parent of each Measure span
	workers int    // sampling parallelism, for worker-seconds

	measureNs int64 // summed Measure wall time
	workerNs  int64 // measureNs × workers
	prefixNs  int64 // summed time from Measure's start to its first read-out
	add       Counter
	gaps      []int64 // per-device read-out gaps, ns
	gapNs     int64
}

func newProbe(src core.Source, workers int, at *scope) *sourceProbe {
	return &sourceProbe{Source: src, workers: workers, at: at}
}

// devGap tracks one device's deliveries inside one Measure. Sources deliver
// a device's read-outs in order and never two of them concurrently, so each
// device's slot is touched by one goroutine at a time.
type devGap struct {
	last int64
	seen bool
	gaps []int64
}

func (p *sourceProbe) Measure(ctx context.Context, month, size int, sink core.Sink) error {
	if !p.on {
		return p.Source.Measure(ctx, month, size, sink)
	}
	tr := p.at.tr
	span := p.at.begin("measure")
	devs := make([]devGap, p.Source.Devices())
	var first atomic.Int64
	start := tr.Now()
	err := p.Source.Measure(ctx, month, size, func(d int, m *bitvec.Vector) error {
		if d < 0 || d >= len(devs) {
			return sink(d, m) // the engine reports the unknown device
		}
		g := &devs[d]
		t0 := tr.Now()
		first.CompareAndSwap(0, max(t0-start, 1))
		if g.seen {
			g.gaps = append(g.gaps, t0-g.last)
		}
		err := sink(d, m)
		t1 := tr.Now()
		p.add.Add(t1 - t0)
		g.last, g.seen = t1, true
		return err
	})
	wall := tr.Now() - start
	span.end()
	p.measureNs += wall
	p.workerNs += wall * int64(p.workers)
	p.prefixNs += first.Load()
	for _, g := range devs {
		for _, v := range g.gaps {
			p.gapNs += v
		}
		p.gaps = append(p.gaps, g.gaps...)
	}
	return err
}

// PruneDevices forwards the screening contract.
func (p *sourceProbe) PruneDevices(indices []int) error {
	pr, ok := p.Source.(core.DevicePruner)
	if !ok {
		return fmt.Errorf("%w: %T cannot prune devices", core.ErrConfig, p.Source)
	}
	return pr.PruneDevices(indices)
}

// ProfileAssignment forwards the compact profile listing (nil: none).
func (p *sourceProbe) ProfileAssignment() ([]string, []uint8) {
	if pa, ok := p.Source.(core.ProfileAssigner); ok {
		return pa.ProfileAssignment()
	}
	return nil, nil
}

// DeviceProfileNames forwards the expanded profile listing (nil: none).
func (p *sourceProbe) DeviceProfileNames() []string {
	if pl, ok := p.Source.(core.ProfileLister); ok {
		return pl.DeviceProfileNames()
	}
	return nil
}

// AvailableMonths forwards month discovery; a source that cannot list
// months lists none, which the engine reports as ErrNoMonths.
func (p *sourceProbe) AvailableMonths(windowSize int) ([]int, error) {
	if ml, ok := p.Source.(core.MonthLister); ok {
		return ml.AvailableMonths(windowSize)
	}
	return nil, nil
}

// AvailableMonthsSurviving forwards screened month discovery; nil lets the
// engine fall back to AvailableMonths.
func (p *sourceProbe) AvailableMonthsSurviving(windowSize int) ([]int, error) {
	if ml, ok := p.Source.(core.SurvivingMonthLister); ok {
		return ml.AvailableMonthsSurviving(windowSize)
	}
	return nil, nil
}

// sourcePerDeviceMonth is the worker time the probed sources spent
// producing one device's window: Measure worker-seconds minus the engine's
// accumulation, per device-month delivered.
func sourcePerDeviceMonth(window int, probes ...*sourceProbe) float64 {
	var ns, adds float64
	for _, p := range probes {
		ns += float64(p.workerNs - p.add.Ns())
		adds += float64(p.add.N())
	}
	return ratio(ns, adds/float64(window))
}

// reportCore sets the core, source and stream metrics from the probes of a
// workload's traced operations and the finalize self times of its month
// spans.
func reportCore(r *outcome, spans []Span, probes ...*sourceProbe) {
	var measureNs, workerNs, addNs, adds float64
	var gaps []int64
	for _, p := range probes {
		measureNs += float64(p.measureNs)
		workerNs += float64(p.workerNs)
		addNs += float64(p.add.Ns())
		adds += float64(p.add.N())
		gaps = append(gaps, p.gaps...)
	}
	r.set("core.measure_s", measureNs/1e9)
	r.set("core.finalize_ms", medianInt(SelfTimes(spans, "month"))/1e6)
	r.set("source.produce_ns", medianInt(gaps))
	r.set("stream.add_ns", ratio(addNs, adds))
	r.set("stream.adds", adds)
	r.set("stream.add_share", ratio(addNs, workerNs))
}

// timed runs fn, adding its duration to c when tr is tracing.
func timed(tr *Tracer, c *Counter, fn func() error) error {
	if tr == nil {
		return fn()
	}
	t0 := tr.Now()
	err := fn()
	c.Add(tr.Now() - t0)
	return err
}

// timedTap times an archive tap per record.
func timedTap(tr *Tracer, c *Counter, tap func(store.Record) error) func(store.Record) error {
	return func(rec store.Record) error {
		t0 := tr.Now()
		err := tap(rec)
		c.Add(tr.Now() - t0)
		return err
	}
}

// timedMetrics wraps the Metric and CrossMetric values a workload (key-life)
// registers with the engine, timing every call into them. Cross-metric
// computations are spans under the month *at points to when they run.
func timedMetrics(tr *Tracer, at *scope, c *Counter, ms []core.Metric, cms []core.CrossMetric) ([]core.Metric, []core.CrossMetric) {
	outM := make([]core.Metric, len(ms))
	for i, m := range ms {
		m := m
		outM[i] = core.NewMetricFunc(m.Name(), func(month, device int, ref *bitvec.Vector) (core.MetricAccumulator, error) {
			t0 := tr.Now()
			acc, err := m.NewAccumulator(month, device, ref)
			c.Add(tr.Now() - t0)
			if err != nil {
				return nil, err
			}
			return timedAcc{acc: acc, tr: tr, c: c}, nil
		})
	}
	outC := make([]core.CrossMetric, len(cms))
	for i, cm := range cms {
		cm := cm
		outC[i] = core.NewCrossMetricFunc(cm.Name(), func(month int, firsts []*bitvec.Vector) (float64, error) {
			span := at.begin("keylife.compute")
			t0 := tr.Now()
			v, err := cm.Compute(month, firsts)
			c.Add(tr.Now() - t0)
			span.end()
			return v, err
		})
	}
	return outM, outC
}

type timedAcc struct {
	acc core.MetricAccumulator
	tr  *Tracer
	c   *Counter
}

func (a timedAcc) Add(m *bitvec.Vector) error {
	t0 := a.tr.Now()
	err := a.acc.Add(m)
	a.c.Add(a.tr.Now() - t0)
	return err
}

func (a timedAcc) Value() (float64, error) {
	t0 := a.tr.Now()
	v, err := a.acc.Value()
	a.c.Add(a.tr.Now() - t0)
	return v, err
}
