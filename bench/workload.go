package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// The load stays within the two CPUs the benchmark is sized for: every
// sampling pool, archive replay and the service's global budget run two
// workers, and the service has two clients.
const (
	workers = 2
	clients = 2
)

// workload is one set of inputs the benchmark runs. setup builds it from
// the run's seed until it is ready to measure; it is timed (setup_s) and
// repeated around the timed window for a stable median. A traced run keeps
// its window open for at least tracedOps operations, enough for both a
// plain and a traced part however slow the host is.
type workload struct {
	name      string
	setup     func(e *env) (instance, error)
	tracedOps int
}

// instance is a set-up workload.
type instance interface {
	// run is the timed closed loop: operations start while l is open and
	// each one that starts completes.
	run(ctx context.Context, l *opLog) error
	// check verifies the outputs and, on a traced run, reports the
	// per-layer metrics. It runs after the timed window.
	check(ctx context.Context, r *outcome) error
	close() error
}

var workloads = []workload{
	{"paper-campaign", setupPaper, 2},                                // months 0 and 1
	{"fleet-screen", setupFleet, 2},                                  // campaigns 0 and 1
	{"rig-archive", setupRigArchive, 2 * (rigLast + 1 + rigReplays)}, // cycles 0 and 1
	{"service", setupService, 2 * len(serviceSpecs)},                 // rotations 0 and 1
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// env is what every workload of one run shares: the seed its inputs derive
// from, a scratch directory, the tracer (nil on an untraced run) and the
// device profiles, resolved before anything is timed.
type env struct {
	seed   uint64
	dir    string
	tr     *Tracer
	golden *goldens
	atmega silicon.DeviceProfile
	fleet  *core.Fleet // fleetnode-1kb + fleetnode-2kb, a two-model mix
}

func newEnv(seed uint64, workdir string, traced bool, golden *goldens) (*env, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{seed: seed, dir: dir, golden: golden}
	if traced {
		e.tr = NewTracer()
	}
	// The profile registry calibrates the device model once per process
	// (and caches it on disk); resolving here keeps that out of set-up.
	if e.atmega, err = silicon.Lookup("atmega32u4"); err != nil {
		return nil, err
	}
	var nodes []silicon.DeviceProfile
	for _, name := range []string{"fleetnode-1kb", "fleetnode-2kb"} {
		p, err := silicon.Lookup(name)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, p)
	}
	if e.fleet, err = core.NewFleet(nodes...); err != nil {
		return nil, err
	}
	return e, nil
}

// traced reports whether operation i of a traced run records spans: odd
// operations do, even ones run plain, and the two give trace.overhead.
func (e *env) traced(i int) bool { return e.tr != nil && i%2 == 1 }

// span opens a root span: the first of an operation's trace.
func (e *env) span(trace int, name string) scope {
	return scope{tr: e.tr, trace: int64(trace)}.begin(name)
}

// monthly runs one Assessment. While op carries a tracer, each evaluated
// month i for which traced(i) holds (nil: every month) is a "month" span
// under op, and the probe, if any, is on; *cur points at the span while the
// month runs, so the probe's Measure spans and key-life's compute spans
// nest inside. The span opened after the last month is never closed, and
// never reported. onMonth sees every finished month.
func monthly(ctx context.Context, cfg core.AssessmentConfig, op scope, cur *scope, probe *sourceProbe, traced func(int) bool, onMonth func(i int, ev core.MonthEval)) (*core.Results, error) {
	i := 0
	open := func() {
		*cur = scope{}
		on := op.tr != nil && (traced == nil || traced(i))
		if on {
			*cur = op.begin("month")
		}
		if probe != nil {
			probe.on = on
		}
	}
	open()
	cfg.Progress = func(ev core.MonthEval) {
		cur.end()
		if onMonth != nil {
			onMonth(i, ev)
		}
		i++
		open()
	}
	a, err := core.NewAssessment(cfg)
	if err != nil {
		return nil, err
	}
	return a.Run(ctx)
}

// readouts counts the read-outs a campaign's evaluated months delivered.
func readouts(res *core.Results, window int) int64 {
	var n int64
	for _, ev := range res.Monthly {
		n += int64(len(ev.Devices)) * int64(window)
	}
	return n
}

// repeatSetups times one burst of further set-ups of w, closing each, and
// returns their host-normalised times. A run takes one burst before its
// window and one after, so the median does not hang on the host's state at
// one moment; a burst is at least 4 set-ups, and at most 500 or about
// 150 ms of them.
func repeatSetups(e *env, w workload) ([]float64, error) {
	const (
		minSamples = 4
		maxSamples = 500
		budget     = 150 * time.Millisecond
	)
	ref := hostReference()
	var samples []float64
	var spent time.Duration
	for len(samples) < minSamples || (spent < budget && len(samples) < maxSamples) {
		t0 := time.Now()
		inst, err := w.setup(e)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if err := inst.close(); err != nil {
			return nil, err
		}
		samples = append(samples, ref.normalise(d).Seconds())
		spent += d
	}
	return samples, nil
}

// resultDigest hashes what a campaign reports — its monthly series and
// Table I — in a form that also covers values JSON cannot carry.
func resultDigest(res *core.Results) string {
	return digest(fmt.Sprintf("%v|%v", res.Monthly, res.Table))
}

// sampleDevices picks k (at most n) distinct device indices below n from
// the seed, in ascending order.
func sampleDevices(seed uint64, n, k int) []int {
	s := append([]int(nil), rng.New(seed).Perm(n)[:min(k, n)]...)
	sort.Ints(s)
	return s
}
