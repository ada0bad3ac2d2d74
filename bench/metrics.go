package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric. The two tables are the benchmark's
// output contract and are mirrored, with their bounds, in the repository's
// BENCHMARK.json (bench_test.go keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports every
// one of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"meas_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"heap_mb", "MB"},
}

// perLayer comes from the traced run. Every workload reports every one; a
// layer the workload never calls reads 0, which is why layer-specific costs
// are shares, sizes and rates rather than absolute times.
var perLayer = []metricDef{
	{"core.measure_s", "s"},
	{"core.finalize_ms", "ms"},
	{"core.survivor_ratio", "ratio"},
	{"source.produce_ns", "ns"},
	{"stream.add_ns", "ns"},
	{"stream.adds", "count"},
	{"stream.add_share", "ratio"},
	{"sram.reset_us", "us"},
	{"sram.noise_scale_us", "us"},
	{"sram.age_replay_us", "us"},
	{"sram.jump_us", "us"},
	{"sram.powerup_us", "us"},
	{"sram.rebuild_share", "ratio"},
	{"harness.self_share", "ratio"},
	{"store.write_mb_per_s", "MB/s"},
	{"store.read_mb_per_s", "MB/s"},
	{"store.archive_mb", "MB"},
	{"keylife.share", "ratio"},
	{"keylife.success_ratio", "ratio"},
	{"shard.overhead_ratio", "ratio"},
	{"shard.rig_overhead_ratio", "ratio"},
	{"serve.submit_share", "ratio"},
	{"serve.queue_share", "ratio"},
	{"serve.first_month_share", "ratio"},
	{"serve.overhead_share", "ratio"},
	{"serve.checkpoint_kb", "KB"},
	{"trace.overhead", "ratio"},
}

// op is one completed operation of a workload's closed loop.
type op struct {
	kind     int           // operation class; the service rotates four specs
	start    time.Duration // since the timed window opened
	end      time.Duration
	readouts int64 // read-outs delivered to the engine
	traced   bool
	err      error
	norm     time.Duration // host-normalised latency, set by snapshot
}

// latency is the operation's host-normalised wall time.
func (o op) latency() time.Duration { return o.norm }

// segment is the stretch of the window from the end of one calibration to
// the start of the next.
type segment struct {
	cal   time.Duration // when its calibration began
	start time.Duration // when the calibration ended
	ref   hostRef
}

// opLog is the closed loop's clock and ledger: an operation may start while
// the window is open, and every operation that started is allowed to finish.
// The workload calls calibrate before its first operation and then whenever
// none of its work runs — between operations, and between the phases of a
// long one (months, replays) — so the time between calibrations stays
// short; the time spent calibrating counts nowhere.
type opLog struct {
	begin  time.Time
	window time.Duration
	minOps int

	mu   sync.Mutex
	ops  []op
	segs []segment
}

// newOpLog opens a window that stays open for at least minOps operations —
// a traced run needs a plain and a traced one however slow they are.
func newOpLog(window time.Duration, minOps int) *opLog {
	return &opLog{begin: time.Now(), window: window, minOps: minOps}
}

// now returns the time since the window opened.
func (l *opLog) now() time.Duration { return time.Since(l.begin) }

// open reports whether a new operation may start.
func (l *opLog) open() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.now() < l.window || len(l.ops) < l.minOps
}

// calibrate times the host reference and starts a segment with it; it
// returns the reference. No operation of the workload may be running.
func (l *opLog) calibrate() hostRef {
	cal := l.now()
	ref := hostReference()
	l.mu.Lock()
	l.segs = append(l.segs, segment{cal: cal, start: l.now(), ref: ref})
	l.mu.Unlock()
	return ref
}

func (l *opLog) add(o op) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 || o.start < l.segs[0].start {
		panic("bench: operation started before the first calibrate")
	}
	l.ops = append(l.ops, o)
}

// snapshot returns the operations with their host-normalised latencies,
// and the normalised time the window was busy: from the end of the first
// calibration to the end of the last operation, calibrations left out.
func (l *opLog) snapshot() ([]op, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	refs := smoothed(l.segs)
	ops := append([]op(nil), l.ops...)
	var last time.Duration
	for i, o := range ops {
		ops[i].norm = normalisedSpan(l.segs, refs, o.start, o.end)
		last = max(last, o.end)
	}
	if len(ops) == 0 {
		return nil, 0
	}
	return ops, normalisedSpan(l.segs, refs, l.segs[0].start, last)
}

// throughput returns read-outs per host-normalised second of busy time:
// every read-out of a successful operation counts.
func throughput(ops []op, busy time.Duration) float64 {
	var n int64
	for _, o := range ops {
		if o.err == nil {
			n += o.readouts
		}
	}
	return float64(n) / busy.Seconds() // NaN without operations
}

// latencyP50 is the median operation latency in milliseconds. A workload
// that mixes operation kinds reports the mean of the per-kind medians, so
// the statistic does not jump between kinds as their counts shift by one.
func latencyP50(ops []op, keep func(op) bool) float64 {
	byKind := map[int][]float64{}
	for _, o := range ops {
		if o.err == nil && keep(o) {
			byKind[o.kind] = append(byKind[o.kind], float64(o.latency())/1e6)
		}
	}
	if len(byKind) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range byKind {
		sum += median(v)
	}
	return sum / float64(len(byKind))
}

// traceOverhead compares traced with untraced operations of a traced run:
// the ratio of their median latencies, minus one.
func traceOverhead(ops []op) float64 {
	traced := latencyP50(ops, func(o op) bool { return o.traced })
	plain := latencyP50(ops, func(o op) bool { return !o.traced })
	return traced/plain - 1
}

// watchLiveHeap samples the live heap — what the last collection found
// reachable — every few milliseconds until the returned function is
// called, which returns the mean sample in MB: the memory a workload keeps
// resident while it runs, averaged over time. Unlike peak RSS it leaves out
// the collector's slack and the host's page handling, and unlike a peak or
// a median it does not hang on where a collection fell in an operation or
// on which of the service's campaign kinds happened to be in flight.
func watchLiveHeap() func() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() float64 {
		metrics.Read(sample)
		return float64(sample[0].Value.Uint64())
	}
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		samples := []float64{read()}
		for {
			select {
			case <-stop:
				samples = append(samples, read())
				sum := 0.0
				for _, v := range samples {
					sum += v
				}
				done <- sum / float64(len(samples))
				return
			case <-tick.C:
				samples = append(samples, read())
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done / 1e6
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianInt(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f)
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(data, n=4) computes them (the "exclusive" method),
// which is how the benchmark's spread rules are stated. It needs at least
// two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		j = min(max(j, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// outcome collects what a workload's checks and traced run produce outside
// the timed window: correctness problems, per-layer metric values and
// human-readable notes.
type outcome struct {
	problems []string
	notes    []string
	layer    map[string]float64
}

func newOutcome() *outcome {
	r := &outcome{layer: map[string]float64{}}
	for _, m := range perLayer {
		r.layer[m.name] = 0
	}
	return r
}

func (r *outcome) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *outcome) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// set records a per-layer metric; it must be one of the perLayer names.
func (r *outcome) set(name string, v float64) {
	if _, ok := r.layer[name]; !ok {
		panic("bench: unknown per-layer metric " + name)
	}
	r.layer[name] = v
}

// ratio divides, reading 0 when the denominator is (a layer never called).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
