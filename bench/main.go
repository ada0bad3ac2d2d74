// Command bench is the repository's end-to-end benchmark: four workloads
// (paper-campaign, fleet-screen, rig-archive, service), each a closed loop
// measured for a fixed window, with every output checked for correctness.
//
//	bench [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-json FILE]
//	bench -workload NAME -seed N -seconds S -trace 0|1
//	bench compare -parent DIR -change DIR
//
// Without -workload every workload runs in its own child process, so no
// workload's memory or warm state carries into the next, and each metric
// prints as "workload metric value unit". With -workload one workload runs
// in this process and the last line of output is its JSON result. -trace 0
// reports the end-to-end metrics, host-normalised (hostspeed.go); -trace 1
// is a separate traced run that reports the per-layer ones. The exit status
// is non-zero when any correctness check fails. bench/README.md describes
// the metrics and workloads; run.sh builds and runs it from a checkout.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spans    string
	json     string
	workdir  string
	golden   string
}

// result is a workload run's JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process")
	fs.Uint64Var(&o.seed, "seed", goldenSeed, "seed every workload input derives from")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed window, seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "write the traced run's spans to this JSON file")
	fs.StringVar(&o.json, "json", "", "write every workload's result to this JSON file")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for archives and service data")
	fs.StringVar(&o.golden, "golden", "", "record the default seed's outputs into this golden file instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	o.trace = *trace == 1
	if o.workload == "" {
		return runAll(o, stdout)
	}
	res, err := runOne(o, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload in this process: set-up, the timed window, the
// repeated set-ups, then the checks.
func runOne(o options, stdout io.Writer) (result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	golden, err := newGoldens(o.seed, o.golden != "")
	if err != nil {
		return result{}, err
	}
	e, err := newEnv(o.seed, o.workdir, o.trace, golden)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(e.dir)

	ref := hostReference()
	t0 := time.Now()
	inst, err := w.setup(e)
	first := ref.normalise(time.Since(t0))
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	setups := []float64{first.Seconds()}
	if !o.trace {
		before, err := repeatSetups(e, w)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, before...)
	}
	ctx := context.Background()
	runtime.GC() // the window starts from the set-up's live heap alone
	heap := watchLiveHeap()
	minOps := 1
	if o.trace {
		minOps = w.tracedOps
	}
	l := newOpLog(time.Duration(o.seconds)*time.Second, minOps)
	runErr := inst.run(ctx, l)
	ops, busy := l.snapshot()
	runtime.GC() // what the window leaves reachable counts too
	live := heap()
	if !o.trace {
		after, err := repeatSetups(e, w)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, after...)
	}

	r := newOutcome()
	failed := 0
	for _, op := range ops {
		if op.err != nil {
			failed++
			r.fail("operation failed: %v", op.err)
		}
	}
	if runErr != nil && failed == 0 {
		failed++
		r.fail("run: %v", runErr)
	}
	if runErr == nil {
		if err := inst.check(ctx, r); err != nil {
			r.fail("check: %v", err)
		}
	}
	if o.golden != "" {
		if err := golden.write(o.golden); err != nil {
			r.fail("golden: %v", err)
		}
	}

	res := result{Attempted: max(len(ops), failed), Failed: failed, Metrics: map[string]metric{}}
	if o.trace {
		r.set("trace.overhead", traceOverhead(ops))
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{finite(r, m.name, r.layer[m.name]), m.unit}
		}
		if o.spans != "" {
			if err := e.tr.WriteFile(o.spans); err != nil {
				return result{}, err
			}
		}
	} else {
		values := map[string]float64{
			"setup_s":    median(setups),
			"meas_per_s": throughput(ops, busy),
			"op_p50_ms":  latencyP50(ops, func(op) bool { return true }),
			"heap_mb":    live,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{finite(r, m.name, values[m.name]), m.unit}
		}
	}
	res.Correct = len(r.problems) == 0
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "# %s: %s\n", o.workload, n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(stdout, "# %s: INCORRECT: %s\n", o.workload, p)
	}
	fmt.Fprintf(stdout, "# %s: %d operations, %d failed, %d set-ups\n", o.workload, len(ops), failed, len(setups))
	printMetrics(stdout, o.workload, res.Metrics)
	return res, nil
}

// finite keeps the JSON line encodable: a metric that could not be computed
// (no operation finished) reads 0 and fails the run.
func finite(r *outcome, name string, v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s could not be computed", name)
		return 0
	}
	return v
}

func printMetrics(w io.Writer, workload string, ms map[string]metric) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := ms[d.name]; ok {
				fmt.Fprintf(w, "%s %s %s %s\n", workload, d.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
			}
		}
	}
}

// runAll runs every workload in a child process of its own and gathers the
// results.
func runAll(o options, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	results := map[string]result{}
	spans := map[string]json.RawMessage{}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", trace, "-workdir", o.workdir}
		if o.golden != "" {
			args = append(args, "-golden", o.golden)
		}
		spanFile := ""
		if o.spans != "" {
			spanFile = filepath.Join(o.workdir, "spans-"+w.name+".json")
			args = append(args, "-spans", spanFile)
		}
		res, err := runChild(self, args, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			status = 1
			continue
		}
		results[w.name] = res
		if !res.Correct {
			status = 1
		}
		if spanFile != "" {
			data, err := os.ReadFile(spanFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				status = 1
				continue
			}
			os.Remove(spanFile)
			spans[w.name] = data
		}
	}
	for path, v := range map[string]any{o.json: results, o.spans: spans} {
		if path == "" {
			continue
		}
		data, err := json.MarshalIndent(v, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			status = 1
		}
	}
	return status
}

// runChild runs one workload as a child process, passing its report lines
// through and decoding its final JSON line.
func runChild(self string, args []string, stdout io.Writer) (result, error) {
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		return result{}, errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	if runErr != nil && res.Correct {
		return result{}, runErr
	}
	return res, nil
}
