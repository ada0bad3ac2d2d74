package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
)

// benchSpec is the part of a checkout's BENCHMARK.json the comparison and
// the tests read.
type benchSpec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// The comparison runs comparePairs parent/change pairs per workload; pair i
// runs seed compareSeed+i on both sides.
const (
	comparePairs = 10
	compareSeed  = 1
)

// compareMain runs the benchmark of a parent and a change checkout in
// alternating pairs — the parent first in even pairs, the change first in
// odd ones, both sides on the same seed — and judges every end-to-end
// metric on every workload by the rules of judge. Bounds, the command and
// the run length come from the parent's BENCHMARK.json.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parent := fs.String("parent", "", "checkout of the parent commit")
	change := fs.String("change", "", "checkout of the change")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parent == "" || *change == "" {
		fmt.Fprintln(os.Stderr, "compare: need -parent and -change")
		return 2
	}
	spec, err := readBenchSpec(filepath.Join(*parent, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range spec.Workloads {
		var runs [2][]result // [parent, change]
		for i := 0; i < comparePairs; i++ {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, side := range order {
				dir := []string{*parent, *change}[side]
				res, err := runCheckout(dir, spec, w.Name, compareSeed+uint64(i))
				if err != nil {
					fmt.Fprintf(os.Stderr, "compare: %s pair %d in %s: %v\n", w.Name, i, dir, err)
					return 1
				}
				runs[side] = append(runs[side], res)
			}
		}
		for _, m := range spec.EndToEnd {
			var p, c []float64
			for i := range runs[0] {
				p = append(p, runs[0][i].Metrics[m.Name].Value)
				c = append(c, runs[1][i].Metrics[m.Name].Value)
			}
			v := judge(p, c, m.Better == "higher", m.Bound)
			fmt.Fprintf(stdout, "%-15s %-12s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  %+.2f%%  wins %d/%d  %s\n",
				w.Name, m.Name, v.parent[1], v.parent[0], v.parent[2], v.change[1], v.change[0], v.change[2],
				100*v.improvement, v.wins, len(p), v.call)
			if v.call == callRegression || v.call == callUnresolved {
				status = 1
			}
		}
	}
	return status
}

// runCheckout runs one workload once in a checkout and decodes its result.
func runCheckout(dir string, spec benchSpec, workload string, seed uint64) (result, error) {
	args := append(slices.Clone(spec.Command[1:]), "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(spec.RunSeconds), "--trace", "0")
	cmd := exec.Command(spec.Command[0], args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	var last string
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return result{}, fmt.Errorf("incorrect run (%d of %d operations failed)", res.Failed, res.Attempted)
	}
	return res, nil
}

// The calls a comparison makes on one metric of one workload.
const (
	callGain       = "gain"
	callAllBetter  = "better in every run"
	callWithin     = "no regression"
	callRegression = "REGRESSION"
	callUnresolved = "UNRESOLVED"
)

type comparison struct {
	parent, change [3]float64 // first quartile, median, third quartile
	wins           int        // pairs the change won; ties count for neither side
	improvement    float64    // relative change of the median, positive when better
	call           string
}

// judge applies the pair rules to one metric's runs, paired by index:
//
//   - a gain needs the change to win at least nine tenths of the pairs and
//     the medians to differ by more than the parent's own quartile spread;
//   - otherwise, when either side's quartile spread, as a share of its
//     median, exceeds the bound, the metric is unresolved — unless every
//     change run beats every parent run;
//   - otherwise the change regresses when its median is worse than the
//     parent's by more than the bound.
func judge(parent, change []float64, higherBetter bool, bound float64) comparison {
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	var c comparison
	for i := range parent {
		if better(change[i], parent[i]) {
			c.wins++
		}
	}
	c.parent[0], c.parent[2] = quartiles(parent)
	c.change[0], c.change[2] = quartiles(change)
	c.parent[1], c.change[1] = median(parent), median(change)
	c.improvement = (c.change[1] - c.parent[1]) / c.parent[1]
	if !higherBetter {
		c.improvement = -c.improvement
	}
	spread := max((c.parent[2]-c.parent[0])/c.parent[1], (c.change[2]-c.change[0])/c.change[1])
	allBetter := true
	for _, x := range change {
		for _, y := range parent {
			allBetter = allBetter && better(x, y)
		}
	}
	gap := c.change[1] - c.parent[1]
	switch {
	case 10*c.wins >= 9*len(parent) && c.improvement > 0 && max(gap, -gap) > c.parent[2]-c.parent[0]:
		c.call = callGain
	case spread > bound && allBetter:
		c.call = callAllBetter
	case spread > bound:
		c.call = callUnresolved
	case -c.improvement > bound:
		c.call = callRegression
	default:
		c.call = callWithin
	}
	return c
}
