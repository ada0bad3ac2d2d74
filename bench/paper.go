package main

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/report"
)

// paper-campaign is the paper's exact campaign: 16 ATmega32u4 boards
// sampled directly from eager simulated chips, months 0..24, 1,000
// read-outs of 8,192 bits per board and month. Steady-state power-up
// sampling and stream accumulation dominate; chip rebuild and archive I/O
// are absent. One operation is one evaluated month; campaigns run back to
// back on seed, seed+1, ... until the window closes.
const (
	paperDevices = 16
	paperWindow  = 1000
	paperLast    = 24

	// paperCoverage is the share of Measure worker-seconds a traced run's
	// read-out production and stream accumulation must account for.
	paperCoverage = 0.90
)

type paperCampaign struct {
	e      *env
	src    *core.SimSource  // campaign 0, built by set-up
	months []core.MonthEval // campaign 0's evaluated months
	table  *core.TableI     // campaign 0's Table I, when it ran to month 24
	probes []*sourceProbe
}

func setupPaper(e *env) (instance, error) {
	src, err := paperSource(e, 0)
	if err != nil {
		return nil, err
	}
	return &paperCampaign{e: e, src: src}, nil
}

// paperSource builds campaign c's chips; campaign c runs on seed+c.
func paperSource(e *env, c int) (*core.SimSource, error) {
	src, err := core.NewSimSource(e.atmega, paperDevices, e.seed+uint64(c))
	if err != nil {
		return nil, err
	}
	src.SetWorkers(workers)
	return src, nil
}

// run evaluates campaign after campaign, each month one operation, until
// the window closes. At the golden seed campaign 0 runs on, untimed, to
// month 24: its Table I is a golden output.
func (p *paperCampaign) run(ctx context.Context, l *opLog) error {
	for c := 0; c == 0 || l.open(); c++ {
		src := p.src
		p.src = nil // one campaign's chips live at a time
		if c > 0 {
			var err error
			if src, err = paperSource(p.e, c); err != nil {
				return err
			}
		}
		finish := c == 0 && p.e.seed == goldenSeed
		res, err := p.campaign(ctx, l, c, src, finish)
		switch {
		case err == nil:
			if c == 0 {
				p.table = &res.Table
			}
		case finish || !errors.Is(err, context.Canceled):
			return err
		}
	}
	return nil
}

func (p *paperCampaign) campaign(ctx context.Context, l *opLog, c int, src *core.SimSource, finish bool) (*core.Results, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var source core.Source = src
	var probe *sourceProbe
	var cur, camp scope
	if p.e.tr != nil {
		camp = p.e.span(c, "campaign")
		defer camp.end()
		probe = newProbe(src, workers, &cur)
		p.probes = append(p.probes, probe)
		source = probe
	}
	// Months alternate plain and traced on a traced run.
	traced := func(i int) bool { return i%2 == 1 }
	l.calibrate()
	start, open := l.now(), true
	cfg := core.AssessmentConfig{Source: source, WindowSize: paperWindow, Months: core.MonthRange(paperLast)}
	return monthly(ctx, cfg, camp, &cur, probe, traced, func(i int, ev core.MonthEval) {
		if c == 0 {
			p.months = append(p.months, ev)
		}
		if open {
			l.add(op{start: start, end: l.now(), readouts: paperDevices * paperWindow, traced: probe != nil && traced(i)})
			open = l.open()
		}
		switch {
		case !open && !finish:
			cancel() // before the next month starts
		case open && i < paperLast:
			l.calibrate()
			start = l.now()
		}
	})
}

func (p *paperCampaign) check(ctx context.Context, r *outcome) error {
	// Cross path: the lazy source rebuilds two sampled boards from the seed
	// and must reproduce their every evaluated month bit for bit.
	sample := sampleDevices(p.e.seed, paperDevices, 2)
	single, err := core.NewFleet(p.e.atmega)
	if err != nil {
		return err
	}
	lazy, err := core.NewLazySimFleetSourceSubset(single, p.e.seed, p.e.atmega.NominalScenario(), sample)
	if err != nil {
		return err
	}
	lazy.SetWorkers(workers)
	a, err := core.NewAssessment(core.AssessmentConfig{Source: lazy, WindowSize: paperWindow, Months: core.MonthRange(len(p.months) - 1)})
	if err != nil {
		return err
	}
	twin, err := a.Run(ctx)
	if err != nil {
		return err
	}
	for m, ev := range p.months {
		for j, d := range sample {
			if twin.Monthly[m].Devices[j] != ev.Devices[d] {
				r.fail("paper-campaign: board %d month %d: eager %+v, lazy %+v", d, m, ev.Devices[d], twin.Monthly[m].Devices[j])
			}
		}
	}

	if p.table != nil {
		p.checkTable(r, *p.table)
	}
	if p.e.tr == nil {
		return nil
	}
	reportCore(r, p.e.tr.Spans(), p.probes...)
	r.set("core.survivor_ratio", 1)
	// Production and accumulation must account for the Measure time.
	// SimSource.Measure ages every chip on the calling goroutine before its
	// workers start, so until the first read-out one thread works while the
	// others wait: that prefix counts once as production, and the waiting
	// leaves the worker-seconds. What remains unaccounted is each device's
	// first read-out and the pool's scheduling.
	var gapNs, addNs, workerNs float64
	for _, pr := range p.probes {
		gapNs += float64(pr.gapNs + pr.prefixNs)
		addNs += float64(pr.add.Ns())
		workerNs += float64(pr.workerNs - int64(workers-1)*pr.prefixNs)
	}
	covered := ratio(gapNs+addNs, workerNs)
	r.note("paper-campaign accounting: read-out production %.1f%% + stream accumulation %.1f%% of Measure worker-seconds",
		100*ratio(gapNs, workerNs), 100*ratio(addNs, workerNs))
	if covered < paperCoverage {
		r.fail("paper-campaign accounting: production and accumulation cover %.1f%% of Measure worker-seconds, under %.0f%%", 100*covered, 100*paperCoverage)
	}
	return reportDecomposition(ctx, r, decompConfig{
		fleet:   single,
		seed:    p.e.seed,
		window:  paperWindow,
		months:  core.MonthRange(2),
		sample:  sampleDevices(p.e.seed, paperDevices, 4),
		workers: workers,
	}, sourcePerDeviceMonth(paperWindow, p.probes...))
}

// checkTable holds Table I of the paper's campaign to sanity bands around
// the paper's values and to its golden digest, and prints how close the
// model comes to the paper's headline drift.
func (p *paperCampaign) checkTable(r *outcome, t core.TableI) {
	bands := []struct {
		name      string
		v, lo, hi float64
	}{
		{"WCHD start", t.WCHD.Avg.Start, 0.020, 0.030},
		{"WCHD relative change", t.WCHD.Avg.Relative, 0.10, 0.30},
		{"HW start", t.HW.Avg.Start, 0.58, 0.68},
		{"stable cells start", t.StableCells.Avg.Start, 0.85, 0.95},
		{"BCHD start", t.BCHD.Avg.Start, 0.44, 0.52},
	}
	for _, b := range bands {
		if !(b.v >= b.lo && b.v <= b.hi) {
			r.fail("paper-campaign: Table I %s %.4f outside [%.3f, %.3f]", b.name, b.v, b.lo, b.hi)
		}
	}
	r.note("paper accuracy (in-sample fit: the device model is calibrated on this paper): WCHD %+.2f%%, noise entropy %+.2f%% over 24 months; the paper reports +19.3%% for both",
		100*t.WCHD.Avg.Relative, 100*t.NoiseEntropy.Avg.Relative)
	p.e.golden.check(r, "paper-campaign.table_i", digest(report.RenderTableI(t)))
}

func (p *paperCampaign) close() error { return nil }
