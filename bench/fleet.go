package main

import (
	"context"
	"math"

	"repro/internal/core"
)

// fleet-screen screens a two-model fleet (fleetnode-1kb + fleetnode-2kb)
// on lazily constructed silicon: months 0..2, 4 read-outs of 256 bits per
// device and month, pruning every device whose stable-cell ratio falls
// below 0.95. Rebuilding each device per month (Reset, SetNoiseScale, the
// AgeTo replay, JumpNoise) does most of the work and accumulation is tiny —
// the opposite balance to paper-campaign. One operation is one screening
// campaign over fleetDevices fresh devices (seed+i).
const (
	fleetWindow = 4
	fleetLast   = 2
	fleetFloor  = 0.95

	// fleetAccounting is how far, as a share, a traced run's sram stages
	// may sum from the per-device source time the lazy source takes;
	// fleetAccountRounds is how many times each is timed.
	fleetAccounting    = 0.15
	fleetAccountRounds = 2
)

// fleetDevices is a variable only so tests can run the workload small.
var fleetDevices = 250

type fleetScreen struct {
	e       *env
	src     *core.LazySimSource // operation 0, built by set-up
	first   *core.Results       // operation 0
	digests []string            // per operation, for traced ≡ untraced
	probes  []*sourceProbe
	alive   []float64 // per month: devices measured by traced operations

	second *core.Results // operation 1, which the sram decomposition replays
}

func setupFleet(e *env) (instance, error) {
	src, err := fleetSource(e, 0)
	if err != nil {
		return nil, err
	}
	return &fleetScreen{e: e, src: src, alive: make([]float64, fleetLast+1)}, nil
}

func fleetSource(e *env, i int) (*core.LazySimSource, error) {
	src, err := core.NewLazySimFleetSource(e.fleet, fleetDevices, e.seed+uint64(i))
	if err != nil {
		return nil, err
	}
	src.SetWorkers(workers)
	return src, nil
}

func (f *fleetScreen) run(ctx context.Context, l *opLog) error {
	for i := 0; l.open(); i++ {
		l.calibrate()
		start := l.now()
		src := f.src
		f.src = nil // one campaign's source lives at a time
		if i > 0 {
			var err error
			if src, err = fleetSource(f.e, i); err != nil {
				return err
			}
		}
		res, err := f.screen(ctx, i, src, f.e.traced(i), func() { l.calibrate() })
		o := op{start: start, end: l.now(), traced: f.e.traced(i), err: err}
		if err == nil {
			o.readouts = readouts(res, fleetWindow)
			switch i {
			case 0:
				f.first = res
			case 1:
				f.second = res
			}
			f.digests = append(f.digests, resultDigest(res))
		}
		l.add(o)
		if err != nil {
			return err
		}
	}
	return nil
}

// fleetConfig is one screening campaign on src.
func fleetConfig(src core.Source) core.AssessmentConfig {
	return core.AssessmentConfig{
		Source:     src,
		WindowSize: fleetWindow,
		Months:     core.MonthRange(fleetLast),
		Screening:  &core.ScreeningConfig{Floor: fleetFloor},
	}
}

// screen runs one screening campaign, probed when traced; between, if
// not nil, runs between its months.
func (f *fleetScreen) screen(ctx context.Context, i int, src core.Source, traced bool, between func()) (*core.Results, error) {
	var at, cur scope
	var probe *sourceProbe
	if traced {
		at = f.e.span(i, "campaign")
		defer at.end()
		probe = newProbe(src, workers, &cur)
		f.probes = append(f.probes, probe)
		src = probe
	}
	res, err := monthly(ctx, fleetConfig(src), at, &cur, probe, nil, func(m int, _ core.MonthEval) {
		if between != nil && m < fleetLast {
			between()
		}
	})
	if err == nil && traced {
		for m, ev := range res.Monthly {
			f.alive[m] += float64(len(ev.Devices))
		}
	}
	return res, err
}

func (f *fleetScreen) check(ctx context.Context, r *outcome) error {
	if f.first == nil {
		r.fail("fleet-screen: no campaign completed")
		return nil
	}
	// Cross path: eager chips for a device sample must reproduce the lazy
	// campaign's per-device metrics in every month each device was alive,
	// and the prune decisions must follow from them.
	sample := sampleDevices(f.e.seed, fleetDevices, 16)
	eager, err := core.NewSimFleetSourceSubset(f.e.fleet, f.e.seed, f.e.fleet.Profiles()[0].NominalScenario(), sample)
	if err != nil {
		return err
	}
	a, err := core.NewAssessment(core.AssessmentConfig{Source: eager, WindowSize: fleetWindow, Months: core.MonthRange(fleetLast)})
	if err != nil {
		return err
	}
	twin, err := a.Run(ctx)
	if err != nil {
		return err
	}
	survivors := make([]int, len(f.first.Monthly))
	for m, ev := range f.first.Monthly {
		survivors[m] = len(ev.Devices)
		for j, g := range sample {
			got, alive := ev.DeviceMonthAt(g)
			if !alive {
				continue
			}
			if want := twin.Monthly[m].Devices[j]; got != want {
				r.fail("fleet-screen: device %d month %d: lazy %+v, eager %+v", g, m, got, want)
			}
			if m+1 < len(f.first.Monthly) {
				_, next := f.first.Monthly[m+1].DeviceMonthAt(g)
				if next != (got.StableRatio >= fleetFloor) {
					r.fail("fleet-screen: device %d month %d: stable ratio %.4f against floor %.2f, yet alive next month = %v", g, m, got.StableRatio, fleetFloor, next)
				}
			}
		}
	}
	f.e.golden.check(r, "fleet-screen.survivors", intList(survivors))

	if f.e.tr == nil {
		return nil
	}
	if len(f.digests) > 1 {
		src, err := fleetSource(f.e, 1)
		if err != nil {
			return err
		}
		res, err := f.screen(ctx, 1, src, false, nil)
		if err != nil {
			return err
		}
		if resultDigest(res) != f.digests[1] {
			r.fail("fleet-screen: traced campaign 1 differs from its untraced rerun")
		}
	}
	if f.second == nil {
		r.fail("fleet-screen: no traced campaign completed")
		return nil
	}
	reportCore(r, f.e.tr.Spans(), f.probes...)
	r.set("core.survivor_ratio", ratio(f.alive[fleetLast], f.alive[0]))
	// The decomposition replays exactly the device-months traced operation 1
	// measured, on as many slots as the lazy source runs.
	every := make([]int, fleetDevices)
	for g := range every {
		every[g] = g
	}
	c := decompConfig{
		fleet:   f.e.fleet,
		seed:    f.e.seed + 1,
		window:  fleetWindow,
		months:  core.MonthRange(fleetLast),
		sample:  every,
		workers: workers,
		alive: func(mi, g int) bool {
			_, ok := f.second.Monthly[mi].DeviceMonthAt(g)
			return ok
		},
	}
	if err := reportDecomposition(ctx, r, c, sourcePerDeviceMonth(fleetWindow, f.probes...)); err != nil {
		return err
	}
	return f.account(ctx, r, c)
}

// account holds the sram stages to the lazy source's own time. Operation 1
// runs again under a probe and the decomposition replays it right after,
// fleetAccountRounds times in alternation, so both sides see the host in
// the same state; the stages must sum to within fleetAccounting of the
// probed per-device-month source time.
func (f *fleetScreen) account(ctx context.Context, r *outcome, c decompConfig) error {
	at := f.e.span(-1, "accounting")
	defer at.end()
	var cur scope
	var stagesNs, observedNs float64
	for range fleetAccountRounds {
		src, err := fleetSource(f.e, 1)
		if err != nil {
			return err
		}
		probe := newProbe(src, workers, &cur)
		if _, err := monthly(ctx, fleetConfig(probe), at, &cur, probe, nil, nil); err != nil {
			return err
		}
		d, err := decompose(c)
		if err != nil {
			return err
		}
		_, total := d.perDeviceMonth()
		stagesNs += total
		observedNs += sourcePerDeviceMonth(fleetWindow, probe)
	}
	share := ratio(stagesNs, observedNs)
	r.note("fleet-screen accounting: the sram stages sum to %.1f%% of the lazy source's per-device-month time", 100*share)
	if math.Abs(share-1) > fleetAccounting {
		r.fail("fleet-screen accounting: the sram stages sum to %.1f%% of the lazy source's per-device-month time, more than %.0f%% off",
			100*share, 100*fleetAccounting)
	}
	return nil
}

func (f *fleetScreen) close() error { return nil }
