package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// rig-archive records a campaign through the full measurement-rig
// simulation (harness, desim, i2c) — 16 boards, months 0..1, 250 read-outs
// per board and month — with the rig's record tap writing an indexed binary
// archive, then replays that archive eight times through an ArchiveSource
// and the engine. The store layer is used on both sides, writes while
// recording and reads on replay, so a gain for one cannot hide a loss on
// the other. Cycle i records on seed+i; each recorded month and each replay
// is an operation, of its own kind.
const (
	rigBoards  = 16
	rigWindow  = 250
	rigLast    = 1
	rigReplays = 8

	rigRecordOp = 0 // operation kinds
	rigReplayOp = 1
)

type rigArchive struct {
	e      *env
	src    *core.RigSource // operation 0, built by set-up
	cycles []rigCycle

	// Traced operations only.
	recProbes, repProbes []*sourceProbe
	tap, flush           Counter // archive writes: per record, and the sealing flush
	open                 Counter // archive opens
	written, read        int64   // archive bytes
}

// rigCycle is what one operation produced: digests of the recorded
// campaign and of each replay, and the archive's size.
type rigCycle struct {
	record  string
	replays []string
	bytes   int64
}

func setupRigArchive(e *env) (instance, error) {
	src, err := core.NewRigSource(e.atmega, rigBoards, e.seed, 0)
	if err != nil {
		return nil, err
	}
	return &rigArchive{e: e, src: src}, nil
}

func (g *rigArchive) run(ctx context.Context, l *opLog) error {
	for i := 0; l.open(); i++ {
		cy, err := g.cycle(ctx, i, g.e.traced(i), l)
		if err != nil {
			return err
		}
		g.cycles = append(g.cycles, cy)
	}
	return nil
}

// cycle records campaign i into a fresh archive and replays it. With a log,
// each recorded month and each replay is an operation in it; the replays
// are short, so one calibration covers all of them.
func (g *rigArchive) cycle(ctx context.Context, i int, traced bool, l *opLog) (rigCycle, error) {
	var at, cur scope
	if traced {
		at = g.e.span(i, "cycle")
		defer at.end()
	}
	src := g.src
	g.src = nil // one cycle's rig lives at a time
	if src == nil {
		var err error
		if src, err = core.NewRigSource(g.e.atmega, rigBoards, g.e.seed+uint64(i), 0); err != nil {
			return rigCycle{}, err
		}
	}
	path := filepath.Join(g.e.dir, fmt.Sprintf("cycle-%d.bin", i))
	defer os.Remove(path)
	size, rec, err := g.record(ctx, at, &cur, path, src, traced, l)
	if err != nil {
		return rigCycle{}, err
	}
	cy := rigCycle{record: resultDigest(rec), bytes: size}
	if l != nil {
		l.calibrate()
	}
	for r := 0; r < rigReplays; r++ {
		var start time.Duration
		if l != nil {
			start = l.now()
		}
		res, err := g.replay(ctx, at, &cur, path, traced)
		if l != nil {
			o := op{kind: rigReplayOp, start: start, end: l.now(), traced: traced, err: err}
			if err == nil {
				o.readouts = readouts(res, rigWindow)
			}
			l.add(o)
		}
		if err != nil {
			return rigCycle{}, err
		}
		cy.replays = append(cy.replays, resultDigest(res))
		if traced {
			g.read += size
		}
	}
	return cy, nil
}

// record runs the rig campaign with its tap writing the archive at path.
// With a log, each month is an operation in it.
func (g *rigArchive) record(ctx context.Context, at scope, cur *scope, path string, src *core.RigSource, traced bool, l *opLog) (int64, *core.Results, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	w := store.NewBinaryWriter(f)
	var source core.Source = src
	var probe *sourceProbe
	if traced {
		at = at.begin("record")
		defer at.end()
		src.SetTap(timedTap(at.tr, &g.tap, w.Write))
		probe = newProbe(src, 1, cur) // the rig pumps in the caller's goroutine
		g.recProbes = append(g.recProbes, probe)
		source = probe
	} else {
		src.SetTap(w.Write)
	}
	var start time.Duration
	if l != nil {
		l.calibrate()
		start = l.now()
	}
	cfg := core.AssessmentConfig{Source: source, WindowSize: rigWindow, Months: core.MonthRange(rigLast)}
	res, err := monthly(ctx, cfg, at, cur, probe, nil, func(m int, _ core.MonthEval) {
		if l == nil {
			return
		}
		l.add(op{kind: rigRecordOp, start: start, end: l.now(), readouts: rigBoards * rigWindow, traced: traced})
		if m < rigLast {
			l.calibrate()
			start = l.now()
		}
	})
	if err != nil {
		return 0, nil, err
	}
	if err := timed(at.tr, &g.flush, w.Flush); err != nil {
		return 0, nil, err
	}
	if err := f.Close(); err != nil {
		return 0, nil, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return 0, nil, err
	}
	if traced {
		g.written += info.Size()
	}
	return info.Size(), res, nil
}

func (g *rigArchive) replay(ctx context.Context, at scope, cur *scope, path string, traced bool) (*core.Results, error) {
	if traced {
		at = at.begin("replay")
		defer at.end()
	}
	var as *core.ArchiveSource
	err := timed(at.tr, &g.open, func() (err error) {
		as, err = core.OpenArchiveSource(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer as.Close()
	as.SetWorkers(workers)
	var source core.Source = as
	var probe *sourceProbe
	if traced {
		probe = newProbe(as, workers, cur)
		g.repProbes = append(g.repProbes, probe)
		source = probe
	}
	return monthly(ctx, core.AssessmentConfig{Source: source, WindowSize: rigWindow}, at, cur, probe, nil, nil)
}

func (g *rigArchive) check(ctx context.Context, r *outcome) error {
	if len(g.cycles) == 0 {
		r.fail("rig-archive: no cycle completed")
		return nil
	}
	for i, cy := range g.cycles {
		for k, d := range cy.replays {
			if d != cy.record {
				r.fail("rig-archive: cycle %d replay %d differs from the recorded campaign", i, k)
			}
		}
	}
	g.e.golden.check(r, "rig-archive.archive_bytes", fmt.Sprint(g.cycles[0].bytes))

	if g.e.tr == nil {
		return nil
	}
	if len(g.cycles) > 1 {
		cy, err := g.cycle(ctx, 1, false, nil)
		if err != nil {
			return err
		}
		if cy.record != g.cycles[1].record || cy.bytes != g.cycles[1].bytes {
			r.fail("rig-archive: traced cycle 1 differs from its untraced rerun")
		}
	}
	reportCore(r, g.e.tr.Spans(), append(append([]*sourceProbe(nil), g.recProbes...), g.repProbes...)...)
	r.set("core.survivor_ratio", 1)
	var recNs, recAdd, repNs float64
	for _, p := range g.recProbes {
		recNs += float64(p.measureNs)
		recAdd += float64(p.add.Ns())
	}
	for _, p := range g.repProbes {
		repNs += float64(p.workerNs - p.add.Ns())
	}
	r.set("harness.self_share", ratio(recNs-float64(g.tap.Ns())-recAdd, recNs))
	r.set("store.write_mb_per_s", ratio(float64(g.written)/1e6, float64(g.tap.Ns()+g.flush.Ns())/1e9))
	r.set("store.read_mb_per_s", ratio(float64(g.read)/1e6, (float64(g.open.Ns())+repNs)/1e9))
	r.set("store.archive_mb", float64(g.cycles[0].bytes)/1e6)
	single, err := core.NewFleet(g.e.atmega)
	if err != nil {
		return err
	}
	return reportDecomposition(ctx, r, decompConfig{
		fleet:  single,
		seed:   g.e.seed,
		window: rigWindow,
		months: core.MonthRange(rigLast),
		sample: sampleDevices(g.e.seed, rigBoards, 4),
	}, sourcePerDeviceMonth(rigWindow, g.recProbes...))
}

func (g *rigArchive) close() error { return nil }
