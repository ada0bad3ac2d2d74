package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/entropy"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/silicon"
	"repro/internal/sram"
	"repro/internal/store"
	"repro/internal/stream"
)

// This file holds the engine's independent oracle: the Config-driven
// Campaign and its historical collect-then-evaluate engine (RunBatch),
// which materialises every window and hands it to the batch metric
// functions. The streaming engine is held to it bit for bit
// (streaming_test.go), on the direct path and on the rig path.

// Config parameterises a campaign.
type Config struct {
	Profile    silicon.DeviceProfile
	Devices    int // boards under test (16 in the paper)
	Months     int // campaign length; evaluations run at months 0..Months
	WindowSize int // measurements per evaluation window (1,000 in the paper)
	Seed       uint64

	// UseHarness routes every evaluation window through the full rig
	// simulation (masters, power switch, I2C, Pi). The direct path is
	// bit-identical and faster; the harness path exists to exercise and
	// validate the full measurement chain.
	UseHarness   bool
	I2CErrorRate float64 // only meaningful with UseHarness

	// Workers bounds evaluation parallelism: it sizes the single
	// stream.Pool scheduler that both execution paths submit their window
	// jobs to (0 = one goroutine per device on the direct path; the rig
	// path is one simulation-pump job either way).
	Workers int
}

// DefaultConfig returns the paper's campaign: 16 devices, 24 months,
// 1,000-measurement windows.
func DefaultConfig() (Config, error) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		return Config{}, err
	}
	return Config{
		Profile:    profile,
		Devices:    16,
		Months:     24,
		WindowSize: 1000,
		Seed:       20170208,
	}, nil
}

// Validate checks campaign parameters.
func (c Config) Validate() error {
	switch {
	case c.Devices < 2:
		return fmt.Errorf("core: need >= 2 devices for uniqueness metrics, got %d", c.Devices)
	case c.Months < 1:
		return fmt.Errorf("core: need >= 1 month, got %d", c.Months)
	case c.WindowSize < 2:
		return fmt.Errorf("core: need >= 2 measurements per window, got %d", c.WindowSize)
	case c.UseHarness && c.Devices%2 != 0:
		return fmt.Errorf("core: harness path needs an even device count (2 layers), got %d", c.Devices)
	case c.I2CErrorRate < 0 || c.I2CErrorRate > 1:
		return fmt.Errorf("core: I2C error rate %v", c.I2CErrorRate)
	}
	return c.Profile.Validate()
}

// Campaign runs the long-term assessment.
type Campaign struct {
	cfg    Config
	arrays []*sram.Array
	rig    *harness.Rig // nil on the direct path
	sim    *SimSource   // nil on the harness path
	refs   []*bitvec.Vector
	sched  *stream.Pool // the single window-job scheduler of both paths
}

// NewCampaign builds the boards (and the rig, when configured).
func NewCampaign(cfg Config) (*Campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Campaign{cfg: cfg, sched: stream.NewPool(cfg.Workers)}
	// Build the boards through the Source constructors so the seed
	// derivation (and hence the bit-identical equivalence of every
	// execution path) has a single definition.
	if cfg.UseHarness {
		src, err := NewRigSource(cfg.Profile, cfg.Devices, cfg.Seed, cfg.I2CErrorRate)
		if err != nil {
			return nil, err
		}
		c.rig = src.rig
		c.arrays = c.rig.Arrays()
	} else {
		src, err := NewSimSource(cfg.Profile, cfg.Devices, cfg.Seed)
		if err != nil {
			return nil, err
		}
		c.sim, c.arrays = src, src.Arrays()
	}
	return c, nil
}

// Arrays exposes the simulated chips (for extension experiments).
func (c *Campaign) Arrays() []*sram.Array { return c.arrays }

// Run executes the full campaign with the streaming engine and assembles
// Table I. A Campaign instance runs once: every power-up draw advances the
// simulated chips' RNG state, so build a fresh Campaign per run.
//
// Run is a thin shim over the Source/Assessment engine: the campaign's
// chips (or rig) become a Source and the month range becomes the
// assessment's month list, so legacy Config-driven campaigns and the
// composable public API execute the exact same code path.
func (c *Campaign) Run() (*Results, error) {
	return c.RunContext(context.Background())
}

// RunContext is Run with cancellation: it aborts between measurements
// when ctx is done and returns an error wrapping ctx.Err().
func (c *Campaign) RunContext(ctx context.Context) (*Results, error) {
	var src Source
	if c.rig != nil {
		src = &RigSource{rig: c.rig}
	} else {
		c.sim.SetPool(c.sched)
		src = c.sim
	}
	a, err := NewAssessment(AssessmentConfig{Source: src, WindowSize: c.cfg.WindowSize, Months: MonthRange(c.cfg.Months)})
	if err != nil {
		return nil, err
	}
	res, err := a.Run(ctx)
	if err != nil {
		return nil, err
	}
	c.refs = res.References
	return res, nil
}

// RunBatch executes the campaign with the historical two-pass engine:
// every window is materialised as []*bitvec.Vector and handed to the
// batch metric functions. It is retained as the oracle the streaming
// engine is tested against — Run and RunBatch produce bit-identical
// Results for the same Config — and costs O(WindowSize × array) memory
// per device-window where Run costs O(array).
func (c *Campaign) RunBatch() (*Results, error) {
	return c.run(c.evaluateMonthBatch)
}

func (c *Campaign) run(evaluate func(int) (*MonthEval, error)) (*Results, error) {
	res := &Results{}
	for m := 0; m <= c.cfg.Months; m++ {
		eval, err := evaluate(m)
		if err != nil {
			return nil, fmt.Errorf("core: month %d: %w", m, err)
		}
		res.Monthly = append(res.Monthly, *eval)
	}
	res.Table = BuildTable(res.Monthly[0], res.Monthly[c.cfg.Months], c.cfg.Months)
	res.References = c.refs
	return res, nil
}

// age advances every board to the month boundary.
func (c *Campaign) age(month int) error {
	for _, a := range c.arrays {
		if err := a.AgeTo(float64(month)); err != nil {
			return err
		}
	}
	return nil
}

// evaluateMonthBatch is the two-pass oracle: it collects every window in
// memory, then computes all metrics with the batch functions.
func (c *Campaign) evaluateMonthBatch(month int) (*MonthEval, error) {
	if err := c.age(month); err != nil {
		return nil, err
	}
	windows, err := c.collectWindows(month)
	if err != nil {
		return nil, err
	}
	if month == 0 {
		c.refs = make([]*bitvec.Vector, len(windows))
		for d := range windows {
			if len(windows[d]) == 0 {
				return nil, errors.New("core: empty window")
			}
			c.refs[d] = windows[d][0].Clone()
		}
	}

	eval := &MonthEval{Month: month, Label: store.MonthLabel(month)}
	eval.Devices = make([]DeviceMonth, len(windows))

	jobs := make([]func() error, len(windows))
	for d := range windows {
		d := d
		jobs[d] = func() error {
			dm, err := evaluateDevice(c.refs[d], windows[d])
			if err != nil {
				return err
			}
			eval.Devices[d] = dm
			return nil
		}
	}
	if err := c.sched.Run(jobs...); err != nil {
		return nil, err
	}

	firsts := make([]*bitvec.Vector, len(windows))
	for d := range windows {
		firsts[d] = windows[d][0]
	}
	bc, err := metrics.BetweenClassHD(firsts)
	if err != nil {
		return nil, err
	}
	eval.BCHDMean, eval.BCHDMin, eval.BCHDMax = bc.Mean, bc.Min, bc.Max
	puf, err := entropy.PUFMinEntropy(firsts)
	if err != nil {
		return nil, err
	}
	eval.PUFHmin = puf
	return eval, nil
}

// collectWindows gathers one full evaluation window per device, via a
// rig window collected per board or directly — the buffering path of the
// batch oracle.
func (c *Campaign) collectWindows(month int) ([][]*bitvec.Vector, error) {
	if c.rig != nil {
		out := make([][]*bitvec.Vector, c.cfg.Devices)
		if err := c.rig.StreamWindow(c.cfg.WindowSize, month, func(rec store.Record) error {
			out[rec.Board] = append(out[rec.Board], rec.Data)
			return nil
		}); err != nil {
			return nil, err
		}
		for d, ws := range out {
			if len(ws) != c.cfg.WindowSize {
				return nil, fmt.Errorf("core: board %d holds %d records, want %d", d, len(ws), c.cfg.WindowSize)
			}
		}
		return out, nil
	}

	out := make([][]*bitvec.Vector, c.cfg.Devices)
	jobs := make([]func() error, c.cfg.Devices)
	for d := 0; d < c.cfg.Devices; d++ {
		d := d
		jobs[d] = func() error {
			ws := make([]*bitvec.Vector, c.cfg.WindowSize)
			for i := range ws {
				w, err := c.arrays[d].PowerUpWindow()
				if err != nil {
					return err
				}
				ws[i] = w
			}
			out[d] = ws
			return nil
		}
	}
	if err := c.sched.Run(jobs...); err != nil {
		return nil, err
	}
	return out, nil
}

// evaluateDevice computes the per-device window metrics with the batch
// functions (the streaming accumulators' oracle).
func evaluateDevice(ref *bitvec.Vector, window []*bitvec.Vector) (DeviceMonth, error) {
	wc, err := metrics.WithinClassHD(ref, window)
	if err != nil {
		return DeviceMonth{}, err
	}
	fw, err := metrics.FractionalHW(window)
	if err != nil {
		return DeviceMonth{}, err
	}
	counts, n, err := entropy.OneCounts(window)
	if err != nil {
		return DeviceMonth{}, err
	}
	probs, err := entropy.ProbabilitiesFromCounts(counts, n)
	if err != nil {
		return DeviceMonth{}, err
	}
	noise, err := entropy.NoiseMinEntropy(probs)
	if err != nil {
		return DeviceMonth{}, err
	}
	stable, err := entropy.StableCellRatio(counts, n)
	if err != nil {
		return DeviceMonth{}, err
	}
	return DeviceMonth{WCHD: wc.Mean, FHW: fw.Mean, NoiseHmin: noise, StableRatio: stable}, nil
}
