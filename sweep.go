package sramaging

import (
	"context"
	"fmt"

	"repro/internal/aging"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sweep"
)

// Re-exported condition-sweep types. A sweep runs one full assessment per
// environmental condition point — same profile, same seed, so every
// corner measures the same chips in a different oven — and assembles the
// cross-condition comparison series on top of the per-point Results.
type (
	// Scenario is one named environmental condition (temperature in
	// degrees Celsius, supply voltage).
	Scenario = aging.Scenario
	// ConditionGrid is a cartesian temperature × voltage grid; its
	// Points expand to the sweep's scenarios.
	ConditionGrid = sweep.Grid
	// SweepResults is the outcome of RunSweep: every condition point's
	// full campaign Results plus the cross-condition comparison.
	SweepResults = sweep.Results
	// SweepPoint is one condition point's campaign outcome.
	SweepPoint = sweep.PointResult
	// SweepComparison carries the cross-condition series: worst-corner
	// WCHD/FHW per month, the stable-cell intersection across corners,
	// and per-metric temperature-sensitivity slopes.
	SweepComparison = sweep.Comparison
	// SweepProgress is one completed month of one condition point,
	// delivered through WithSweepProgress as it finalises.
	SweepProgress = sweep.Progress
)

// Slope-metric keys of SweepComparison.TempSlope.
const (
	SlopeWCHD      = sweep.SlopeWCHD
	SlopeFHW       = sweep.SlopeFHW
	SlopeStable    = sweep.SlopeStable
	SlopeNoiseHmin = sweep.SlopeNoiseHmin
	SlopeBCHDMean  = sweep.SlopeBCHDMean
	SlopePUFHmin   = sweep.SlopePUFHmin
)

// Predefined condition scenarios.
var (
	// NominalRoomTemp is the paper's two-year test condition: room
	// temperature, nominal 5 V supply. Sweeping only this point
	// reproduces a plain assessment bit for bit.
	NominalRoomTemp = aging.NominalRoomTemp
	// AcceleratedHighTemp is the accelerated-aging stress condition
	// (Maes & van der Leest style): 125 °C, +10 % overvoltage.
	AcceleratedHighTemp = aging.AcceleratedHighTemp
	// Screening corners: industrial temperature range, ±10 % supply.
	ColdCorner     = aging.ColdCorner
	HotCorner      = aging.HotCorner
	LowVoltage     = aging.LowVoltage
	HighVoltage    = aging.HighVoltage
	HotHighVoltage = aging.HotHighVoltage
)

// Condition returns an ad-hoc scenario named after its coordinates, e.g.
// Condition(85, 5.5) → "85C-5.5V".
func Condition(tempC, voltage float64) Scenario { return aging.Condition(tempC, voltage) }

// WithConditions adds environmental condition points to sweep. Scenarios
// are validated here — a non-positive voltage or a temperature below
// absolute zero fails fast with ErrConfig, before any side effect. May be
// given multiple times; exclusive with WithSource (the sweep builds one
// source per condition from the simulation options).
func WithConditions(scs ...Scenario) Option {
	return func(a *Assessment) error {
		if len(scs) == 0 {
			return fmt.Errorf("%w: WithConditions needs at least one scenario", ErrConfig)
		}
		for _, sc := range scs {
			if err := sc.Validate(); err != nil {
				return fmt.Errorf("%w: %v", ErrConfig, err)
			}
		}
		a.conditions = append(a.conditions, scs...)
		return nil
	}
}

// WithConditionGrid adds the cartesian product of the given temperatures
// and voltages as condition points ("0C-4.5V", "0C-5V", ...).
func WithConditionGrid(tempsC, volts []float64) Option {
	return func(a *Assessment) error {
		g := ConditionGrid{TempsC: tempsC, Volts: volts}
		if err := g.Validate(); err != nil {
			return err
		}
		a.conditions = append(a.conditions, g.Points()...)
		return nil
	}
}

// WithSweepProgress installs the sweep's incremental result callback:
// every completed month of every condition point is delivered as soon as
// it finalises. Points run concurrently, so fn MUST be safe for
// concurrent calls.
func WithSweepProgress(fn func(SweepProgress)) Option {
	return func(a *Assessment) error {
		a.sweepProgress = fn
		return nil
	}
}

// WithPointConcurrency bounds how many condition points run at once
// (<= 0, the default: all points concurrently). The sampling parallelism
// WITHIN the in-flight points is governed by WithWorkers, whose bound is
// shared across the whole sweep through one worker pool.
func WithPointConcurrency(n int) Option {
	return func(a *Assessment) error {
		a.pointParallel = n
		return nil
	}
}

// RunSweep executes one assessment per configured condition point and
// assembles the cross-condition comparison. The per-point campaign shape
// is the assessment's own configuration (profile, devices, seed, window
// size, months, metrics); WithConditions/WithConditionGrid supply the
// grid. Points run concurrently — bounded by WithPointConcurrency, with
// WithWorkers shared across all points — and the first point to fail
// cancels the rest. Cancelling ctx aborts the same way with an error
// wrapping ctx.Err(); completed months already delivered through
// WithSweepProgress remain valid partial results.
//
// Like Run, a sweep runs once; a failure before any measurement (invalid
// configuration) leaves the assessment retryable.
func (a *Assessment) RunSweep(ctx context.Context) (*SweepResults, error) {
	if a.ran {
		return nil, ErrAlreadyRun
	}
	if len(a.conditions) == 0 {
		return nil, fmt.Errorf("%w: RunSweep needs WithConditions or WithConditionGrid", ErrConfig)
	}
	// Pre-flight the campaign rules (at the first condition) and the
	// engine's metric-name rules, so a configuration error surfaces
	// before the sweep is marked run and stays retryable — mirroring
	// Run, which marks the assessment run only after its engine
	// construction succeeds.
	cs := a.campaign()
	sim := *cs.Sim
	sim.Scenario = a.conditions[0]
	cs.Sim = &sim
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	if err := core.ValidateMetrics(a.metrics, a.crossMetrics); err != nil {
		return nil, err
	}
	// Key-lifecycle sweeps screen once (the masks depend only on the
	// population, not the sweep point) and give every point its own
	// workload: enrollment is stateful and points run concurrently.
	var pointMetrics func(context.Context, Scenario) ([]Metric, []CrossMetric, error)
	if cs.KeyLife {
		var err error
		if pointMetrics, err = a.keylifePointMetrics(ctx); err != nil {
			return nil, err
		}
	}
	a.ran = true
	return sweep.RunPoints(ctx, sweep.Config{
		Campaign:     cs,
		Workers:      a.workers,
		Concurrency:  a.pointParallel,
		Metrics:      a.metrics,
		CrossMetrics: a.crossMetrics,
		PointMetrics: pointMetrics,
		Progress:     a.sweepProgress,
	}, a.conditions)
}

// RenderCornerTable formats a sweep's cross-condition comparison as the
// corner-comparison table of cmd/figures and cmd/sweep.
func RenderCornerTable(c SweepComparison) string { return report.RenderCornerTable(c) }
