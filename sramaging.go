// Package sramaging is the public facade of the reproduction of
// "Long-term Continuous Assessment of SRAM PUF and Source of Random
// Numbers" (Wang, Selimis, Maes, Goossens — DATE 2020).
//
// The API is built from three composable abstractions:
//
//   - Source — where measurements come from. NewSimulatedSource (direct
//     sampling), NewRigSource (the full measurement-rig simulation) and
//     NewArchiveSource (archive replay) are interchangeable, so an
//     offline evaluation and a live campaign are the same call; external
//     Source implementations (sharded, networked, condition sweeps) plug
//     into the same engine.
//
//   - Metric — externally registered one-pass accumulators that ride the
//     engine's single measurement pass next to the built-in Table I
//     metrics (per-device Metric, cross-device CrossMetric); see
//     NewMetric, NewCrossMetric and examples/custommetric.
//
//   - Assessment — the campaign builder: functional options
//     (WithDevices, WithMonths, WithWindowSize, WithWorkers, WithHarness,
//     WithMetrics, WithProgress, ...), a context-cancellable Run, and
//     incremental per-month emission. With WithConditions or
//     WithConditionGrid the same builder describes a condition sweep —
//     one assessment per temperature/voltage point over the same chips —
//     executed by RunSweep with cross-condition comparison series
//     (worst-corner WCHD/FHW, stable-cell intersection, temperature
//     sensitivity); see examples/tempsweep and cmd/sweep. With
//     WithShards(n) the campaign fans out across n worker processes
//     (cmd/shardworker over ExecShardTransport, or in-process pipes) and
//     the merged Results are bit-identical to the single-process run;
//     see DESIGN.md §4.
//
// A reduced campaign:
//
//	a, _ := sramaging.NewAssessment(
//	        sramaging.WithDevices(4),
//	        sramaging.WithMonths(6),
//	        sramaging.WithWindowSize(200),
//	)
//	res, _ := a.Run(context.Background())
//	fmt.Print(sramaging.RenderTableI(res.Table))
//
// The facade also exposes the calibrated device profiles
// (internal/silicon), simulated chips, and the application substrates
// (key generation, TRNG, randomness assessment).
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// system inventory.
package sramaging

import (
	"repro/internal/core"
	"repro/internal/fuzzy"
	"repro/internal/keylife"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/sram"
	"repro/internal/trng"
)

// Re-exported core types.
type (
	// TableI is the paper's summary table.
	TableI = core.TableI
	// DeviceMonth is one device's metrics for one monthly window.
	DeviceMonth = core.DeviceMonth
	// DeviceProfile describes a calibrated SRAM device family.
	DeviceProfile = silicon.DeviceProfile
)

// ATmega32u4 returns the calibrated profile of the paper's device.
func ATmega32u4() (DeviceProfile, error) { return silicon.ATmega32u4() }

// CMOS65nmAccelerated returns the accelerated-aging comparator profile
// (Maes & van der Leest, HOST 2014).
func CMOS65nmAccelerated() (DeviceProfile, error) { return silicon.CMOS65nmAccelerated() }

// NewChip instantiates one simulated SRAM chip of the given profile.
// The same seed always reproduces the same chip.
func NewChip(profile DeviceProfile, seed uint64) (*sram.Array, error) {
	return sram.New(profile, rng.New(seed))
}

// RenderTableI formats a Table I like the paper.
func RenderTableI(t TableI) string { return report.RenderTableI(t) }

// PredictedWCHDTrajectory returns the analytic WCHD expectation per month
// for a profile (used for the nominal-vs-accelerated comparison).
func PredictedWCHDTrajectory(profile DeviceProfile, months int) ([]float64, error) {
	return core.PredictedWCHDTrajectory(profile, months)
}

// NewKeyExtractor returns the repository's standard PUF key-generation
// scheme: an 11-block Golay(23,12) ∘ repetition(5) code-offset fuzzy
// extractor consuming 1,265 response bits for a 132-bit secret — sized so
// the paper's end-of-life worst-case BER (3.25%) reconstructs with a
// failure probability below 1e-9 per block.
func NewKeyExtractor() (*fuzzy.Extractor, error) { return keylife.DefaultExtractor() }

// NewTRNG builds the SRAM-PUF true random number generator over a chip.
func NewTRNG(chip *sram.Array) (*trng.Generator, error) {
	return trng.New(chip.PowerUpWindow, trng.DefaultConfig())
}
