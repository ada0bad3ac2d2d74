package sramaging

import (
	"context"
	"fmt"
	"io"
	"maps"

	"repro/internal/core"
	"repro/internal/keylife"
)

// Re-exported assessment types and errors.
type (
	// Results is the complete outcome of an assessment: the monthly
	// metric series, Table I, and the enrollment references.
	Results = core.Results
	// MonthEval is one evaluation window aggregated across devices,
	// including any custom Metric values.
	MonthEval = core.MonthEval
)

// Typed assessment errors, matchable with errors.Is. A cancelled Run
// returns an error wrapping ctx.Err() (context.Canceled or
// context.DeadlineExceeded) instead.
var (
	// ErrConfig reports an invalid assessment configuration.
	ErrConfig = core.ErrConfig
	// ErrShortWindow reports a source that delivered fewer measurements
	// than the evaluation window size.
	ErrShortWindow = core.ErrShortWindow
	// ErrUnknownDevice reports a measurement outside the source's
	// declared device range.
	ErrUnknownDevice = core.ErrUnknownDevice
	// ErrNoMonths reports an assessment with no months to evaluate.
	ErrNoMonths = core.ErrNoMonths
	// ErrAlreadyRun reports a second Run of a one-shot assessment.
	ErrAlreadyRun = core.ErrAlreadyRun
	// ErrScreenedOut reports a screening campaign whose pruning left
	// fewer than the two devices the uniqueness metrics need, with
	// evaluation months still remaining.
	ErrScreenedOut = core.ErrScreenedOut
)

// Assessment is the composable campaign builder: one Source (simulated,
// rig or archive replay), the built-in Table I metrics, any number of
// custom Metrics, and a month range — executed by Run in one streaming
// pass per month with cancellation and incremental per-month emission.
//
//	a, _ := sramaging.NewAssessment(
//	        sramaging.WithDevices(4),
//	        sramaging.WithMonths(6),
//	        sramaging.WithWindowSize(200),
//	        sramaging.WithProgress(func(ev sramaging.MonthEval) { fmt.Println(ev.Label) }),
//	)
//	res, err := a.Run(ctx)
//
// An Assessment runs once: simulated sources are stateful (every power-up
// draw advances the chips' RNG), so build a fresh Assessment per run.
type Assessment struct {
	src Source
	// spec is the campaign the options describe. Its Sim is never nil
	// here; Run drops it when WithSource supplies the source.
	spec   core.CampaignSpec
	simSet bool // any simulation option given (exclusive with WithSource)

	workers      int
	workersSet   bool
	metrics      []Metric
	crossMetrics []CrossMetric
	progress     func(MonthEval)
	ran          bool

	// Condition-sweep state (RunSweep; see sweep.go).
	conditions    []Scenario
	sweepProgress func(SweepProgress)
	pointParallel int

	// Key-lifecycle tuning (WithKeyLifecycle; see keylife.go).
	keylifeCfg KeyLifeConfig
}

// Option configures an Assessment.
type Option func(*Assessment) error

// WithSource supplies the measurement source directly — an
// ArchiveSource, a pre-built SimulatedSource/RigSource, or any external
// Source implementation. Exclusive with the simulation options
// (WithProfile, WithFleet, WithDevices, WithSeed, WithHarness,
// WithI2CErrorRate, WithLazy, WithShards).
func WithSource(src Source) Option {
	return func(a *Assessment) error {
		if src == nil {
			return fmt.Errorf("%w: nil source", ErrConfig)
		}
		a.src = src
		return nil
	}
}

// WithProfile selects the simulated device family (default: the paper's
// ATmega32u4).
func WithProfile(p DeviceProfile) Option {
	return func(a *Assessment) error {
		a.spec.Sim.Profile, a.simSet = p, true
		return nil
	}
}

// WithDevices sets the number of boards under test (default 16, the
// paper's campaign).
func WithDevices(n int) Option {
	return func(a *Assessment) error {
		a.spec.Sim.Devices, a.simSet = n, true
		return nil
	}
}

// WithSeed sets the campaign seed (default 20170208). One seed derives
// every per-device measurement stream deterministically.
func WithSeed(seed uint64) Option {
	return func(a *Assessment) error {
		a.spec.Sim.Seed, a.simSet = seed, true
		return nil
	}
}

// WithHarness routes every window through the full measurement-rig
// simulation instead of direct sampling. The measurement streams are
// bit-identical; the rig adds fidelity (power switch, boot, I2C), not
// different bits.
func WithHarness() Option {
	return func(a *Assessment) error {
		a.spec.Sim.Rig, a.simSet = true, true
		return nil
	}
}

// WithI2CErrorRate sets the rig's I2C byte-corruption rate in [0, 1]
// (implies nothing without WithHarness); Run refuses a rate outside it.
func WithI2CErrorRate(rate float64) Option {
	return func(a *Assessment) error {
		a.spec.Sim.I2CErrorRate, a.simSet = rate, true
		return nil
	}
}

// WithWindowSize sets the measurements per monthly evaluation window
// (default 1,000, the paper's campaign). NewAssessment refuses a window
// under 2, so a bad window size fails before any side effect.
func WithWindowSize(n int) Option {
	return func(a *Assessment) error {
		a.spec.Window = n
		return nil
	}
}

// WithMonths sets the campaign length: evaluations run at months 0..n
// inclusive (default 24, the paper's two years), so n >= 1 gives the two
// evaluations Table I needs. Without WithMonths, a MonthLister source
// (archive replay) is evaluated at exactly the months it holds. For
// sparse evaluation schedules use WithMonthList.
func WithMonths(n int) Option {
	return func(a *Assessment) error {
		if n < 1 {
			return fmt.Errorf("%w: need a campaign length >= 1 month, got %d", ErrConfig, n)
		}
		a.spec.Months = core.MonthRange(n)
		return nil
	}
}

// WithMonthList sets an explicit ascending list of month indices to
// evaluate — sparse campaigns, say quarterly re-evaluation of an aging
// fleet. The silicon still ages analytically through the months between
// evaluations; only the evaluation windows are skipped.
func WithMonthList(months []int) Option {
	return func(a *Assessment) error {
		if len(months) == 0 {
			// An empty list must not fall through to the default
			// campaign: fail fast instead of silently running 25 months.
			return fmt.Errorf("%w: empty month list", ErrConfig)
		}
		a.spec.Months = append([]int(nil), months...)
		return nil
	}
}

// WithWorkers bounds evaluation parallelism on sources that support it:
// the direct sampler's worker slots, the rig's power-up captures and
// aging, archive replay's board decodes and a sharded campaign's total
// budget. n <= 0 lifts the bound: simulated chips and the rig then run
// one worker per logical CPU, archive replay one goroutine per board.
// The bound never changes the results.
func WithWorkers(n int) Option {
	return func(a *Assessment) error {
		a.workers, a.workersSet = n, true
		return nil
	}
}

// WithMetrics registers custom per-device metrics; their values appear in
// MonthEval.Custom keyed by Metric.Name. May be given multiple times.
func WithMetrics(ms ...Metric) Option {
	return func(a *Assessment) error {
		a.metrics = append(a.metrics, ms...)
		return nil
	}
}

// WithCrossMetrics registers custom cross-device metrics over the
// window-first patterns; their values appear in MonthEval.CrossCustom
// keyed by CrossMetric.Name. May be given multiple times.
func WithCrossMetrics(ms ...CrossMetric) Option {
	return func(a *Assessment) error {
		a.crossMetrics = append(a.crossMetrics, ms...)
		return nil
	}
}

// WithScreening enables corner-screening mode: after every evaluated
// month, devices whose stable-cell ratio fell below floor are pruned from the campaign — they stop being sampled, each
// subsequent MonthEval carries the survivor count and device-index
// mapping, and per-profile attrition accumulates in MonthEval.Attrition.
// The prune decision depends only on the month's metrics, so direct,
// sharded and replayed executions prune identical devices. If pruning
// ever leaves fewer than two devices with months remaining, Run reports
// ErrScreenedOut. Run refuses a floor outside [0, 1), and screening
// with WithKeyLifecycle (the key workload assumes a fixed population).
func WithScreening(floor float64) Option {
	return func(a *Assessment) error {
		a.screening().Floor = floor
		return nil
	}
}

// WithScreeningPerProfile overrides the screening floor for named fleet
// profiles — corner-screening a mixed fleet against family-specific
// limits. Keys are profile names matched case-insensitively, so a
// registry name ("fleetnode-1kb") and a display name ("FleetNode-1KB")
// floor the same devices. Run fails with ErrConfig on a key that names
// none of a fleet's profiles, and on any key of a simulated
// single-profile campaign. Profiles not listed use the WithScreening
// floor (0 if never set: they are never pruned). Implies screening mode.
func WithScreeningPerProfile(floors map[string]float64) Option {
	return func(a *Assessment) error {
		sc := a.screening()
		if sc.PerProfile == nil {
			sc.PerProfile = make(map[string]float64, len(floors))
		}
		maps.Copy(sc.PerProfile, floors)
		return nil
	}
}

// screening returns the campaign's screening configuration, switching
// screening on.
func (a *Assessment) screening() *core.ScreeningConfig {
	if a.spec.Screening == nil {
		a.spec.Screening = &core.ScreeningConfig{}
	}
	return a.spec.Screening
}

// WithLazy selects on-demand chip construction for the simulated
// sources: chips are derived from (seed, device index) inside the
// worker slot that measures them and rebuilt per month, so the resident
// array state is O(sampling workers), independent of the device count —
// the construction behind million-device fleet screening. Streams are
// bit-identical to the eager sources; the trade is O(months²) aging
// replay per device, the right trade for huge populations over few
// months. Exclusive with WithHarness and WithSource.
func WithLazy() Option {
	return func(a *Assessment) error {
		a.spec.Sim.Lazy, a.simSet = true, true
		return nil
	}
}

// WithProgress installs the incremental result callback: every completed
// month evaluation is delivered as soon as it finalises, before the next
// month starts — streaming results for long campaigns, and the natural
// place to drive cancellation from.
func WithProgress(fn func(MonthEval)) Option {
	return func(a *Assessment) error {
		a.progress = fn
		return nil
	}
}

// NewAssessment builds an assessment from functional options. With no
// options it is the paper's campaign: 16 simulated ATmega32u4 boards, 24
// months, 1,000-measurement windows. It refuses the option combinations
// of the builder itself and the campaign rules that need no source, so
// they fail before any side effect a caller takes between building and
// running; Run (and RunSweep) check every campaign rule again, with the
// source, before anything is measured.
func NewAssessment(opts ...Option) (*Assessment, error) {
	a := &Assessment{spec: core.CampaignSpec{Sim: &core.SimSpec{Devices: 16, Seed: 20170208}, Window: 1000}}
	for _, opt := range opts {
		if err := opt(a); err != nil {
			return nil, err
		}
	}
	switch {
	case a.src != nil && a.simSet:
		return nil, fmt.Errorf("%w: WithSource is exclusive with the simulation options (WithProfile, WithFleet, WithDevices, WithSeed, WithHarness, WithI2CErrorRate, WithLazy, WithShards): the source is already built", ErrConfig)
	case a.src != nil && len(a.conditions) > 0:
		return nil, fmt.Errorf("%w: WithConditions is exclusive with WithSource (the sweep builds one source per condition)", ErrConfig)
	case a.spec.Screening != nil && len(a.conditions) > 0:
		return nil, fmt.Errorf("%w: WithScreening is exclusive with WithConditions (screen one corner at a time)", ErrConfig)
	}
	sourceless := a.spec
	sourceless.Sim = nil
	if err := sourceless.Validate(); err != nil {
		return nil, err
	}
	if sim := a.spec.Sim; sim.Fleet == nil && sim.Profile == (DeviceProfile{}) {
		var err error
		if sim.Profile, err = ATmega32u4(); err != nil {
			return nil, err
		}
	}
	if a.spec.KeyLife {
		// The key scheme's rules need only the silicon and the device
		// count, so a campaign they refuse fails here, not at Run.
		devices := a.spec.Sim.Devices
		if a.src != nil {
			devices = a.src.Devices()
		}
		if err := a.keylifeConfig(devices).Validate(); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// campaign is the campaign Run and RunSweep validate and execute: the
// options' spec without its simulated source when WithSource supplies
// one, and with the paper's 24 months unless the options or a
// MonthLister source name the months.
func (a *Assessment) campaign() core.CampaignSpec {
	cs := a.spec
	if a.src != nil {
		cs.Sim = nil
		if _, ok := a.src.(MonthLister); ok {
			return cs
		}
	}
	if cs.Months == nil {
		cs.Months = core.MonthRange(24)
	}
	return cs
}

// Run executes the assessment: one streaming pass per month, every
// completed month emitted through WithProgress, the final Results
// assembled at the end (Table I spans the first and last evaluation).
// Cancelling ctx aborts between measurements and returns an error
// wrapping ctx.Err(); months already emitted remain valid partial
// results.
func (a *Assessment) Run(ctx context.Context) (*Results, error) {
	if a.ran {
		return nil, ErrAlreadyRun
	}
	if len(a.conditions) > 0 {
		return nil, fmt.Errorf("%w: an assessment with WithConditions runs through RunSweep", ErrConfig)
	}
	cs := a.campaign()
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	src := a.src
	if src == nil {
		var err error
		if src, err = core.OpenSim(*cs.Sim); err != nil {
			return nil, err
		}
		// Sharded sources hold worker connections.
		if c, ok := src.(io.Closer); ok {
			defer c.Close()
		}
	}
	if a.workersSet {
		if ws, ok := src.(WorkerSetter); ok {
			ws.SetWorkers(a.workers)
		}
	}
	metrics, crossMetrics := a.metrics, a.crossMetrics
	if cs.KeyLife {
		// The workload screens the simulated population from (profile,
		// devices, seed) regardless of src, so an archive replay of a
		// recorded campaign derives the identical masks and series.
		wl, err := keylife.New(ctx, a.keylifeConfig(src.Devices()))
		if err != nil {
			return nil, err
		}
		metrics = append(append([]Metric{}, metrics...), wl.Metrics()...)
		crossMetrics = append(append([]CrossMetric{}, crossMetrics...), wl.CrossMetrics()...)
	}
	eng, err := core.NewAssessment(core.AssessmentConfig{
		Source:       src,
		WindowSize:   cs.Window,
		Months:       cs.Months,
		Metrics:      metrics,
		CrossMetrics: crossMetrics,
		Progress:     a.progress,
		Screening:    cs.Screening,
	})
	if err != nil {
		// Nothing was measured: a retry after a configuration error must
		// see the configuration error again, not ErrAlreadyRun.
		return nil, err
	}
	a.ran = true
	return eng.Run(ctx)
}
