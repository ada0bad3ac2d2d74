package sramaging

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
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

	profile    DeviceProfile
	profileSet bool
	fleet      *core.Fleet
	devices    int
	seed       uint64
	useRig     bool
	i2cErr     float64
	simSet     bool // any simulation option given (exclusive with WithSource)

	window         int
	months         []int
	workers        int
	workersSet     bool
	shards         int
	shardTransport ShardTransport
	metrics        []Metric
	crossMetrics   []CrossMetric
	progress       func(MonthEval)
	ran            bool

	// Condition-sweep state (RunSweep; see sweep.go).
	conditions    []Scenario
	sweepProgress func(SweepProgress)
	pointParallel int

	// Key-lifecycle state (WithKeyLifecycle; see keylife.go).
	keylife    bool
	keylifeCfg KeyLifeConfig

	// Screening / lazy-construction state (WithScreening, WithLazy).
	screening *core.ScreeningConfig
	lazy      bool
}

// Option configures an Assessment.
type Option func(*Assessment) error

// WithSource supplies the measurement source directly — an
// ArchiveSource, a pre-built SimulatedSource/RigSource, or any external
// Source implementation. Exclusive with the simulation options
// (WithProfile, WithDevices, WithSeed, WithHarness, WithI2CErrorRate).
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
		a.profile, a.profileSet, a.simSet = p, true, true
		return nil
	}
}

// WithDevices sets the number of boards under test (default 16, the
// paper's campaign).
func WithDevices(n int) Option {
	return func(a *Assessment) error {
		a.devices, a.simSet = n, true
		return nil
	}
}

// WithSeed sets the campaign seed (default 20170208). One seed derives
// every per-device measurement stream deterministically.
func WithSeed(seed uint64) Option {
	return func(a *Assessment) error {
		a.seed, a.simSet = seed, true
		return nil
	}
}

// WithHarness routes every window through the full measurement-rig
// simulation instead of direct sampling. The measurement streams are
// bit-identical; the rig adds fidelity (power switch, boot, I2C), not
// different bits.
func WithHarness() Option {
	return func(a *Assessment) error {
		a.useRig, a.simSet = true, true
		return nil
	}
}

// WithI2CErrorRate sets the rig's I2C byte-corruption rate (implies
// nothing without WithHarness).
func WithI2CErrorRate(rate float64) Option {
	return func(a *Assessment) error {
		if rate < 0 || rate > 1 {
			return fmt.Errorf("%w: I2C error rate %v", ErrConfig, rate)
		}
		a.i2cErr, a.simSet = rate, true
		return nil
	}
}

// WithWindowSize sets the measurements per monthly evaluation window
// (default 1,000, the paper's campaign). Validated here, not at Run, so
// a bad window size fails before any side effect.
func WithWindowSize(n int) Option {
	return func(a *Assessment) error {
		if n < 2 {
			return fmt.Errorf("%w: need >= 2 measurements per window, got %d", ErrConfig, n)
		}
		a.window = n
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
		a.months = core.MonthRange(n)
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
		a.months = append([]int(nil), months...)
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
// month, devices whose stable-cell ratio fell below floor (in [0, 1))
// are pruned from the campaign — they stop being sampled, each
// subsequent MonthEval carries the survivor count and device-index
// mapping, and per-profile attrition accumulates in MonthEval.Attrition.
// The prune decision depends only on the month's metrics, so direct,
// sharded and replayed executions prune identical devices. If pruning
// ever leaves fewer than two devices with months remaining, Run reports
// ErrScreenedOut. Exclusive with WithKeyLifecycle (the key workload
// assumes a fixed population).
func WithScreening(floor float64) Option {
	return func(a *Assessment) error {
		if floor < 0 || floor >= 1 {
			return fmt.Errorf("%w: screening floor %v outside [0, 1)", ErrConfig, floor)
		}
		if a.screening == nil {
			a.screening = &core.ScreeningConfig{}
		}
		a.screening.Floor = floor
		return nil
	}
}

// WithScreeningPerProfile overrides the screening floor for named fleet
// profiles — corner-screening a mixed fleet against family-specific
// limits. Profiles not listed use the WithScreening floor (0 if never
// set: they are never pruned). Implies screening mode.
func WithScreeningPerProfile(floors map[string]float64) Option {
	return func(a *Assessment) error {
		for name, f := range floors {
			if f < 0 || f >= 1 {
				return fmt.Errorf("%w: screening floor %v for profile %q outside [0, 1)", ErrConfig, f, name)
			}
		}
		if a.screening == nil {
			a.screening = &core.ScreeningConfig{}
		}
		if a.screening.PerProfile == nil {
			a.screening.PerProfile = make(map[string]float64, len(floors))
		}
		for name, f := range floors {
			a.screening.PerProfile[name] = f
		}
		return nil
	}
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
		a.lazy, a.simSet = true, true
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
// months, 1,000-measurement windows.
func NewAssessment(opts ...Option) (*Assessment, error) {
	a := &Assessment{devices: 16, seed: 20170208, window: 1000}
	for _, opt := range opts {
		if err := opt(a); err != nil {
			return nil, err
		}
	}
	if a.src != nil && a.simSet {
		return nil, fmt.Errorf("%w: WithSource is exclusive with WithProfile/WithDevices/WithSeed/WithHarness/WithI2CErrorRate", ErrConfig)
	}
	if a.src != nil && len(a.conditions) > 0 {
		return nil, fmt.Errorf("%w: WithConditions is exclusive with WithSource (the sweep builds one source per condition)", ErrConfig)
	}
	if a.src != nil && a.shards > 0 {
		return nil, fmt.Errorf("%w: WithShards is exclusive with WithSource (sharding builds the sources; shard an archive with NewShardedArchiveSource)", ErrConfig)
	}
	if a.fleet != nil {
		switch {
		case a.profileSet:
			return nil, fmt.Errorf("%w: WithFleet is exclusive with WithProfile (the fleet carries its profiles)", ErrConfig)
		case a.useRig:
			return nil, fmt.Errorf("%w: WithFleet is exclusive with WithHarness (the measurement rig is a single-profile instrument)", ErrConfig)
		case a.keylife:
			return nil, fmt.Errorf("%w: WithFleet is exclusive with WithKeyLifecycle (the key-lifecycle workload is single-profile)", ErrConfig)
		}
	}
	if a.screening != nil && a.keylife {
		return nil, fmt.Errorf("%w: WithScreening is exclusive with WithKeyLifecycle (the key workload assumes a fixed population)", ErrConfig)
	}
	if a.screening != nil && len(a.conditions) > 0 {
		return nil, fmt.Errorf("%w: WithScreening is exclusive with WithConditions (screen one corner at a time)", ErrConfig)
	}
	if a.lazy {
		switch {
		case a.useRig:
			return nil, fmt.Errorf("%w: WithLazy is exclusive with WithHarness (the rig is a persistent coupled instrument)", ErrConfig)
		case a.src != nil:
			return nil, fmt.Errorf("%w: WithLazy is exclusive with WithSource (lazy construction builds the simulated sources)", ErrConfig)
		}
	}
	if !a.profileSet {
		var err error
		if a.profile, err = ATmega32u4(); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// simSpec is the simulated source the assessment's options describe —
// what Run opens and what every condition point of RunSweep opens.
func (a *Assessment) simSpec() core.SimSpec {
	spec := core.SimSpec{
		Fleet:        a.fleet,
		Devices:      a.devices,
		Seed:         a.seed,
		Lazy:         a.lazy,
		Rig:          a.useRig,
		I2CErrorRate: a.i2cErr,
		Shards:       a.shards,
		Transport:    a.shardTransport,
	}
	if a.fleet == nil {
		spec.Profile = a.profile
	}
	return spec
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
	src := a.src
	if src == nil {
		var err error
		if src, err = core.OpenSim(a.simSpec()); err != nil {
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
	months := a.months
	if months == nil {
		if _, ok := src.(MonthLister); !ok {
			// The paper's campaign length.
			months = core.MonthRange(24)
		}
	}
	metrics, crossMetrics := a.metrics, a.crossMetrics
	if a.keylife {
		// The workload screens the simulated population from (profile,
		// devices, seed) regardless of src, so an archive replay of a
		// recorded campaign derives the identical masks and series.
		wl, err := a.keylifeWorkload(ctx, src.Devices())
		if err != nil {
			return nil, err
		}
		metrics = append(append([]Metric{}, metrics...), wl.Metrics()...)
		crossMetrics = append(append([]CrossMetric{}, crossMetrics...), wl.CrossMetrics()...)
	}
	eng, err := core.NewAssessment(core.AssessmentConfig{
		Source:       src,
		WindowSize:   a.window,
		Months:       months,
		Metrics:      metrics,
		CrossMetrics: crossMetrics,
		Progress:     a.progress,
		Screening:    a.screening,
	})
	if err != nil {
		// Nothing was measured: a retry after a configuration error must
		// see the configuration error again, not ErrAlreadyRun.
		return nil, err
	}
	a.ran = true
	return eng.Run(ctx)
}
