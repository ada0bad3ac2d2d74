package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/silicon"
	"repro/internal/store"
	"repro/internal/stream"
)

// Typed assessment errors, matchable with errors.Is. Engine failures wrap
// one of these (or the context error on cancellation) with positional
// detail.
var (
	// ErrConfig reports an invalid assessment configuration.
	ErrConfig = errors.New("assessment: invalid configuration")
	// ErrShortWindow reports a source that delivered fewer measurements
	// than the evaluation window size.
	ErrShortWindow = errors.New("assessment: incomplete evaluation window")
	// ErrUnknownDevice reports a measurement for a device index outside
	// the source's declared range.
	ErrUnknownDevice = errors.New("assessment: measurement for unknown device")
	// ErrNoMonths reports an assessment with no months to evaluate.
	ErrNoMonths = errors.New("assessment: no evaluation months")
	// ErrAlreadyRun reports a second Run on a one-shot assessment.
	ErrAlreadyRun = errors.New("assessment: already run (sources are stateful; build a fresh assessment per run)")
	// ErrScreenedOut reports a screening campaign whose floor pruned the
	// population below the two devices the uniqueness metrics need, with
	// evaluation months still remaining.
	ErrScreenedOut = errors.New("assessment: screening pruned the population below 2 devices")
)

// DevicePruner is implemented by sources that can stop sampling
// individual devices mid-campaign — the screening contract. Indices are
// the source's own device indices (the engine's device indexing); a
// pruned device keeps its index (Devices() does not shrink) but is never
// measured again. Pruning is monotonic and applies from the NEXT Measure
// call on.
type DevicePruner interface {
	PruneDevices(indices []int) error
}

// ScreeningConfig is the corner-screening mode: after every evaluated
// month, devices whose stable-cell ratio fell below the floor are pruned
// — they stop being sampled (lazy sources simply never rebuild them),
// and each subsequent MonthEval carries the survivor count, the
// compacted device index mapping and the per-profile attrition. The
// prune decision is a pure function of the month's metrics, so every
// execution layout (direct, any shard count, archive replay, resume)
// prunes the identical devices.
type ScreeningConfig struct {
	// Floor is the stability floor in [0, 1): a device with
	// StableRatio < Floor after a month's evaluation is pruned.
	Floor float64
	// PerProfile optionally overrides Floor for named fleet profiles —
	// corner-screening a mixed fleet against family-specific limits.
	// Keys match profile names case-insensitively (see Resolve).
	PerProfile map[string]float64
}

// Validate checks that every floor lies in [0, 1).
func (s *ScreeningConfig) Validate() error {
	if s.Floor < 0 || s.Floor >= 1 {
		return fmt.Errorf("%w: screening floor %v outside [0, 1)", ErrConfig, s.Floor)
	}
	for name, f := range s.PerProfile {
		if f < 0 || f >= 1 {
			return fmt.Errorf("%w: screening floor %v for profile %q outside [0, 1)", ErrConfig, f, name)
		}
	}
	return nil
}

// Resolve maps every profile name a source lists (carried by a device or
// not; nil lists none and maps "") to its floor. PerProfile keys match
// names by silicon.CanonicalName, as silicon.Lookup does, so
// "fleetnode-1kb" floors FleetNode-1KB devices. A key that matches no
// listed name, or the name another key matches, is an ErrConfig; so is
// any key when the source lists no names.
func (s *ScreeningConfig) Resolve(names []string) (map[string]float64, error) {
	if names == nil {
		if len(s.PerProfile) > 0 {
			return nil, fmt.Errorf("%w: per-profile screening floors name fleet profiles; the source lists none", ErrConfig)
		}
		return map[string]float64{"": s.Floor}, nil
	}
	byFold := make(map[string]string, len(s.PerProfile))
	for _, key := range slices.Sorted(maps.Keys(s.PerProfile)) {
		fold := silicon.CanonicalName(key)
		if other, dup := byFold[fold]; dup {
			return nil, fmt.Errorf("%w: screening floors for %q and %q name the same profile", ErrConfig, other, key)
		}
		byFold[fold] = key
	}
	floors := make(map[string]float64, len(names))
	for _, name := range names {
		floors[name] = s.Floor
		if key, ok := byFold[silicon.CanonicalName(name)]; ok {
			floors[name] = s.PerProfile[key]
		}
	}
	for _, name := range names {
		delete(byFold, silicon.CanonicalName(name))
	}
	if len(byFold) > 0 {
		return nil, fmt.Errorf("%w: screening floors for %s name no profile of the source", ErrConfig, strings.Join(slices.Sorted(maps.Values(byFold)), ", "))
	}
	return floors, nil
}

// MetricAccumulator folds the measurements of one device-window into one
// custom statistic, one-pass like the built-in stream accumulators. One
// accumulator only ever sees its own device's measurements sequentially,
// but accumulators of DISTINCT devices run concurrently (sources deliver
// devices in parallel) — accumulators must not share mutable state, and
// NewAccumulator must return an independent value per device.
type MetricAccumulator interface {
	// Add folds one measurement. The vector may be reused by the source;
	// clone it to retain.
	Add(m *bitvec.Vector) error
	// Value finalises the window statistic.
	Value() (float64, error)
}

// Metric derives a custom per-device statistic from the measurement
// stream of every device-window — externally registered instrumentation
// (e.g. a condition-sweep WCHD variant) that rides the engine's single
// pass without touching it. See MetricAccumulator for the concurrency
// contract.
type Metric interface {
	// Name keys the metric's values in MonthEval.Custom; it must be
	// unique within one assessment.
	Name() string
	// NewAccumulator returns the accumulator for one device-window. ref
	// is the device's enrollment reference, or nil on the enrollment
	// window itself (adopt the first measurement, as the engine does).
	NewAccumulator(month, device int, ref *bitvec.Vector) (MetricAccumulator, error)
}

// CrossMetric derives one custom CROSS-device statistic per evaluation
// window from the window-first pattern of every device — the same input
// the built-in BCHD / PUF min-entropy metrics consume (§IV-B2: "the
// first SRAM read-out data of the 1,000 consecutive measurements").
// Values land in MonthEval.CrossCustom keyed by Name.
type CrossMetric interface {
	// Name keys the metric's values in MonthEval.CrossCustom; it must be
	// unique among the assessment's cross metrics.
	Name() string
	// Compute receives one pattern per device, in device order. The
	// patterns are owned by the engine; clone to retain.
	Compute(month int, firsts []*bitvec.Vector) (float64, error)
}

// crossMetricFunc adapts a compute closure to the CrossMetric interface.
type crossMetricFunc struct {
	name string
	fn   func(month int, firsts []*bitvec.Vector) (float64, error)
}

func (m crossMetricFunc) Name() string { return m.name }
func (m crossMetricFunc) Compute(month int, firsts []*bitvec.Vector) (float64, error) {
	return m.fn(month, firsts)
}

// NewCrossMetricFunc builds a CrossMetric from a name and a compute
// function.
func NewCrossMetricFunc(name string, fn func(month int, firsts []*bitvec.Vector) (float64, error)) CrossMetric {
	return crossMetricFunc{name: name, fn: fn}
}

// metricFunc adapts a factory closure to the Metric interface.
type metricFunc struct {
	name string
	fn   func(month, device int, ref *bitvec.Vector) (MetricAccumulator, error)
}

func (m metricFunc) Name() string { return m.name }
func (m metricFunc) NewAccumulator(month, device int, ref *bitvec.Vector) (MetricAccumulator, error) {
	return m.fn(month, device, ref)
}

// NewMetricFunc builds a Metric from a name and an accumulator factory.
func NewMetricFunc(name string, fn func(month, device int, ref *bitvec.Vector) (MetricAccumulator, error)) Metric {
	return metricFunc{name: name, fn: fn}
}

// MonthRange returns the contiguous evaluation schedule 0..last
// inclusive — the shape of a classic campaign of `last` months.
func MonthRange(last int) []int {
	months := make([]int, last+1)
	for m := range months {
		months[m] = m
	}
	return months
}

// AssessmentConfig parameterises the engine. The facade's builder
// assembles it from functional options.
type AssessmentConfig struct {
	// Source supplies the measurement windows.
	Source Source
	// WindowSize is the number of measurements per evaluation window.
	WindowSize int
	// Months lists the month indices to evaluate, ascending. Nil asks a
	// MonthLister source for its available months; a source that is not
	// a MonthLister then fails with ErrNoMonths.
	Months []int
	// Metrics are custom per-device accumulators; their values land in
	// MonthEval.Custom keyed by Metric.Name.
	Metrics []Metric
	// CrossMetrics are custom cross-device statistics over the
	// window-first patterns; their values land in MonthEval.CrossCustom.
	CrossMetrics []CrossMetric
	// Progress, when non-nil, receives every completed month evaluation
	// as soon as it finalises, in addition to its inclusion in the final
	// Results — incremental delivery for long campaigns, not a drain.
	Progress func(MonthEval)
	// WindowDone, when non-nil, receives every finalised per-device
	// window accumulator after the built-in metrics are extracted and
	// before the month is assembled — engine-side instrumentation (the
	// condition sweep harvests per-cell stable masks here) that leaves
	// the emitted Results untouched. The accumulator is engine-owned:
	// inspect it synchronously, do not retain it.
	WindowDone func(month, device int, dev *stream.Device)
	// Screening, when non-nil, enables corner-screening: devices whose
	// stability falls below the floor are pruned between months. The
	// source must implement DevicePruner.
	Screening *ScreeningConfig
}

// Assessment is the campaign engine behind the composable public API:
// one source, the built-in Table I accumulators, any number of custom
// metrics, one streaming pass per month. An Assessment runs once.
type Assessment struct {
	cfg  AssessmentConfig
	refs []*bitvec.Vector
	ran  bool

	// Screening state: the device indices still being sampled and the
	// device→position lookup (-1 once pruned). Both nil without
	// Screening, keeping the historical path untouched.
	active []int
	posOf  []int

	// Per-device profile names and the profiles the source lists (what
	// screening floors resolve against), resolved once from the source's
	// ProfileAssigner (preferred, compact) or ProfileLister.
	profNames    []string
	profList     []string
	profResolved bool

	// Screening floor by profile name, resolved at the first prune.
	floors map[string]float64
}

// NewAssessment validates the configuration and resolves the month list.
func NewAssessment(cfg AssessmentConfig) (*Assessment, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("%w: nil source", ErrConfig)
	}
	if d := cfg.Source.Devices(); d < 2 {
		return nil, fmt.Errorf("%w: need >= 2 devices for uniqueness metrics, got %d", ErrConfig, d)
	}
	// The campaign rules a config can break: the window, the floors and
	// an explicit month list (a MonthLister lists ascending months).
	if err := (CampaignSpec{Window: cfg.WindowSize, Months: cfg.Months, Screening: cfg.Screening}).Validate(); err != nil {
		return nil, err
	}
	if err := ValidateMetrics(cfg.Metrics, cfg.CrossMetrics); err != nil {
		return nil, err
	}
	if cfg.Screening != nil {
		if _, ok := cfg.Source.(DevicePruner); !ok {
			return nil, fmt.Errorf("%w: screening needs a source that can stop sampling pruned devices (DevicePruner); %T cannot", ErrConfig, cfg.Source)
		}
		_, lists := cfg.Source.(ProfileLister)
		_, assigns := cfg.Source.(ProfileAssigner)
		if len(cfg.Screening.PerProfile) > 0 && !lists && !assigns {
			return nil, fmt.Errorf("%w: per-profile screening floors name fleet profiles; %T lists none", ErrConfig, cfg.Source)
		}
	}
	if cfg.Months == nil {
		// A screened archive legitimately loses pruned boards mid-archive,
		// which the strict MonthLister rule reports as lost data — prefer
		// the survivor-aware listing when screening is on.
		if cfg.Screening != nil {
			if ml, ok := cfg.Source.(SurvivingMonthLister); ok {
				months, err := ml.AvailableMonthsSurviving(cfg.WindowSize)
				if err != nil {
					return nil, err
				}
				cfg.Months = months
			}
		}
		if cfg.Months == nil {
			if ml, ok := cfg.Source.(MonthLister); ok {
				months, err := ml.AvailableMonths(cfg.WindowSize)
				if err != nil {
					return nil, err
				}
				cfg.Months = months
			}
		}
	}
	if len(cfg.Months) == 0 {
		return nil, fmt.Errorf("%w (source %T lists none for window size %d)", ErrNoMonths, cfg.Source, cfg.WindowSize)
	}
	return &Assessment{cfg: cfg}, nil
}

// ValidateMetrics checks that every custom metric has a name and that
// no two metrics of one kind share a name — the metric rules of
// NewAssessment, for callers that validate before they have a source.
func ValidateMetrics(metrics []Metric, crossMetrics []CrossMetric) error {
	seen := map[string]bool{}
	for _, m := range metrics {
		name := m.Name()
		if name == "" {
			return fmt.Errorf("%w: metric with empty name", ErrConfig)
		}
		if seen[name] {
			return fmt.Errorf("%w: duplicate metric %q", ErrConfig, name)
		}
		seen[name] = true
	}
	seenCross := map[string]bool{}
	for _, m := range crossMetrics {
		name := m.Name()
		if name == "" {
			return fmt.Errorf("%w: cross metric with empty name", ErrConfig)
		}
		if seenCross[name] {
			return fmt.Errorf("%w: duplicate cross metric %q", ErrConfig, name)
		}
		seenCross[name] = true
	}
	return nil
}

// Run executes the assessment: every configured month is evaluated in one
// streaming pass, emitted through Progress as it completes, and assembled
// into the final Results (Table I spans the first and last evaluation
// when there are at least two). Run honours ctx — cancellation aborts
// between measurements and returns an error wrapping ctx.Err(); months
// already emitted through Progress remain valid partial results.
func (a *Assessment) Run(ctx context.Context) (*Results, error) {
	if a.ran {
		return nil, ErrAlreadyRun
	}
	a.ran = true
	res := &Results{}
	for mi, m := range a.cfg.Months {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("assessment: month %d: %w", m, err)
		}
		eval, err := a.evaluateMonth(ctx, m, mi == len(a.cfg.Months)-1)
		if err != nil {
			return nil, fmt.Errorf("assessment: month %d: %w", m, err)
		}
		res.Monthly = append(res.Monthly, *eval)
		if a.cfg.Progress != nil {
			a.cfg.Progress(*eval)
		}
	}
	if len(res.Monthly) >= 2 {
		first, last := res.Monthly[0], res.Monthly[len(res.Monthly)-1]
		res.Table = BuildTable(first, last, last.Month-first.Month)
	}
	res.References = a.refs
	return res, nil
}

// profileNames resolves the source's per-device profile names once —
// preferring the compact ProfileAssigner contract (names + one byte per
// device, what sharded fleets stream out of their workers) over the
// O(devices) string listing of ProfileLister. Nil when the source has no
// per-device profile knowledge.
func (a *Assessment) profileNames() []string {
	if a.profResolved {
		return a.profNames
	}
	a.profResolved = true
	devices := a.cfg.Source.Devices()
	if pa, ok := a.cfg.Source.(ProfileAssigner); ok {
		if names, idx := pa.ProfileAssignment(); len(idx) == devices && len(names) > 0 {
			full := make([]string, devices)
			ok := true
			for d, i := range idx {
				if int(i) >= len(names) {
					ok = false
					break
				}
				full[d] = names[i]
			}
			if ok {
				a.profNames, a.profList = full, names
				return a.profNames
			}
		}
	}
	if pl, ok := a.cfg.Source.(ProfileLister); ok {
		if names := pl.DeviceProfileNames(); len(names) == devices {
			a.profNames, a.profList = names, names
		}
	}
	return a.profNames
}

// evaluateMonth streams one evaluation window from the source through the
// per-device accumulators (built-in and custom) and finalises the month.
// Under screening the window covers only the active (unpruned) devices;
// positions in the month's slices map back to device indices through
// a.active, and the month ends with the prune decision for the next one.
func (a *Assessment) evaluateMonth(ctx context.Context, month int, last bool) (*MonthEval, error) {
	devices := a.cfg.Source.Devices()
	screening := a.cfg.Screening != nil
	if screening && a.active == nil {
		a.active = make([]int, devices)
		a.posOf = make([]int, devices)
		for d := range a.active {
			a.active[d] = d
			a.posOf[d] = d
		}
	}
	count := devices
	if screening {
		count = len(a.active)
	}
	// deviceAt maps a window position to its campaign device index — the
	// identity except under screening after the first prune.
	deviceAt := func(p int) int {
		if screening {
			return a.active[p]
		}
		return p
	}
	accs := make([]*stream.Device, count)
	custom := make([][]MetricAccumulator, len(a.cfg.Metrics))
	for mi := range custom {
		custom[mi] = make([]MetricAccumulator, count)
	}
	for p := range accs {
		d := deviceAt(p)
		var ref *bitvec.Vector
		if a.refs != nil {
			ref = a.refs[d]
		}
		accs[p] = stream.NewDevice(ref)
		for mi, m := range a.cfg.Metrics {
			acc, err := m.NewAccumulator(month, d, ref)
			if err != nil {
				return nil, fmt.Errorf("metric %q device %d: %w", m.Name(), d, err)
			}
			custom[mi][p] = acc
		}
	}

	sink := Sink(func(d int, m *bitvec.Vector) error {
		if d < 0 || d >= devices {
			return fmt.Errorf("%w: device %d of %d", ErrUnknownDevice, d, devices)
		}
		p := d
		if screening {
			if p = a.posOf[d]; p < 0 {
				return fmt.Errorf("%w: device %d was pruned", ErrUnknownDevice, d)
			}
		}
		if err := accs[p].Add(m); err != nil {
			return err
		}
		for mi := range custom {
			if err := custom[mi][p].Add(m); err != nil {
				return fmt.Errorf("metric %q device %d: %w", a.cfg.Metrics[mi].Name(), d, err)
			}
		}
		return nil
	})
	if err := a.cfg.Source.Measure(ctx, month, a.cfg.WindowSize, sink); err != nil {
		return nil, err
	}

	// The first evaluated month is enrollment: adopt each device's first
	// read-out as its reference pattern (§IV-B1). Screening never prunes
	// before the first evaluation, so the references cover everyone.
	if a.refs == nil {
		a.refs = make([]*bitvec.Vector, devices)
		for p := range accs {
			d := deviceAt(p)
			if accs[p].Ref() == nil {
				return nil, fmt.Errorf("%w: device %d delivered no measurements", ErrShortWindow, d)
			}
			a.refs[d] = accs[p].Ref()
		}
	}

	eval := &MonthEval{Month: month, Label: store.MonthLabel(month)}
	eval.Devices = make([]DeviceMonth, count)
	cross := stream.NewCross()
	firsts := make([]*bitvec.Vector, 0, count)
	for p, acc := range accs {
		d := deviceAt(p)
		r, err := acc.Result()
		if err != nil {
			return nil, fmt.Errorf("device %d: %w", d, err)
		}
		if r.Count != a.cfg.WindowSize {
			return nil, fmt.Errorf("%w: device %d delivered %d of %d measurements",
				ErrShortWindow, d, r.Count, a.cfg.WindowSize)
		}
		eval.Devices[p] = DeviceMonth{WCHD: r.WCHDMean, FHW: r.FHW, NoiseHmin: r.NoiseHmin, StableRatio: r.StableRatio}
		if a.cfg.WindowDone != nil {
			a.cfg.WindowDone(month, d, acc)
		}
		// Uniqueness metrics use the first measurement of each device's
		// window (§IV-B2: "the first SRAM read-out data of the 1,000
		// consecutive measurements ... is used to calculate BCHD").
		if err := cross.Add(acc.First()); err != nil {
			return nil, err
		}
		firsts = append(firsts, acc.First())
	}
	cr, err := cross.Result()
	if err != nil {
		return nil, err
	}
	eval.BCHDMean, eval.BCHDMin, eval.BCHDMax = cr.BCHDMean, cr.BCHDMin, cr.BCHDMax
	eval.PUFHmin = cr.PUFHmin

	if names := a.profileNames(); names != nil {
		if screening && count < devices {
			activeNames := make([]string, count)
			for p, d := range a.active {
				activeNames[p] = names[d]
			}
			eval.ByProfile = profileBreakdown(activeNames, eval.Devices)
		} else {
			eval.ByProfile = profileBreakdown(names, eval.Devices)
		}
	}

	if len(a.cfg.CrossMetrics) > 0 {
		eval.CrossCustom = make(map[string]float64, len(a.cfg.CrossMetrics))
		for _, m := range a.cfg.CrossMetrics {
			v, err := m.Compute(month, firsts)
			if err != nil {
				return nil, fmt.Errorf("cross metric %q: %w", m.Name(), err)
			}
			eval.CrossCustom[m.Name()] = v
		}
	}

	if len(a.cfg.Metrics) > 0 {
		eval.Custom = make(map[string][]float64, len(a.cfg.Metrics))
		for mi, m := range a.cfg.Metrics {
			vals := make([]float64, count)
			for p, acc := range custom[mi] {
				v, err := acc.Value()
				if err != nil {
					return nil, fmt.Errorf("metric %q device %d: %w", m.Name(), deviceAt(p), err)
				}
				vals[p] = v
			}
			eval.Custom[m.Name()] = vals
		}
	}

	if screening {
		if err := a.screenMonth(eval, devices, count, last); err != nil {
			return nil, err
		}
	}
	return eval, nil
}

// screenMonth applies the prune decision after one evaluated month: the
// survivor bookkeeping lands in eval, the source is told to stop sampling
// the pruned devices, and the active set shrinks for the next month. The
// decision reads only eval's metrics, so every execution layout prunes
// identically.
func (a *Assessment) screenMonth(eval *MonthEval, devices, count int, last bool) error {
	eval.Survivors = count
	if count < devices {
		eval.DeviceIndex = append([]int(nil), a.active...)
	}
	names := a.profileNames()
	if a.floors == nil {
		floors, err := a.cfg.Screening.Resolve(a.profList)
		if err != nil {
			return err
		}
		a.floors = floors
	}
	var pruned []int
	survivors := a.active[:0]
	for p, d := range a.active {
		name := ""
		if names != nil {
			name = names[d]
		}
		if eval.Devices[p].StableRatio < a.floors[name] {
			pruned = append(pruned, d)
			if eval.Attrition == nil {
				eval.Attrition = make(map[string]int, 2)
			}
			eval.Attrition[name]++
			a.posOf[d] = -1
		} else {
			survivors = append(survivors, d)
		}
	}
	if len(pruned) == 0 {
		a.active = survivors
		return nil
	}
	eval.Pruned = pruned
	a.active = survivors
	for p, d := range a.active {
		a.posOf[d] = p
	}
	if len(a.active) < 2 && !last {
		return fmt.Errorf("%w: %d of %d devices survive the stability floor", ErrScreenedOut, len(a.active), devices)
	}
	return a.cfg.Source.(DevicePruner).PruneDevices(pruned)
}
