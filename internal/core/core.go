// Package core implements the paper's contribution: the long-term
// continuous assessment of SRAM PUFs as key-generation primitives and as
// entropy sources (§IV).
//
// An Assessment reproduces the two-year test: 16 ATmega32u4 boards,
// monthly evaluation windows of 1,000 consecutive measurements starting
// at midnight on the 8th of each month, and the full metric pipeline —
// within-class Hamming distance (reliability), Hamming weight (bias),
// between-class Hamming distance and PUF min-entropy (uniqueness),
// stable-cell ratio and noise min-entropy (randomness). Its results
// regenerate Table I and Figs. 4, 5 and 6 of the paper.
//
// Two execution paths produce bit-identical measurements (verified by
// tests): the full rig simulation of package harness (power switch, boot,
// I2C, masters forwarding each read-out to one sink) and a direct
// sampling path that skips the rig and draws power-up windows straight
// from the SRAM arrays. The direct path exists because a full-fidelity
// 175-million-measurement campaign is not something anyone wants to
// event-step through for every figure; the windows the paper evaluates
// are simulated measurement by measurement either way, and aging between
// windows is advanced analytically in both paths.
//
// Evaluation is a streaming pipeline (package stream): every execution
// path is a Source feeding the same one-pass accumulators, so a
// device-window costs O(array size) memory instead of materialising
// WindowSize patterns. The engine proper is Assessment (assessment.go):
// one Source — a simulated source opened from a SimSpec by OpenSim
// (direct, lazy, rig or sharded; simspec.go), or archive replay
// (source.go) — a registry of custom Metrics, a month list, cancellation
// and incremental per-month emission. The historical collect-then-
// evaluate engine survives in the package's tests as the batch oracle
// the streaming engine is held to, bit for bit.
package core

import (
	"math"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/calib"
	"repro/internal/silicon"
	"repro/internal/stats"
)

// DeviceMonth holds one device's metrics for one evaluation window.
type DeviceMonth struct {
	WCHD        float64 // mean FHD vs the device's month-0 reference
	FHW         float64 // mean fractional Hamming weight over the window
	NoiseHmin   float64 // empirical noise min-entropy
	StableRatio float64 // fraction of cells with no flip in the window
}

// MonthEval aggregates one evaluation window across all devices.
type MonthEval struct {
	Month   int
	Label   string // paper axis format, e.g. "17-Feb"
	Devices []DeviceMonth

	BCHDMean float64
	BCHDMin  float64
	BCHDMax  float64
	PUFHmin  float64

	// Custom holds the values of externally registered Metrics, keyed by
	// Metric.Name, one value per device. Nil when no metrics were
	// registered.
	Custom map[string][]float64
	// CrossCustom holds the values of externally registered CrossMetrics
	// (one cross-device value per window), keyed by CrossMetric.Name.
	// Nil when no cross metrics were registered.
	CrossCustom map[string]float64

	// ByProfile breaks the per-device reliability metrics down by fleet
	// profile name. It is populated only for heterogeneous fleets —
	// sources whose ProfileAssigner or ProfileLister listing names more
	// than one distinct profile — so homogeneous campaigns (and their
	// serialized results) are unchanged.
	ByProfile map[string]ProfileEval `json:",omitempty"`

	// Screening fields, populated only under ScreeningConfig — every one
	// is omitempty, so non-screened results (and their serialized forms)
	// are byte-identical to the historical shape.

	// Survivors is the number of devices still being sampled this month
	// (the length of Devices).
	Survivors int `json:",omitempty"`
	// DeviceIndex maps each position of Devices (and Custom values) back
	// to its original campaign device index. Nil while no device has been
	// pruned (positions are the identity).
	DeviceIndex []int `json:",omitempty"`
	// Pruned lists the device indices screened out AFTER this month's
	// evaluation (their metrics are still in Devices; they stop being
	// sampled from the next month on). Ascending.
	Pruned []int `json:",omitempty"`
	// Attrition counts this month's pruned devices per profile name —
	// the per-profile attrition series of a screened fleet. Keys follow
	// the fleet's profile names; single-profile campaigns use "". Nil
	// when nothing was pruned this month.
	Attrition map[string]int `json:",omitempty"`
}

// DeviceMonthAt returns the month's metrics for original campaign device
// index d, resolving a screened month's compacted Devices slice through
// DeviceIndex. ok is false when the device was pruned before this month.
func (m MonthEval) DeviceMonthAt(d int) (DeviceMonth, bool) {
	if m.DeviceIndex == nil {
		if d >= 0 && d < len(m.Devices) {
			return m.Devices[d], true
		}
		return DeviceMonth{}, false
	}
	i := sort.SearchInts(m.DeviceIndex, d)
	if i < len(m.DeviceIndex) && m.DeviceIndex[i] == d {
		return m.Devices[i], true
	}
	return DeviceMonth{}, false
}

// Avg returns the device average of a per-device metric. An evaluation
// with no devices has no average: it deliberately returns NaN (rather
// than panicking or silently reading 0, which is a legal metric value).
func (m MonthEval) Avg(f func(DeviceMonth) float64) float64 {
	if len(m.Devices) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, d := range m.Devices {
		s += f(d)
	}
	return s / float64(len(m.Devices))
}

// Worst returns the application-worst value of a per-device metric:
// highest WCHD/FHW/stable ratio, lowest noise entropy — matching the WC
// rows of Table I. Like Avg, it returns NaN for an empty evaluation.
func (m MonthEval) Worst(f func(DeviceMonth) float64, lowIsWorst bool) float64 {
	if len(m.Devices) == 0 {
		return math.NaN()
	}
	w := f(m.Devices[0])
	for _, d := range m.Devices[1:] {
		v := f(d)
		if lowIsWorst && v < w || !lowIsWorst && v > w {
			w = v
		}
	}
	return w
}

// Quality is one Table I cell group: a metric at start and end of test
// with its relative and monthly change.
type Quality struct {
	Start    float64
	End      float64
	Relative float64 // (end-start)/start
	Monthly  float64 // geometric per-month rate
}

func quality(start, end float64, months int) Quality {
	return Quality{
		Start:    start,
		End:      end,
		Relative: stats.RelativeChange(start, end),
		Monthly:  stats.MonthlyChange(start, end, months),
	}
}

// QualityPair is an AVG row and a WC row.
type QualityPair struct {
	Avg Quality
	WC  Quality
}

// TableI is the paper's summary table.
type TableI struct {
	WCHD         QualityPair
	HW           QualityPair
	StableCells  QualityPair
	NoiseEntropy QualityPair
	BCHD         QualityPair
	PUFEntropy   Quality
}

// Results is the complete campaign outcome.
type Results struct {
	Monthly []MonthEval // index = month
	Table   TableI
	// References holds each device's month-0 reference pattern (the
	// first-ever read-out), used by key-generation experiments.
	References []*bitvec.Vector
}

// BuildTable assembles Table I from a first and last evaluation spanning
// the given number of months. It is shared by the campaign engines and by
// archive-driven evaluation (cmd/evaluate).
func BuildTable(start, end MonthEval, months int) TableI {
	var t TableI
	get := func(f func(DeviceMonth) float64, lowIsWorst bool) QualityPair {
		return QualityPair{
			Avg: quality(start.Avg(f), end.Avg(f), months),
			WC:  quality(start.Worst(f, lowIsWorst), end.Worst(f, lowIsWorst), months),
		}
	}
	t.WCHD = get(func(d DeviceMonth) float64 { return d.WCHD }, false)
	t.HW = get(func(d DeviceMonth) float64 { return d.FHW }, false)
	t.StableCells = get(func(d DeviceMonth) float64 { return d.StableRatio }, false)
	t.NoiseEntropy = get(func(d DeviceMonth) float64 { return d.NoiseHmin }, true)
	t.BCHD = QualityPair{
		Avg: quality(start.BCHDMean, end.BCHDMean, months),
		WC:  quality(start.BCHDMin, end.BCHDMin, months),
	}
	t.PUFEntropy = quality(start.PUFHmin, end.PUFHmin, months)
	return t
}

// Series extracts a per-device metric time series for the Fig. 6 plots:
// one slice per device, indexed by month. In a screened campaign a
// device's series carries NaN from the month it stopped being sampled
// (its position resolved through DeviceIndex); unscreened campaigns are
// the exact historical rectangle.
func (r *Results) Series(f func(DeviceMonth) float64) [][]float64 {
	if len(r.Monthly) == 0 {
		return nil
	}
	out := make([][]float64, len(r.Monthly[0].Devices))
	for d := range out {
		s := make([]float64, len(r.Monthly))
		for m := range r.Monthly {
			if dm, ok := r.Monthly[m].DeviceMonthAt(d); ok {
				s[m] = f(dm)
			} else {
				s[m] = math.NaN()
			}
		}
		out[d] = s
	}
	return out
}

// CustomSeries extracts a registered Metric's per-device time series,
// shaped like Series (one slice per device, indexed by evaluation). It
// returns nil when no evaluation carries the metric.
func (r *Results) CustomSeries(name string) [][]float64 {
	if len(r.Monthly) == 0 || r.Monthly[0].Custom[name] == nil {
		return nil
	}
	out := make([][]float64, len(r.Monthly[0].Custom[name]))
	for d := range out {
		s := make([]float64, len(r.Monthly))
		for m := range r.Monthly {
			s[m] = r.Monthly[m].Custom[name][d]
		}
		out[d] = s
	}
	return out
}

// CrossCustomSeries extracts a registered CrossMetric's time series (one
// value per evaluation), shaped like PUFEntropySeries. It returns nil
// when no evaluation carries the metric.
func (r *Results) CrossCustomSeries(name string) []float64 {
	if len(r.Monthly) == 0 {
		return nil
	}
	if _, ok := r.Monthly[0].CrossCustom[name]; !ok {
		return nil
	}
	out := make([]float64, len(r.Monthly))
	for m := range r.Monthly {
		out[m] = r.Monthly[m].CrossCustom[name]
	}
	return out
}

// PUFEntropySeries extracts the single cross-device PUF entropy series
// (Fig. 6d).
func (r *Results) PUFEntropySeries() []float64 {
	out := make([]float64, len(r.Monthly))
	for m := range r.Monthly {
		out[m] = r.Monthly[m].PUFHmin
	}
	return out
}

// MonthLabels returns the x-axis labels of the monthly series.
func (r *Results) MonthLabels() []string {
	out := make([]string, len(r.Monthly))
	for m := range r.Monthly {
		out[m] = r.Monthly[m].Label
	}
	return out
}

// PredictedWCHDTrajectory returns the model's analytic WCHD-versus-month
// expectation for a profile — the deterministic counterpart of a simulated
// campaign, used for the nominal-vs-accelerated comparison figure and for
// cross-validating simulation against theory.
func PredictedWCHDTrajectory(profile silicon.DeviceProfile, months int) ([]float64, error) {
	pop, err := calib.NewDispersedPopulation(profile.Lambda, profile.Mu, 1501, 9, profile.AgingDispersion, 17)
	if err != nil {
		return nil, err
	}
	out := make([]float64, months+1)
	prevDrift := 0.0
	for m := 0; m <= months; m++ {
		drift := profile.Kinetics.CumulativeDrift(float64(m))
		pop.Evolve(drift-prevDrift, 0.01)
		prevDrift = drift
		out[m] = pop.WCHD()
	}
	return out, nil
}
