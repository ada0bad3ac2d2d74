// Package keylife runs the paper's §II-A1 application — helper-data key
// generation from SRAM power-up — as a streamed workload riding the
// assessment engine. On the first evaluated month of a campaign each
// device is enrolled: a burn-in screening round at stress corners yields
// a stable-cell mask, index-selection debiasing over that mask picks the
// response bits, and the fuzzy extractor derives a key plus public helper
// data. Every later month reconstructs the key from that month's first
// power-up and streams, per device:
//
//   - keylife.success    — 1 when the reconstructed key is byte-identical
//     to the enrolled one, 0 when the helper-data check fired;
//   - keylife.bit_errors — Hamming distance between the month's debiased
//     response and the enrolled response;
//   - keylife.margin     — the worst block's remaining correction budget,
//     min over blocks of (t − errors_in_block); negative once any block
//     exceeds the code's radius;
//   - keylife.fail_prob  — the predicted key-failure probability from the
//     Maes CHES'13 reliability model fitted to the month's own window
//     statistics (fallback: the empirical bit-error ratio when the
//     observables leave the fittable range).
//
// Two cross-device series accompany them: keylife.leakage_bits, the
// helper-data leakage bound N − K of the code-offset construction
// (constant, recorded for the entropy accounting), and
// keylife.worst_margin, the fleet's minimum margin.
//
// Everything is deterministic: the screening masks derive from
// (profile, devices, seed, corners) alone, enrollment secrets from
// SecretSeed via per-device label derivation. The workload therefore
// streams bit-identical series across sim, rig, sharded, and
// archive-replay sources, and survives checkpoint/resume — a resumed
// campaign re-measures the enrollment month and re-derives the identical
// keys.
package keylife

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/aging"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/debias"
	"repro/internal/ecc"
	"repro/internal/fuzzy"
	"repro/internal/reliability"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/stream"
	"repro/internal/sweep"
)

// Metric series names, as keyed in MonthEval.Custom / CrossCustom.
const (
	MetricSuccess   = "keylife.success"
	MetricBitErrors = "keylife.bit_errors"
	MetricMargin    = "keylife.margin"
	MetricFailProb  = "keylife.fail_prob"

	CrossLeakageBits = "keylife.leakage_bits"
	CrossWorstMargin = "keylife.worst_margin"
)

// Defaults for the zero-valued Config fields.
const (
	// DefaultSecretSeed seeds the deterministic enrollment secrets when
	// Config.SecretSeed is zero.
	DefaultSecretSeed = 99
	// DefaultBurnInWindow is the per-corner screening window.
	DefaultBurnInWindow = 50
)

// DefaultCorners returns the burn-in stress corners: elevated temperature
// and elevated temperature + overvoltage.
func DefaultCorners() []aging.Scenario {
	return []aging.Scenario{aging.HotCorner, aging.HotHighVoltage}
}

// DefaultExtractor builds the standard key-generation scheme: 11 blocks
// of Golay(23,12) ∘ repetition(5) — N = 1265 response bits, K = 132
// secret bits, correcting t = 17 errors per 115-bit block.
func DefaultExtractor() (*fuzzy.Extractor, error) {
	golay := ecc.NewGolay()
	rep, err := ecc.NewRepetition(5)
	if err != nil {
		return nil, err
	}
	concat, err := ecc.NewConcatenated(golay, rep)
	if err != nil {
		return nil, err
	}
	blocked, err := ecc.NewBlocked(concat, 11)
	if err != nil {
		return nil, err
	}
	return fuzzy.New(blocked)
}

// Config parameterises a key-lifecycle workload. Profile, Devices, and
// Seed must match the campaign the workload is registered with — the
// burn-in screening measures the same simulated chips the campaign does.
type Config struct {
	// Profile is the device family under screening.
	Profile silicon.DeviceProfile
	// Devices is the campaign's device count.
	Devices int
	// Seed is the campaign seed; screening derives the same per-device
	// streams from it.
	Seed uint64
	// SecretSeed seeds the enrollment secrets (per-device derivation);
	// zero selects DefaultSecretSeed.
	SecretSeed uint64
	// Extractor is the fuzzy-extractor scheme; nil selects
	// DefaultExtractor. The underlying code must have a known correction
	// radius (ecc.CorrectionRadius) — margin and failure probability are
	// undefined otherwise.
	Extractor *fuzzy.Extractor
	// Corners are the burn-in stress corners; nil selects DefaultCorners.
	Corners []aging.Scenario
	// BurnInWindow is the per-corner screening window; <= 0 selects
	// DefaultBurnInWindow.
	BurnInWindow int
	// Masks, when non-nil, skips the screening round and uses these
	// per-device stable masks directly (one per device, read-only) — the
	// sweep path screens once and shares the masks across grid points.
	Masks []*bitvec.Vector
}

// Workload is one campaign's key-lifecycle state: per-device screening
// masks, enrollment artefacts after the first evaluated month, and the
// per-month reconstruction results the metric series read. Register its
// Metrics and CrossMetrics with exactly one engine; a Workload must not
// be shared across concurrent campaigns (build one per sweep point).
type Workload struct {
	ext        *fuzzy.Extractor
	secretSeed uint64
	pairs      int
	radius     int     // correction budget t per independently decoded block
	blockN     int     // bits per independently decoded block
	blocks     int     // number of blocks
	leak       float64 // helper-data leakage bound N - K

	masks []*bitvec.Vector // per-device burn-in stable masks

	enrolled   bool
	sels       []*debias.IndexSelection
	helpers    []fuzzy.HelperData
	keys       [][]byte
	enrollResp []*bitvec.Vector

	// Per-month window statistics feeding the reliability fit, rebuilt by
	// the driver metric's accumulator factory each month.
	fhw   []*stream.FHW
	flips []*stream.Flips

	// Per-month per-device results, written by the driver cross metric
	// (which the engine computes before any Metric.Value), read by the
	// metric series.
	res []deviceMonth
}

type deviceMonth struct {
	success   float64
	bitErrors float64
	margin    float64
	failProb  float64
}

// New validates the configuration, runs the burn-in screening (unless
// cfg.Masks is supplied), and returns a workload ready to register.
func New(ctx context.Context, cfg Config) (*Workload, error) {
	ext, radius, err := cfg.scheme()
	if err != nil {
		return nil, err
	}
	code := ext.Code()
	blockN, blocks := code.N(), 1
	if b, isBlocked := code.(*ecc.Blocked); isBlocked {
		blockN, blocks = b.Base().N(), b.Blocks()
	}
	secretSeed := cfg.SecretSeed
	if secretSeed == 0 {
		secretSeed = DefaultSecretSeed
	}
	masks := cfg.Masks
	if masks == nil {
		if masks, err = Screen(ctx, cfg); err != nil {
			return nil, err
		}
	}
	if len(masks) != cfg.Devices {
		return nil, fmt.Errorf("%w: %d screening masks for %d devices", core.ErrConfig, len(masks), cfg.Devices)
	}
	return &Workload{
		ext:        ext,
		secretSeed: secretSeed,
		pairs:      (code.N() + 1) / 2,
		radius:     radius,
		blockN:     blockN,
		blocks:     blocks,
		leak:       float64(code.N() - code.K()),
		masks:      masks,
		sels:       make([]*debias.IndexSelection, cfg.Devices),
		helpers:    make([]fuzzy.HelperData, cfg.Devices),
		keys:       make([][]byte, cfg.Devices),
		enrollResp: make([]*bitvec.Vector, cfg.Devices),
		fhw:        make([]*stream.FHW, cfg.Devices),
		flips:      make([]*stream.Flips, cfg.Devices),
		res:        make([]deviceMonth, cfg.Devices),
	}, nil
}

// Validate checks cfg without measuring anything: at least one device,
// a code with a known correction radius, and a read window that can
// hold the scheme. Index-selection debiasing draws each of the code's
// (N+1)/2 pairs from two read-out bits, so a read window of fewer than
// twice that many bits can never enroll. The check is necessary, not
// sufficient: the burn-in mask may still leave too few stable pairs.
func (cfg Config) Validate() error {
	_, _, err := cfg.scheme()
	return err
}

// scheme resolves cfg's extractor (nil: DefaultExtractor) and its
// per-block correction radius, checking cfg as Validate documents.
func (cfg Config) scheme() (*fuzzy.Extractor, int, error) {
	if cfg.Devices < 1 {
		return nil, 0, fmt.Errorf("%w: keylife needs >= 1 device, got %d", core.ErrConfig, cfg.Devices)
	}
	ext := cfg.Extractor
	if ext == nil {
		var err error
		if ext, err = DefaultExtractor(); err != nil {
			return nil, 0, err
		}
	}
	code := ext.Code()
	radius, ok := ecc.CorrectionRadius(code)
	if !ok {
		return nil, 0, fmt.Errorf("%w: code %q has no known correction radius; keylife margins are undefined", core.ErrConfig, code.Name())
	}
	if need, bits := 2*((code.N()+1)/2), cfg.Profile.ReadWindowBits(); bits < need {
		return nil, 0, fmt.Errorf("%w: the %d-bit key scheme needs a read window of >= %d bits; profile %q reads %d",
			core.ErrConfig, code.N(), need, cfg.Profile.Name, bits)
	}
	return ext, radius, nil
}

// Screen runs the burn-in screening round of cfg's population at its
// corners (nil: DefaultCorners) over its burn-in window (<= 0:
// DefaultBurnInWindow) and returns one stable mask per device: the masks
// New derives when cfg.Masks is nil. A sweep screens once and hands the
// masks to every point's workload.
func Screen(ctx context.Context, cfg Config) ([]*bitvec.Vector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	corners := cfg.Corners
	if corners == nil {
		corners = DefaultCorners()
	}
	window := cfg.BurnInWindow
	if window <= 0 {
		window = DefaultBurnInWindow
	}
	masks, err := sweep.ScreenStableCells(ctx, cfg.Profile, cfg.Devices, cfg.Seed, corners, window)
	if err != nil {
		return nil, fmt.Errorf("keylife: burn-in screening: %w", err)
	}
	return masks, nil
}

// Metrics returns the per-device series, for registration after any
// caller metrics. The first metric's accumulators fold the per-window
// statistics the reliability fit consumes.
func (w *Workload) Metrics() []core.Metric {
	read := func(name string, field func(deviceMonth) float64) core.Metric {
		return core.NewMetricFunc(name, func(month, device int, ref *bitvec.Vector) (core.MetricAccumulator, error) {
			return readerAcc{w: w, device: device, field: field}, nil
		})
	}
	driver := core.NewMetricFunc(MetricSuccess, func(month, device int, ref *bitvec.Vector) (core.MetricAccumulator, error) {
		// Reset this device's window statistics; the engine creates all
		// accumulators before streaming the month.
		w.fhw[device] = stream.NewFHW()
		w.flips[device] = stream.NewFlips()
		return driverAcc{w: w, device: device}, nil
	})
	return []core.Metric{
		driver,
		read(MetricBitErrors, func(r deviceMonth) float64 { return r.bitErrors }),
		read(MetricMargin, func(r deviceMonth) float64 { return r.margin }),
		read(MetricFailProb, func(r deviceMonth) float64 { return r.failProb }),
	}
}

// CrossMetrics returns the cross-device series. The first one is the
// workload's compute step — the engine evaluates cross metrics before
// per-device Metric values, so it enrolls/reconstructs every device and
// stores the results the Metrics read.
func (w *Workload) CrossMetrics() []core.CrossMetric {
	compute := core.NewCrossMetricFunc(CrossLeakageBits, func(month int, firsts []*bitvec.Vector) (float64, error) {
		if err := w.computeMonth(firsts); err != nil {
			return 0, err
		}
		return w.leak, nil
	})
	worst := core.NewCrossMetricFunc(CrossWorstMargin, func(month int, firsts []*bitvec.Vector) (float64, error) {
		min := math.Inf(1)
		for _, r := range w.res {
			if r.margin < min {
				min = r.margin
			}
		}
		return min, nil
	})
	return []core.CrossMetric{compute, worst}
}

// driverAcc folds the window statistics of one device-month.
type driverAcc struct {
	w      *Workload
	device int
}

func (a driverAcc) Add(m *bitvec.Vector) error {
	if err := a.w.fhw[a.device].Add(m); err != nil {
		return err
	}
	return a.w.flips[a.device].Add(m)
}

func (a driverAcc) Value() (float64, error) { return a.w.res[a.device].success, nil }

// readerAcc reads one field of the device's computed month result.
type readerAcc struct {
	w      *Workload
	device int
	field  func(deviceMonth) float64
}

func (a readerAcc) Add(m *bitvec.Vector) error { return nil }
func (a readerAcc) Value() (float64, error)    { return a.field(a.w.res[a.device]), nil }

// computeMonth enrolls (first evaluated month) or reconstructs (every
// later month) all devices from their window-first patterns.
func (w *Workload) computeMonth(firsts []*bitvec.Vector) error {
	if len(firsts) != len(w.res) {
		return fmt.Errorf("%w: %d window patterns for %d keylife devices", core.ErrConfig, len(firsts), len(w.res))
	}
	if !w.enrolled {
		for d, first := range firsts {
			if err := w.enroll(d, first); err != nil {
				return fmt.Errorf("keylife: enroll device %d: %w", d, err)
			}
		}
		w.enrolled = true
		return nil
	}
	for d, first := range firsts {
		if err := w.reconstruct(d, first); err != nil {
			return fmt.Errorf("keylife: reconstruct device %d: %w", d, err)
		}
	}
	return nil
}

func (w *Workload) enroll(d int, first *bitvec.Vector) error {
	if w.masks[d] == nil || w.masks[d].Len() != first.Len() {
		return fmt.Errorf("%w: screening mask does not match the campaign's %d-bit measurements", core.ErrConfig, first.Len())
	}
	sel, err := debias.NewIndexSelectionMasked(first, w.masks[d], w.pairs)
	if err != nil {
		return err
	}
	resp, err := w.response(sel, first)
	if err != nil {
		return err
	}
	key, helper, err := w.ext.Enroll(resp, rng.New(w.secretSeed).Derive(uint64(d)+1))
	if err != nil {
		return err
	}
	w.sels[d], w.helpers[d], w.keys[d], w.enrollResp[d] = sel, helper, key, resp
	w.res[d] = deviceMonth{success: 1, bitErrors: 0, margin: float64(w.radius)}
	return w.predictFailure(d, 0)
}

func (w *Workload) reconstruct(d int, first *bitvec.Vector) error {
	resp, err := w.response(w.sels[d], first)
	if err != nil {
		return err
	}
	bitErrors, err := resp.HammingDistance(w.enrollResp[d])
	if err != nil {
		return err
	}
	margin := w.radius
	for b := 0; b < w.blocks; b++ {
		e, err := resp.CountDiffWindow(w.enrollResp[d], b*w.blockN, (b+1)*w.blockN)
		if err != nil {
			return err
		}
		if m := w.radius - e; m < margin {
			margin = m
		}
	}
	success := 0.0
	key, err := w.ext.Reconstruct(resp, w.helpers[d])
	switch {
	case err == nil:
		if !bytes.Equal(key, w.keys[d]) {
			// Unreachable with the check digest in place; fail loudly
			// rather than report a wrong key as success.
			return errors.New("keylife: reconstruction returned a non-identical key")
		}
		success = 1
	case errors.Is(err, fuzzy.ErrReconstructFailed):
		// The expected field-failure mode: too many bit errors.
	default:
		return err
	}
	w.res[d] = deviceMonth{success: success, bitErrors: float64(bitErrors), margin: float64(margin)}
	return w.predictFailure(d, bitErrors)
}

// response debiases a window-first pattern into the extractor's response.
func (w *Workload) response(sel *debias.IndexSelection, first *bitvec.Vector) (*bitvec.Vector, error) {
	raw, err := sel.Apply(first)
	if err != nil {
		return nil, err
	}
	return raw.Slice(0, w.ext.ResponseBits()), nil
}

// predictFailure fits the reliability model to the month's own window
// statistics and stores the predicted key-failure probability: the
// per-block beyond-t probability at the modelled bit error rate, lifted
// to the whole key as 1 − (1 − p_block)^blocks. When the observables
// leave the fittable range (burn-in-fresh windows can be fully stable)
// the deterministic fallback is the month's empirical bit-error ratio.
func (w *Workload) predictFailure(d, bitErrors int) error {
	ber := float64(bitErrors) / float64(w.ext.ResponseBits())
	obs := reliability.Observables{Window: w.flips[d].Count()}
	var err error
	if obs.FHW, err = w.fhw[d].Mean(); err != nil {
		return err
	}
	if obs.StableRatio, err = w.flips[d].StableRatio(); err != nil {
		return err
	}
	if model, fitErr := reliability.Fit(obs); fitErr == nil {
		if wchd, werr := model.ExpectedWCHD(); werr == nil {
			ber = wchd
		}
	}
	pBlock, err := reliability.KeyFailureProbability(ber, w.radius, w.blockN)
	if err != nil {
		return err
	}
	w.res[d].failProb = 1 - math.Pow(1-pBlock, float64(w.blocks))
	return nil
}
