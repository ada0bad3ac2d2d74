package sramaging

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/fuzzy"
	"repro/internal/keylife"
)

// KeyExtractor is the code-offset fuzzy extractor behind key-lifecycle
// campaigns (see NewKeyExtractor for the standard scheme).
type KeyExtractor = fuzzy.Extractor

// Key-lifecycle metric series names, as keyed in MonthEval.Custom (per
// device) and MonthEval.CrossCustom (per fleet).
const (
	KeyLifeSuccess     = keylife.MetricSuccess
	KeyLifeBitErrors   = keylife.MetricBitErrors
	KeyLifeMargin      = keylife.MetricMargin
	KeyLifeFailProb    = keylife.MetricFailProb
	KeyLifeLeakageBits = keylife.CrossLeakageBits
	KeyLifeWorstMargin = keylife.CrossWorstMargin
)

// KeyLifeConfig tunes WithKeyLifecycle. The zero value selects the
// standard scheme: the NewKeyExtractor code, burn-in screening at the
// hot and hot-overvoltage corners over a 50-measurement window, and
// deterministic per-device enrollment secrets.
type KeyLifeConfig struct {
	// Extractor overrides the fuzzy-extractor scheme (nil: the standard
	// NewKeyExtractor construction). The code must have a known
	// correction radius (margins are undefined otherwise).
	Extractor *KeyExtractor
	// SecretSeed seeds the deterministic enrollment secrets; zero selects
	// the package default.
	SecretSeed uint64
	// Corners are the burn-in screening stress corners (nil: HotCorner
	// and HotHighVoltage).
	Corners []Scenario
	// BurnInWindow is the measurements per screening corner (<= 0: 50).
	BurnInWindow int
	// ScreenProfile overrides the device profile the screening round
	// simulates (zero value: the assessment's profile). Set it when
	// replaying an archive recorded from a non-default profile.
	ScreenProfile DeviceProfile
	// ScreenSeed overrides the campaign seed the screening round derives
	// its streams from (0: the assessment's seed). Set it when replaying
	// an archive recorded with a non-default seed.
	ScreenSeed uint64
}

// WithKeyLifecycle turns the campaign into a key-provisioning pipeline
// (paper §II-A1): the first evaluated month runs burn-in screening,
// index-selection debiasing, and fuzzy-extractor enrollment per device;
// every later month streams reconstruction success, bit errors, the
// worst block's correction margin, and the model-predicted key-failure
// probability as Metric/CrossMetric series in the Results (the KeyLife*
// series names). Composes with sim, rig, archive-replay, sharded, and
// sweep execution; the streamed series are bit-identical across all of
// them for the same campaign.
func WithKeyLifecycle(cfg KeyLifeConfig) Option {
	return func(a *Assessment) error {
		if cfg.BurnInWindow < 0 {
			return fmt.Errorf("%w: negative burn-in window %d", ErrConfig, cfg.BurnInWindow)
		}
		for _, sc := range cfg.Corners {
			if err := sc.Validate(); err != nil {
				return fmt.Errorf("%w: %v", ErrConfig, err)
			}
		}
		a.spec.KeyLife, a.keylifeCfg = true, cfg
		return nil
	}
}

// keylifeConfig resolves the internal workload configuration against the
// assessment's own simulation parameters.
func (a *Assessment) keylifeConfig(devices int) keylife.Config {
	cfg := a.keylifeCfg
	profile := cfg.ScreenProfile
	if profile.Cells() == 0 {
		profile = a.spec.Sim.Profile
	}
	seed := cfg.ScreenSeed
	if seed == 0 {
		seed = a.spec.Sim.Seed
	}
	return keylife.Config{
		Profile:      profile,
		Devices:      devices,
		Seed:         seed,
		SecretSeed:   cfg.SecretSeed,
		Extractor:    cfg.Extractor,
		Corners:      cfg.Corners,
		BurnInWindow: cfg.BurnInWindow,
	}
}

// keylifePointMetrics screens ONCE and returns the sweep's per-point
// metric factory: each grid point gets its own workload (enrollment is
// stateful; points run concurrently) sharing the screening masks.
func (a *Assessment) keylifePointMetrics(ctx context.Context) (func(context.Context, Scenario) ([]Metric, []CrossMetric, error), error) {
	cfg := a.keylifeConfig(a.spec.Sim.Devices)
	masks, err := keylife.Screen(ctx, cfg)
	if err != nil {
		return nil, err
	}
	cfg.Masks = masks
	return func(pctx context.Context, sc Scenario) ([]Metric, []CrossMetric, error) {
		wl, err := keylife.New(pctx, cfg)
		if err != nil {
			return nil, nil, err
		}
		return wl.Metrics(), wl.CrossMetrics(), nil
	}, nil
}

// RenderKeyLifeTable formats the streamed key-lifecycle series of a
// Results as the key table of cmd/agingtest -keylife: one row per month
// with the fleet's reconstruction tally, worst remaining correction
// margin, worst observed bit-error count, and worst predicted failure
// probability. It returns "" when the Results carry no key-lifecycle
// series. The rendering is deterministic — byte-identical results render
// byte-identical tables.
func RenderKeyLifeTable(res *Results) string {
	success := res.CustomSeries(KeyLifeSuccess)
	bitErrs := res.CustomSeries(KeyLifeBitErrors)
	margins := res.CustomSeries(KeyLifeMargin)
	failPs := res.CustomSeries(KeyLifeFailProb)
	leak := res.CrossCustomSeries(KeyLifeLeakageBits)
	// CustomSeries is device-major: success[device][evaluation].
	if len(success) == 0 || len(success[0]) != len(res.Monthly) {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("KEY LIFECYCLE (streamed enrollment -> monthly reconstruction)\n")
	if len(leak) > 0 {
		fmt.Fprintf(&sb, "helper-data leakage bound: %.0f bits\n", leak[0])
	}
	fmt.Fprintf(&sb, "%-6s %9s %14s %16s %17s\n", "month", "recon", "worst margin", "max bit errors", "worst fail prob")
	for i := range res.Monthly {
		ok, n := 0, len(success)
		for d := range success {
			if success[d][i] == 1 {
				ok++
			}
		}
		worstMargin, maxErrs, worstFail := worstAt(margins, i, false), worstAt(bitErrs, i, true), worstAt(failPs, i, true)
		fmt.Fprintf(&sb, "%-6s %5d/%-3d %14.0f %16.0f %17.3e\n",
			res.Monthly[i].Label, ok, n, worstMargin, maxErrs, worstFail)
	}
	return sb.String()
}

// worstAt returns the max (or min) across devices of a device-major
// series at evaluation i, or 0 when absent.
func worstAt(series [][]float64, i int, max bool) float64 {
	w, any := 0.0, false
	for d := range series {
		if i >= len(series[d]) {
			continue
		}
		v := series[d][i]
		if !any || (max && v > w) || (!max && v < w) {
			w, any = v, true
		}
	}
	return w
}
