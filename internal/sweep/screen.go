package sweep

import (
	"context"
	"fmt"

	"repro/internal/aging"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/silicon"
	"repro/internal/stream"
)

// ScreenStableCells runs a burn-in screening round over the population:
// for each stress corner, the month-0 power-up of every device is sampled
// `window` times and the per-device stable-cell mask (cells that never
// flipped, StableMaskInto's classification) is harvested; the returned
// mask per device is the intersection across all corners — cells stable
// at EVERY corner, the index-selection candidates of key-lifecycle
// enrollment (PAPERS.md: elevated temperature + overvoltage rounds).
//
// Screening always samples the simulated population directly from
// (profile, devices, seed), independent of the campaign's own source, so
// an archive replay of a recorded campaign re-derives the identical
// masks — a prerequisite for bit-identical key-lifecycle series.
func ScreenStableCells(ctx context.Context, profile silicon.DeviceProfile, devices int, seed uint64, corners []aging.Scenario, window int) ([]*bitvec.Vector, error) {
	if len(corners) == 0 {
		return nil, fmt.Errorf("%w: screening needs at least one stress corner", core.ErrConfig)
	}
	if window < 2 {
		return nil, fmt.Errorf("%w: screening window %d too small", core.ErrConfig, window)
	}
	masks := make([]*bitvec.Vector, devices)
	for _, sc := range corners {
		src, err := core.OpenSim(core.SimSpec{Profile: profile, Devices: devices, Seed: seed, Scenario: sc})
		if err != nil {
			return nil, fmt.Errorf("screen corner %q: %w", sc.Name, err)
		}
		ones := make([]*stream.Ones, devices)
		for d := range ones {
			ones[d] = stream.NewOnes()
		}
		// The sink runs concurrently across devices but each device's
		// accumulator is touched only by that device's delivery goroutine.
		sink := core.Sink(func(d int, m *bitvec.Vector) error {
			if d < 0 || d >= devices {
				return fmt.Errorf("%w: device %d of %d", core.ErrUnknownDevice, d, devices)
			}
			return ones[d].Add(m)
		})
		if err := src.Measure(ctx, 0, window, sink); err != nil {
			return nil, fmt.Errorf("screen corner %q: %w", sc.Name, err)
		}
		for d := range ones {
			mask, err := ones[d].StableMask()
			if err != nil {
				return nil, fmt.Errorf("screen corner %q device %d: %w", sc.Name, d, err)
			}
			if masks[d] == nil {
				masks[d] = mask
			} else if err := masks[d].AndInPlace(mask); err != nil {
				return nil, fmt.Errorf("screen corner %q device %d: %w", sc.Name, d, err)
			}
		}
	}
	return masks, nil
}
