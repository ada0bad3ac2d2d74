package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/aging"
	"repro/internal/bitvec"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/sram"
	"repro/internal/stream"
)

// LazySimSource is the fleet-scale direct-sampling source: instead of
// materialising one sram.Array per device up front (O(devices × window)
// memory — a million-device mixed fleet is dead on arrival), it derives
// each chip on demand from (campaign seed, global device index) inside
// the worker slot that measures it. A slot holds one reusable Array per
// fleet profile; measuring a device Resets the slot's array of that
// device's profile to the device's seed, replays its aging trajectory,
// fast-forwards its noise stream past the windows earlier months
// consumed (one rng.Jump per Measure over every draw so far), and
// samples normally. An Array simulates only the read window, so
// resident chip state is O(slots × profiles × window), independent of
// the device count and of the physical SRAM size.
//
// The streams are bit-identical to the eager SimSource: chip derivation
// is label-based and order-independent (rng.Derive never advances the
// parent), the aging integrator's float trajectory is replayed with the
// exact AgeTo call sequence the eager source performs, aging consumes no
// noise draws, and each Bernoulli power-up of n cells consumes exactly n
// uniform draws — so a jump of (windows so far × size × bits) lands the
// rebuilt chip's noise stream precisely where the persistent chip's
// would be.
//
// The trade: rebuilding replays every prior month's aging integration,
// so a campaign of M evaluated months costs O(M²) aging work per device
// instead of O(M). That is the right trade exactly where this source is
// meant to run — huge populations over few months (screening), where
// memory, not aging arithmetic, is the binding constraint.
type LazySimSource struct {
	recordTap
	fleet       *Fleet
	seed        uint64
	scenario    aging.Scenario
	conditioned []silicon.DeviceProfile
	indices     []int // global device index per local device
	devices     int   // population the indices belong to
	profIdx     []uint8
	bits        int
	pool        *stream.Pool
	workers     int

	root    *rng.Source
	visited []int  // months already measured, ascending
	drawn   uint64 // noise draws each device's earlier windows consumed

	slots  []*lazySlot
	pruned []bool
	alive  int
}

// lazySlot is one worker slot's scratch: a reusable chip per fleet
// profile, rebuilt in place for every device the slot measures, plus the
// per-device derivation and measurement scratch that keeps the device
// loop allocation-free.
type lazySlot struct {
	arrays  []*sram.Array
	seed    rng.Source
	scratch *bitvec.Vector
}

// Devices returns the population size, pruned devices included — a
// pruned device keeps its index, it just stops being sampled.
func (s *LazySimSource) Devices() int { return len(s.indices) }

// Alive returns how many devices are still being sampled.
func (s *LazySimSource) Alive() int { return s.alive }

// Scenario returns the environmental condition the chips operate at.
func (s *LazySimSource) Scenario() aging.Scenario { return s.scenario }

// SetWorkers bounds sampling parallelism AND the live-array slot count
// (<= 0: one slot per logical CPU).
func (s *LazySimSource) SetWorkers(n int) {
	s.workers = n
	s.pool = stream.NewPool(n)
	s.slots = nil
}

// SetPool replaces the source's job scheduler with a shared one (the
// sweep/service budget); slot count follows the pool's worker bound.
func (s *LazySimSource) SetPool(p *stream.Pool) {
	if p != nil {
		s.pool = p
		s.slots = nil
	}
}

// ProfileAssignment implements the compact ProfileAssigner contract:
// the fleet's profile names plus one byte per device.
func (s *LazySimSource) ProfileAssignment() ([]string, []uint8) {
	return s.fleet.ProfileNames(), append([]uint8(nil), s.profIdx...)
}

// DeviceProfileNames implements ProfileLister for callers that want the
// expanded per-device listing.
func (s *LazySimSource) DeviceProfileNames() []string {
	names := s.fleet.ProfileNames()
	out := make([]string, len(s.profIdx))
	for d, i := range s.profIdx {
		out[d] = names[i]
	}
	return out
}

// PruneDevices stops sampling the given (local) device indices from the
// next Measure on — the lazy source simply never rebuilds them again.
func (s *LazySimSource) PruneDevices(indices []int) error {
	for _, d := range indices {
		if d < 0 || d >= len(s.pruned) {
			return fmt.Errorf("%w: prune index %d of %d devices", ErrConfig, d, len(s.pruned))
		}
		if !s.pruned[d] {
			s.pruned[d] = true
			s.alive--
		}
	}
	return nil
}

// slotCount resolves how many worker slots (and so live arrays) Measure
// keeps: the explicit worker bound, else the pool's, else one per
// logical CPU — never more than the devices still alive.
func (s *LazySimSource) slotCount() int {
	n := s.workers
	if n <= 0 {
		n = s.pool.Workers()
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > s.alive {
		n = s.alive
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Measure streams one evaluation window: a fixed set of slot workers
// claim alive devices off a shared counter (device order within the
// sink is irrelevant — the engine accumulates per device), rebuild each
// into their slot's per-profile scratch array and sample its window.
// Allocation is O(slots); the device loop reuses everything.
func (s *LazySimSource) Measure(ctx context.Context, month, size int, sink Sink) error {
	if len(s.visited) > 0 && month <= s.visited[len(s.visited)-1] {
		return fmt.Errorf("%w: month %d not after already-measured month %d (lazy sources replay history in ascending order)",
			ErrConfig, month, s.visited[len(s.visited)-1])
	}
	sink = s.envelope(month, s.indices, s.devices, sink)
	nslots := s.slotCount()
	if s.slots == nil || len(s.slots) < nslots {
		s.slots = make([]*lazySlot, nslots)
		for i := range s.slots {
			s.slots[i] = &lazySlot{arrays: make([]*sram.Array, len(s.conditioned))}
		}
	}
	var skip *rng.Jump
	if s.drawn > 0 {
		skip = rng.NewJump(s.drawn)
	}
	var next atomic.Int64
	jobs := make([]func(slot int) error, nslots)
	for i := range jobs {
		jobs[i] = func(slot int) error {
			sl := s.slots[slot]
			for {
				d := int(next.Add(1)) - 1
				if d >= len(s.indices) {
					return nil
				}
				if s.pruned[d] {
					continue
				}
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: device %d: %w", d, err)
				}
				if err := s.measureDevice(ctx, sl, skip, d, month, size, sink); err != nil {
					return err
				}
			}
		}
	}
	if err := s.pool.RunSlotted(nslots, jobs...); err != nil {
		return err
	}
	s.visited = append(s.visited, month)
	s.drawn += uint64(size) * uint64(s.bits)
	return nil
}

// measureDevice rebuilds local device d into the slot's scratch array
// for its profile and samples its window. The rebuild is the lazy
// construction contract: Reset to the device's seed stream, replay the
// exact aging trajectory of the already-measured months, jump the noise
// stream over their consumed draws (skip, nil before any), then sample
// this month normally.
func (s *LazySimSource) measureDevice(ctx context.Context, sl *lazySlot, skip *rng.Jump, d, month, size int, sink Sink) error {
	g := s.indices[d]
	pi := s.profIdx[d]
	prof := s.conditioned[pi]
	s.root.DeriveInto(uint64(g)+1, &sl.seed)
	a := sl.arrays[pi]
	if a == nil {
		var err error
		if a, err = sram.New(prof, &sl.seed); err != nil {
			return err
		}
		sl.arrays[pi] = a
	} else {
		a.Reset(&sl.seed)
	}
	if err := a.SetNoiseScale(prof.NoiseScale()); err != nil {
		return err
	}
	for _, vm := range s.visited {
		if err := a.AgeTo(float64(vm)); err != nil {
			return err
		}
	}
	if err := a.AgeTo(float64(month)); err != nil {
		return err
	}
	if skip != nil {
		a.JumpNoise(skip)
	}
	if sl.scratch == nil {
		sl.scratch = bitvec.New(s.bits)
	}
	for n := 0; n < size; n++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: device %d measurement %d: %w", d, n, err)
		}
		if err := a.PowerUpWindowInto(sl.scratch); err != nil {
			return err
		}
		if err := sink(d, sl.scratch); err != nil {
			return err
		}
	}
	return nil
}
