package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/sram"
	"repro/internal/stream"
)

// SimSource is the direct-sampling source: simulated SRAM arrays read
// without the measurement rig in between. It produces measurement streams
// bit-identical to RigSource on the same profile/devices/seed (the rig
// adds fidelity — power switch, boot, I2C — not different bits).
//
// Its chips are either resident or lazy, and that is the only place the
// two kinds differ. A resident source holds one persistent sram.Array
// per device, aged forward month by month. A lazy source (SimSpec.Lazy)
// is the fleet-scale form: no chip exists until a worker slot measures
// it. A slot holds one reusable Array per fleet profile; measuring a
// device Resets the slot's array of that device's profile to the
// device's seed, replays its aging trajectory, fast-forwards its noise
// stream past the windows earlier months consumed (one rng.Jump per
// Measure over every draw so far), and samples normally. An Array
// simulates only the read window, so lazy chip state is O(slots ×
// profiles × window), independent of the device count. A slot samples
// resident chips up to four at a time (sram.PowerUpWindows) and lazy
// chips one at a time; the lanes change no bit.
//
// The two kinds are bit-identical: chip derivation is label-based and
// order-independent (rng.Derive never advances the parent), the rebuild
// replays the exact AgeTo call sequence a resident chip performs, aging
// consumes no noise draws, and each Bernoulli power-up of n cells
// consumes exactly n uniform draws — so a jump of (windows so far × size
// × bits) lands the rebuilt chip's noise stream precisely where the
// resident chip's would be. The lazy trade: a campaign of M evaluated
// months costs O(M²) aging work per device instead of O(M), the right
// trade for huge populations over few months (screening), where memory,
// not aging arithmetic, is the binding constraint.
type SimSource struct {
	recordTap
	arrays      []*sram.Array // resident chips per local device; nil when lazy
	fleet       *Fleet        // the spec's fleet; nil for a plain profile
	conditioned []silicon.DeviceProfile
	profIdx     []uint8
	indices     []int // global device index per local device
	devices     int   // population the indices belong to
	bits        int
	root        *rng.Source
	pool        *stream.Pool
	workers     int

	visited []int  // months already measured, ascending
	drawn   uint64 // noise draws each device's earlier windows consumed

	slots  []*simSlot
	pruned []bool
	alive  int
}

// LazySimSource is SimSource, for callers that still spell its lazy
// mode by this name.
type LazySimSource = SimSource

// simSlot is one worker slot's scratch: the group of devices it
// measures at a time with their chips and measurement vectors and, for
// lazy chips, a reusable chip per fleet profile, rebuilt in place for
// every device the slot measures, plus the seed scratch of the rebuild.
type simSlot struct {
	devs    [rng.Lanes]int
	chips   [rng.Lanes]*sram.Array
	scratch [rng.Lanes]*bitvec.Vector
	arrays  []*sram.Array
	seed    rng.Source
}

// Devices returns the population size, pruned devices included — a
// pruned device keeps its index, it just stops being sampled.
func (s *SimSource) Devices() int { return len(s.indices) }

// Arrays exposes the resident chips (for extension experiments); a
// pruned device's entry is nil. Nil for a lazy source.
func (s *SimSource) Arrays() []*sram.Array { return s.arrays }

// SetWorkers bounds sampling parallelism AND the worker slot count (<= 0:
// one slot per logical CPU). An unchanged bound keeps the pool and the
// slots, so a caller that sets it every month reallocates nothing.
func (s *SimSource) SetWorkers(n int) {
	if n == s.workers && s.pool != nil {
		return
	}
	s.workers, s.pool, s.slots = n, stream.NewPool(n), nil
}

// SetPool replaces the source's job scheduler with a shared one — the
// sweep/service budget; the slot count follows the pool's worker bound.
func (s *SimSource) SetPool(p *stream.Pool) {
	if p != nil {
		s.pool, s.slots = p, nil
	}
}

// ProfileAssignment implements the compact ProfileAssigner contract:
// the fleet's profile names plus one byte per device. Only fleet specs
// list profiles: a plain profile's results carry no profile keys.
func (s *SimSource) ProfileAssignment() ([]string, []uint8) {
	if s.fleet == nil {
		return nil, nil
	}
	return s.fleet.ProfileNames(), append([]uint8(nil), s.profIdx...)
}

// DeviceProfileNames implements ProfileLister, the expanded per-device
// listing; nil for a plain profile.
func (s *SimSource) DeviceProfileNames() []string {
	if s.fleet == nil {
		return nil
	}
	return expandAssignment(s.fleet.ProfileNames(), s.profIdx)
}

// PruneDevices stops sampling the given (local) devices from the next
// Measure on — the source's side of the screening contract. A resident
// chip is released, so a screened campaign's resident set shrinks with
// its survivor count; a lazy one is simply never rebuilt again.
func (s *SimSource) PruneDevices(indices []int) error {
	for _, d := range indices {
		if d < 0 || d >= len(s.pruned) {
			return fmt.Errorf("%w: prune index %d of %d devices", ErrConfig, d, len(s.pruned))
		}
		if !s.pruned[d] {
			s.pruned[d] = true
			s.alive--
		}
		if s.arrays != nil {
			s.arrays[d] = nil
		}
	}
	return nil
}

// slotCount resolves how many worker slots Measure runs: the explicit
// worker bound, else the pool's, else one per logical CPU — never more
// than the devices still alive.
func (s *SimSource) slotCount() int {
	n := s.workers
	if n <= 0 {
		n = s.pool.Workers()
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return max(min(n, s.alive), 1)
}

// Measure streams one evaluation window: a fixed set of slot workers
// claim groups of alive devices off a shared counter (device order
// within the sink is irrelevant — the engine accumulates per device),
// bring each device's chip to the month and sample its windows into the
// slot's scratch vectors. A group is up to rng.Lanes resident chips,
// whose read-outs are sampled together (sram.PowerUpWindows), or one
// lazy chip, rebuilt in the slot's array of its profile (so lazy chip
// state stays O(slots × profiles)). Each read-out samples the group
// once, then hands every device's vector to the sink in group order, so
// each device's windows reach the sink in order from one goroutine.
// Allocation is O(slots); the device loop reuses everything. Months must ascend: chips age monotonically, and a lazy
// rebuild replays the months already measured.
func (s *SimSource) Measure(ctx context.Context, month, size int, sink Sink) error {
	if len(s.visited) > 0 && month <= s.visited[len(s.visited)-1] {
		return fmt.Errorf("%w: month %d not after already-measured month %d (simulated chips age in ascending order)",
			ErrConfig, month, s.visited[len(s.visited)-1])
	}
	sink = s.envelope(month, s.indices, s.devices, sink)
	nslots := s.slotCount()
	group := s.groupSize(nslots)
	for len(s.slots) < nslots {
		s.slots = append(s.slots, &simSlot{arrays: make([]*sram.Array, len(s.conditioned))})
	}
	for _, sl := range s.slots[:nslots] {
		for j := range group {
			if sl.scratch[j] == nil {
				sl.scratch[j] = bitvec.New(s.bits)
			}
		}
	}
	var skip *rng.Jump
	if s.arrays == nil && s.drawn > 0 {
		skip = rng.NewJump(s.drawn)
	}
	var next atomic.Int64
	jobs := make([]func(slot int) error, nslots)
	for i := range jobs {
		jobs[i] = func(slot int) error {
			sl := s.slots[slot]
			for {
				devs := s.claim(&next, sl.devs[:0], group)
				if len(devs) == 0 {
					return nil
				}
				chips, out := sl.chips[:len(devs)], sl.scratch[:len(devs)]
				for j, d := range devs {
					if err := ctx.Err(); err != nil {
						return fmt.Errorf("core: device %d: %w", d, err)
					}
					var err error
					if chips[j], err = s.chip(sl, skip, d, month); err != nil {
						return err
					}
				}
				for n := 0; n < size; n++ {
					if err := ctx.Err(); err != nil {
						return fmt.Errorf("core: device %d measurement %d: %w", devs[0], n, err)
					}
					if err := sram.PowerUpWindows(chips, out); err != nil {
						return err
					}
					for j, d := range devs {
						if err := sink(d, out[j]); err != nil {
							return err
						}
					}
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

// groupSize is how many devices a slot claims at a time: one lazy chip,
// or as many resident chips, up to rng.Lanes, as keep every slot busy
// (4 devices on 2 slots sample 2 and 2, not 4 and none).
func (s *SimSource) groupSize(nslots int) int {
	if s.arrays == nil {
		return 1
	}
	return min(rng.Lanes, (s.alive+nslots-1)/nslots)
}

// claim appends up to group alive devices, taken off the shared counter
// next, to devs; none are left when it returns devs empty.
func (s *SimSource) claim(next *atomic.Int64, devs []int, group int) []int {
	for len(devs) < group {
		d := int(next.Add(1)) - 1
		if d >= len(s.indices) {
			break
		}
		if !s.pruned[d] {
			devs = append(devs, d)
		}
	}
	return devs
}

// chip returns local device d's chip at the month. A resident chip is
// aged to it. A lazy chip is rebuilt into the slot's array for the
// device's profile — the lazy construction contract: derive it afresh,
// replay the exact aging trajectory of the already-measured months,
// then jump the noise stream over their consumed draws (skip, nil
// before any).
func (s *SimSource) chip(sl *simSlot, skip *rng.Jump, d, month int) (*sram.Array, error) {
	if s.arrays != nil {
		return s.arrays[d], s.arrays[d].AgeTo(float64(month))
	}
	pi := s.profIdx[d]
	a, err := s.derive(d, sl.arrays[pi], &sl.seed)
	if err != nil {
		return nil, err
	}
	sl.arrays[pi] = a
	for _, vm := range s.visited {
		if err := a.AgeTo(float64(vm)); err != nil {
			return nil, err
		}
	}
	if err := a.AgeTo(float64(month)); err != nil {
		return nil, err
	}
	if skip != nil {
		a.JumpNoise(skip)
	}
	return a, nil
}

// derive builds local device d's unaged chip from the profile the fleet
// assigns it and the device's seed stream (derived into seed): into a
// new array when a is nil, else by Resetting a, which must carry the
// same profile. Resident and lazy chips both derive through it.
func (s *SimSource) derive(d int, a *sram.Array, seed *rng.Source) (*sram.Array, error) {
	prof := s.conditioned[s.profIdx[d]]
	s.root.DeriveInto(uint64(s.indices[d])+1, seed)
	if a == nil {
		var err error
		if a, err = sram.New(prof, seed); err != nil {
			return nil, err
		}
	} else {
		a.Reset(seed)
	}
	return a, a.SetNoiseScale(prof.NoiseScale())
}
