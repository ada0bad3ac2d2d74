package main

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/sram"
)

// decomposition replays LazySimSource.measureDevice's public call order —
// rng.DeriveInto, Reset, SetNoiseScale, the AgeTo replay, JumpNoise,
// PowerUpWindowInto — on a seeded sample of a fleet's devices, timing each
// stage per device-month. Like the lazy source, it splits each month's
// devices over worker slots that run at once, so each stage runs at the
// per-thread speed the workload's sampling sees. Digests holds a hash of
// every sampled device's window, [month][sample], for the bit-exactness
// check against the lazy source itself; the stage times count only the
// device-months the workload measured.
type decomposition struct {
	stages  [][5]float64 // [month]{reset, noise scale, age replay, jump, power-up} ns, summed over the counted devices
	counted []int        // [month] devices the stage times cover
	digests [][]uint64
}

func newDecomposition(c decompConfig) *decomposition {
	d := &decomposition{
		stages:  make([][5]float64, len(c.months)),
		counted: make([]int, len(c.months)),
		digests: make([][]uint64, len(c.months)),
	}
	for mi := range d.digests {
		d.digests[mi] = make([]uint64, len(c.sample))
	}
	return d
}

const (
	stageReset = iota
	stageNoise
	stageAge
	stageJump
	stagePowerUp
)

type decompConfig struct {
	fleet   *core.Fleet
	seed    uint64
	window  int
	months  []int
	sample  []int // global device indices
	workers int   // slots running at once; 0 means 1
	// alive reports whether the workload measured sample[si] in month
	// months[mi]; nil means every device in every month (no screening).
	alive func(mi, si int) bool
}

// measured reports whether the decomposition replays sample[si] in month
// months[mi]: the device-months screening pruned are skipped, so the stage
// times cover the workload's own mix of devices.
func (c decompConfig) measured(mi, si int) bool { return c.alive == nil || c.alive(mi, si) }

func decompose(c decompConfig) (*decomposition, error) {
	slots := max(c.workers, 1)
	parts := make([]*decomposition, slots)
	errs := make([]error, slots)
	var wg sync.WaitGroup
	for s := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[s], errs[s] = decomposeSlot(c, s, slots)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	d := newDecomposition(c)
	for mi := range c.months {
		for _, p := range parts {
			for st := range d.stages[mi] {
				d.stages[mi][st] += p.stages[mi][st]
			}
			d.counted[mi] += p.counted[mi]
			for si, h := range p.digests[mi] {
				d.digests[mi][si] += h // each sampled device is one slot's
			}
		}
	}
	return d, nil
}

// decomposeSlot is slot s of slots: it measures sample entries s, s+slots,
// ... and leaves the others' digests 0.
func decomposeSlot(c decompConfig, s, slots int) (*decomposition, error) {
	profiles := c.fleet.Profiles()
	sc := profiles[0].NominalScenario()
	conditioned := make([]silicon.DeviceProfile, len(profiles))
	for i, p := range profiles {
		cp, err := p.At(sc)
		if err != nil {
			return nil, err
		}
		conditioned[i] = cp
	}
	assign := c.fleet.AssignmentIndices(c.seed, c.sample)
	bits := c.fleet.ReadWindowBits()
	// The noise jump each month starts from: one window's draws per month
	// already measured, composed as the lazy source composes them.
	step := rng.NewJump(uint64(c.window) * uint64(bits))
	cums := make([]*rng.Jump, len(c.months))
	for mi := 1; mi < len(c.months); mi++ {
		cums[mi] = step
		if mi > 1 {
			cums[mi] = cums[mi-1].Mul(step)
		}
	}
	// One reusable chip per profile, as a lazy worker slot holds: built
	// by the slot's first device of that profile, reset by every later one.
	arrays := make([]*sram.Array, len(conditioned))
	root := rng.New(c.seed)
	scratch := bitvec.New(bits)
	var seed rng.Source
	d := newDecomposition(c)
	for mi := range c.months {
		st := &d.stages[mi]
		for si := s; si < len(c.sample); si += slots {
			if !c.measured(mi, si) {
				continue
			}
			g := c.sample[si]
			prof := conditioned[assign[si]]
			t0 := time.Now()
			root.DeriveInto(uint64(g)+1, &seed)
			a := arrays[assign[si]]
			if a == nil {
				var err error
				if a, err = sram.New(prof, &seed); err != nil {
					return nil, err
				}
				arrays[assign[si]] = a
			} else {
				a.Reset(&seed)
			}
			t1 := time.Now()
			if err := a.SetNoiseScale(prof.NoiseScale()); err != nil {
				return nil, err
			}
			t2 := time.Now()
			for _, vm := range c.months[:mi+1] {
				if err := a.AgeTo(float64(vm)); err != nil {
					return nil, err
				}
			}
			t3 := time.Now()
			if cums[mi] != nil {
				a.JumpNoise(cums[mi])
			}
			t4 := time.Now()
			st[stageReset] += float64(t1.Sub(t0))
			st[stageNoise] += float64(t2.Sub(t1))
			st[stageAge] += float64(t3.Sub(t2))
			st[stageJump] += float64(t4.Sub(t3))
			h := fnv.New64a()
			for n := 0; n < c.window; n++ {
				t := time.Now()
				if err := a.PowerUpWindowInto(scratch); err != nil {
					return nil, err
				}
				st[stagePowerUp] += float64(time.Since(t))
				hashWords(h, scratch)
			}
			d.digests[mi][si] = h.Sum64()
			d.counted[mi]++
		}
	}
	return d, nil
}

func hashWords(h hash.Hash, v *bitvec.Vector) {
	var b [8]byte
	for _, w := range v.Words() {
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
}

// lazyDigests runs the lazy source itself over the same sample and months
// and hashes each device's windows like decompose does.
func lazyDigests(ctx context.Context, c decompConfig) ([][]uint64, error) {
	src, err := core.NewLazySimFleetSourceSubset(c.fleet, c.seed, c.fleet.Profiles()[0].NominalScenario(), c.sample)
	if err != nil {
		return nil, err
	}
	src.SetWorkers(max(c.workers, 1)) // each device's windows reach the sink in order
	out := make([][]uint64, len(c.months))
	for mi, month := range c.months {
		hs := make([]hash.Hash64, len(c.sample))
		for i := range hs {
			hs[i] = fnv.New64a()
		}
		err := src.Measure(ctx, month, c.window, func(d int, m *bitvec.Vector) error {
			hashWords(hs[d], m)
			return nil
		})
		if err != nil {
			return nil, err
		}
		out[mi] = make([]uint64, len(c.sample))
		for i, h := range hs {
			out[mi][i] = h.Sum64()
		}
	}
	return out, nil
}

// perDeviceMonth returns each stage's time and their sum, in ns per
// device-month replayed.
func (d *decomposition) perDeviceMonth() (per [5]float64, total float64) {
	var n int
	for mi, st := range d.stages {
		for s := range per {
			per[s] += st[s]
		}
		n += d.counted[mi]
	}
	for s := range per {
		per[s] = ratio(per[s], float64(n))
		total += per[s]
	}
	return per, total
}

// reportDecomposition runs the decomposition, checks its bits against the
// lazy source's, reports the stage times per device-month replayed, and
// notes their share of observedNs, the source time per device-month the
// workload's probes saw.
func reportDecomposition(ctx context.Context, r *outcome, c decompConfig, observedNs float64) error {
	d, err := decompose(c)
	if err != nil {
		return fmt.Errorf("sram decomposition: %w", err)
	}
	lazy, err := lazyDigests(ctx, c)
	if err != nil {
		return fmt.Errorf("sram decomposition: lazy source: %w", err)
	}
	for mi := range c.months {
		for si, g := range c.sample {
			if c.measured(mi, si) && d.digests[mi][si] != lazy[mi][si] {
				r.fail("sram decomposition: device %d month %d read-outs differ from the lazy source's", g, c.months[mi])
			}
		}
	}
	per, total := d.perDeviceMonth()
	r.set("sram.reset_us", per[stageReset]/1e3)
	r.set("sram.noise_scale_us", per[stageNoise]/1e3)
	r.set("sram.age_replay_us", per[stageAge]/1e3)
	r.set("sram.jump_us", per[stageJump]/1e3)
	r.set("sram.powerup_us", per[stagePowerUp]/1e3)
	r.set("sram.rebuild_share", ratio(total-per[stagePowerUp], total))
	r.note("sram decomposition: the stages sum to %.1f%% of the source time the workload's probes saw per device-month", 100*ratio(total, observedNs))
	return nil
}
