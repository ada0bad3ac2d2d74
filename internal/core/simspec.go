package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/aging"
	"repro/internal/harness"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/silicon"
	"repro/internal/sram"
	"repro/internal/stream"
)

// SimSpec describes one simulated measurement source: which silicon (a
// profile or a fleet), which devices, which seed and condition, and how
// the campaign executes — eager or lazy chips, direct sampling or the
// full rig, in process or sharded. OpenSim is its only opener: the one
// place that validates a spec and chooses between the layouts, all of
// which produce bit-identical measurement streams for the same silicon.
// Its JSON form is what a shard handshake carries; the execution fields
// (Indices, Shards, Transport) stay off the wire, so a worker never
// re-shards.
type SimSpec struct {
	// Profile is the device family of a single-profile campaign; it runs
	// as a one-profile fleet. Exclusive with Fleet.
	Profile silicon.DeviceProfile `json:"profile,omitzero"`
	// Fleet is a heterogeneous profile mix, assigned per device from the
	// seed. Exclusive with Profile.
	Fleet *Fleet `json:"fleet,omitempty"`
	// Devices is the population size (global device indices
	// 0..Devices-1). With Indices it is the total population the slice
	// belongs to.
	Devices int `json:"devices"`
	// Indices, when non-nil, builds only these GLOBAL device indices —
	// a shard worker's slice; local device d is Indices[d]. Exclusive
	// with Shards and Rig.
	Indices []int `json:"-"`
	// Seed is the campaign seed every per-device stream derives from.
	Seed uint64 `json:"seed"`
	// Scenario is the environmental condition the chips operate at; the
	// zero value is the first profile's nominal condition.
	Scenario aging.Scenario `json:"scenario,omitzero"`
	// Lazy derives every chip on demand inside the worker slot that
	// measures it instead of materialising the population (SimSource's
	// lazy chips). Exclusive with Rig.
	Lazy bool `json:"lazy,omitempty"`
	// Rig routes every window through the full measurement-rig
	// simulation: one profile, an even device count (two layers).
	Rig bool `json:"rig,omitempty"`
	// I2CErrorRate is the rig's byte-corruption rate in [0, 1] (Rig
	// only).
	I2CErrorRate float64 `json:"i2c_error_rate,omitempty"`
	// Shards fans the population across that many workers
	// (ShardedSource); 0 measures in process.
	Shards int `json:"-"`
	// Transport reaches the shard workers (nil: in-process goroutines).
	Transport shard.Transport `json:"-"`
}

// resolvedSim is a validated SimSpec with its defaults resolved: mix is
// the spec's Fleet, or its plain Profile wrapped as a one-profile fleet,
// and conditioned holds mix's profiles at the resolved Scenario.
type resolvedSim struct {
	SimSpec
	mix         *Fleet
	conditioned []silicon.DeviceProfile
}

// resolve validates the spec and resolves its defaults.
func (s SimSpec) resolve() (resolvedSim, error) {
	r := resolvedSim{SimSpec: s, mix: s.Fleet}
	switch {
	case s.Profile != (silicon.DeviceProfile{}) && s.Fleet != nil:
		return resolvedSim{}, fmt.Errorf("%w: sim spec sets both a profile and a fleet", ErrConfig)
	case s.Fleet == nil:
		var err error
		if r.mix, err = NewFleet(s.Profile); err != nil {
			return resolvedSim{}, err
		}
	}
	switch {
	case s.Indices == nil && s.Devices < 1:
		return resolvedSim{}, fmt.Errorf("%w: need >= 1 device, got %d", ErrConfig, s.Devices)
	case s.Indices != nil && len(s.Indices) == 0:
		return resolvedSim{}, fmt.Errorf("%w: need >= 1 device index", ErrConfig)
	case s.Indices != nil && (s.Shards != 0 || s.Rig):
		return resolvedSim{}, fmt.Errorf("%w: a device-index slice is one shard's population; it is neither sharded again nor a rig", ErrConfig)
	case s.Shards < 0:
		return resolvedSim{}, fmt.Errorf("%w: need >= 1 shard, got %d", ErrConfig, s.Shards)
	case s.Shards > s.Devices:
		return resolvedSim{}, fmt.Errorf("%w: more shards (%d) than devices (%d) — an empty shard serves nothing", ErrConfig, s.Shards, s.Devices)
	case s.Rig && s.Fleet != nil:
		return resolvedSim{}, fmt.Errorf("%w: the measurement rig is a single-profile instrument; it takes a profile, not a fleet", ErrConfig)
	case s.Rig && s.Lazy:
		return resolvedSim{}, fmt.Errorf("%w: lazy chips cannot run on the rig (the rig is a persistent coupled instrument)", ErrConfig)
	case s.Rig && (s.Devices < 2 || s.Devices%2 != 0):
		return resolvedSim{}, fmt.Errorf("%w: rig needs an even device count >= 2 (two layers), got %d", ErrConfig, s.Devices)
	case !(s.I2CErrorRate >= 0 && s.I2CErrorRate <= 1):
		return resolvedSim{}, fmt.Errorf("%w: I2C error rate %v outside [0, 1]", ErrConfig, s.I2CErrorRate)
	}
	for _, g := range s.Indices {
		if g < 0 {
			return resolvedSim{}, fmt.Errorf("%w: negative device index %d", ErrConfig, g)
		}
	}
	if r.Scenario == (aging.Scenario{}) {
		r.Scenario = r.mix.profiles[0].NominalScenario()
	}
	r.conditioned = make([]silicon.DeviceProfile, r.mix.Size())
	for i, p := range r.mix.profiles {
		cp, err := conditionedProfile(p, r.Scenario)
		if err != nil {
			return resolvedSim{}, err
		}
		r.conditioned[i] = cp
	}
	return r, nil
}

// Validate reports whether OpenSim would accept the spec, without
// building anything.
func (s SimSpec) Validate() error {
	_, err := s.resolve()
	return err
}

// conditionedProfile applies a scenario to a device profile, mapping
// scenario validation failures to the assessment's typed configuration
// error (conditions are external input on the sweep surface).
func conditionedProfile(profile silicon.DeviceProfile, sc aging.Scenario) (silicon.DeviceProfile, error) {
	if err := sc.Validate(); err != nil {
		return silicon.DeviceProfile{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return profile.At(sc)
}

// globalIndices returns a fresh list of the global device indices to
// build: the spec's slice, or the whole population.
func (r *resolvedSim) globalIndices() []int {
	if r.Indices != nil {
		return append([]int(nil), r.Indices...)
	}
	all := make([]int, r.Devices)
	for d := range all {
		all[d] = d
	}
	return all
}

// OpenSim validates the spec and builds its source: a ShardedSource
// when Shards > 0 (the caller must Close it), else a RigSource or a
// SimSource with resident or lazy chips. Every invalid spec fails with
// ErrConfig before any chip is built or any shard worker started.
func OpenSim(s SimSpec) (Source, error) {
	r, err := s.resolve()
	if err != nil {
		return nil, err
	}
	switch {
	case r.Shards > 0:
		sim, err := json.Marshal(r.SimSpec)
		if err != nil {
			return nil, fmt.Errorf("%w: encoding the sim spec: %v", ErrConfig, err)
		}
		src, err := newShardedSource(shard.Spec{Sim: sim}, r.Shards, r.Transport)
		if err != nil {
			return nil, err
		}
		// The assignment is a pure function of (seed, global index), so
		// this process derives it as every worker does for its slice.
		if r.Fleet != nil {
			src.profNames, src.profIdx = r.Fleet.ProfileNames(), r.Fleet.AssignmentIndices(r.Seed, r.globalIndices())
		}
		return src, nil
	case r.Rig:
		return r.openRig()
	default:
		return r.openSim()
	}
}

// openSim builds the direct-sampling source: an eager spec derives every
// device's chip up front, a lazy one leaves them to the worker slots
// that measure them.
func (r *resolvedSim) openSim() (*SimSource, error) {
	indices := r.globalIndices()
	s := &SimSource{
		fleet:       r.Fleet,
		conditioned: r.conditioned,
		profIdx:     r.mix.AssignmentIndices(r.Seed, indices),
		indices:     indices,
		devices:     r.Devices,
		bits:        r.conditioned[0].ReadWindowBits(),
		root:        rng.New(r.Seed),
		pool:        stream.NewPool(0),
		pruned:      make([]bool, len(indices)),
		alive:       len(indices),
	}
	if r.Lazy {
		return s, nil
	}
	s.arrays = make([]*sram.Array, len(indices))
	var seed rng.Source
	for d := range s.arrays {
		var err error
		if s.arrays[d], err = s.derive(d, nil, &seed); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// openRig builds the two-layer rig with every board's silicon operating
// at the spec's scenario — the oven the whole rig sits in.
func (r *resolvedSim) openRig() (*RigSource, error) {
	profile := r.conditioned[0]
	hcfg := harness.DefaultConfig(profile, r.Seed)
	hcfg.SlavesPerLayer = r.Devices / 2
	hcfg.I2CErrorRate = r.I2CErrorRate
	rig, err := harness.New(hcfg)
	if err != nil {
		return nil, err
	}
	for _, a := range rig.Arrays() {
		if err := a.SetNoiseScale(profile.NoiseScale()); err != nil {
			return nil, err
		}
	}
	return &RigSource{rig: rig}, nil
}

// openAs is OpenSim for callers that need the concrete source type they
// expect the spec to select; a spec selecting another layout (say, zero
// shards for a sharded constructor) is a configuration error.
func openAs[T Source](s SimSpec) (T, error) {
	var zero T
	src, err := OpenSim(s)
	if err != nil {
		return zero, err
	}
	t, ok := src.(T)
	if !ok {
		return zero, fmt.Errorf("%w: spec opens a %T, not a %T (shards %d)", ErrConfig, src, zero, s.Shards)
	}
	return t, nil
}

// The constructors below are fixed-signature spellings of common specs.

// NewSimSource builds devices eager chips of the profile at its nominal
// condition.
func NewSimSource(profile silicon.DeviceProfile, devices int, seed uint64) (*SimSource, error) {
	return openAs[*SimSource](SimSpec{Profile: profile, Devices: devices, Seed: seed})
}

// NewSimFleetSourceSubset builds eager fleet chips for the given GLOBAL
// device indices at the scenario.
func NewSimFleetSourceSubset(fleet *Fleet, seed uint64, sc aging.Scenario, indices []int) (*SimSource, error) {
	return openAs[*SimSource](SimSpec{Fleet: fleet, Seed: seed, Scenario: sc, Indices: indices})
}

// NewLazySimFleetSource builds a lazy fleet source over the full
// population at the first profile's nominal condition.
func NewLazySimFleetSource(fleet *Fleet, devices int, seed uint64) (*SimSource, error) {
	return openAs[*SimSource](SimSpec{Fleet: fleet, Devices: devices, Seed: seed, Lazy: true})
}

// NewLazySimFleetSourceSubset builds a lazy fleet source for the given
// GLOBAL device indices at the scenario.
func NewLazySimFleetSourceSubset(fleet *Fleet, seed uint64, sc aging.Scenario, indices []int) (*SimSource, error) {
	return openAs[*SimSource](SimSpec{Fleet: fleet, Seed: seed, Scenario: sc, Indices: indices, Lazy: true})
}

// NewRigSource builds the two-layer rig with devices boards at the
// profile's nominal condition.
func NewRigSource(profile silicon.DeviceProfile, devices int, seed uint64, i2cErrorRate float64) (*RigSource, error) {
	return openAs[*RigSource](SimSpec{Profile: profile, Devices: devices, Seed: seed, Rig: true, I2CErrorRate: i2cErrorRate})
}

// NewShardedLazySimFleetSource shards a lazy fleet campaign across
// shards workers (nil transport: in process).
func NewShardedLazySimFleetSource(fleet *Fleet, devices int, seed uint64, shards int, transport shard.Transport) (*ShardedSource, error) {
	return openAs[*ShardedSource](SimSpec{Fleet: fleet, Devices: devices, Seed: seed, Lazy: true, Shards: shards, Transport: transport})
}

// NewShardedRigSource shards a full-rig campaign across shards workers.
func NewShardedRigSource(profile silicon.DeviceProfile, devices int, seed uint64, i2cErrorRate float64, shards int, transport shard.Transport) (*ShardedSource, error) {
	return openAs[*ShardedSource](SimSpec{Profile: profile, Devices: devices, Seed: seed, Rig: true, I2CErrorRate: i2cErrorRate, Shards: shards, Transport: transport})
}
