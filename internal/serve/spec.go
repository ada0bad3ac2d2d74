// Package serve is the long-lived assessment service behind cmd/assessd:
// campaign specs arrive over HTTP as JSON, run concurrently under ONE
// global sampling budget, stream their per-month results as NDJSON, and
// checkpoint every measurement record to a binary archive so a killed
// service resumes interrupted campaigns bit-identically on restart.
//
// The package splits along the service's seams: Spec (this file) is the
// validated admission contract, Manager (manager.go) owns campaign
// lifecycle + checkpoint/resume, the HTTP surface lives in http.go, and
// Client (client.go) is the typed consumer the CLI uses.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"

	"repro/internal/aging"
	"repro/internal/core"
	"repro/internal/silicon"
)

// Condition is a campaign's environmental operating point — the oven the
// simulated rig sits in (nominal room temperature when absent).
type Condition struct {
	TempC float64 `json:"temp_c"`
	Volts float64 `json:"volts"`
}

// Spec is the admission contract of the assessment service: everything a
// campaign needs, as the JSON body of POST /v1/campaigns. Zero fields
// take the service defaults (the quick-demonstration campaign of
// cmd/agingtest, not the paper's 16x24x1000 — a service client asks for
// scale explicitly).
//
// A single-profile campaign runs through the measurement-rig simulation
// (the only source that models i2c_error); the rig's two-layer topology
// is why its Devices must be even. A fleet campaign samples its chips
// directly. Either way the source's record tap feeds the checkpoint
// archive, and every layout is bit-identical by construction.
type Spec struct {
	// Name is a human label echoed in listings; it does not key anything.
	Name string `json:"name,omitempty"`
	// Profile selects the simulated device family by registry name
	// (silicon.Names lists them; "atmega32u4", the paper's chip, is the
	// default). Exclusive with Fleet.
	Profile string `json:"profile,omitempty"`
	// Fleet runs a heterogeneous campaign over a mix of registered
	// profiles: every device is assigned one of the named profiles
	// deterministically from the seed, and results carry a per-profile
	// breakdown. Fleet campaigns sample the sim source directly, sharded
	// only when Shards asks for it (the rig harness is a single-profile
	// instrument), so Devices need not be even. Exclusive with Profile
	// and KeyLife.
	Fleet []string `json:"fleet,omitempty"`
	// Devices is the number of boards under test (>= 2, even on the rig;
	// default 4).
	Devices int `json:"devices,omitempty"`
	// Seed is the campaign seed (default 20170208, the paper's).
	Seed uint64 `json:"seed,omitempty"`
	// I2CError is the rig's I2C byte-corruption rate in [0, 1].
	I2CError float64 `json:"i2c_error,omitempty"`
	// Window is the measurements per monthly evaluation window (>= 2;
	// default 200).
	Window int `json:"window,omitempty"`
	// Months is the campaign length: evaluations at months 0..Months
	// inclusive (default 6). Exclusive with MonthList.
	Months int `json:"months,omitempty"`
	// MonthList is an explicit ascending evaluation schedule for sparse
	// campaigns. Exclusive with Months.
	MonthList []int `json:"month_list,omitempty"`
	// Workers is a sharded campaign's requested sampling parallelism; the
	// manager clamps it to the campaign's share of the global budget.
	// Unsharded campaigns (rig and fleet) share the global pool instead.
	Workers int `json:"workers,omitempty"`
	// Shards fans the campaign's device population across N in-process
	// shard workers (0: unsharded).
	Shards int `json:"shards,omitempty"`
	// Condition is the environmental operating point (default: the
	// profile's nominal scenario).
	Condition *Condition `json:"condition,omitempty"`
	// KeyLife enables the key-lifecycle workload: burn-in screening,
	// debiasing and fuzzy-extractor enrollment at the first evaluated
	// month, then streamed reconstruction success / bit-error / margin /
	// failure-probability series every later month. Deterministic in
	// (profile, devices, seed), so a resumed campaign re-derives the
	// identical enrollment from its checkpoint replay.
	KeyLife bool `json:"keylife,omitempty"`
	// ScreenFloor enables corner-screening: after every evaluated month,
	// devices whose stable-cell ratio fell below the floor are pruned and
	// stop being sampled. In [0, 1); 0 (with no ScreenProfiles) is off.
	// The prune decision is a pure function of the month's metrics, so a
	// resumed screened campaign re-prunes identically during replay.
	// Exclusive with KeyLife (which runs its own burn-in screening).
	ScreenFloor float64 `json:"screen_floor,omitempty"`
	// ScreenProfiles overrides ScreenFloor per fleet profile name —
	// family-specific stability limits for a heterogeneous fleet. Keys
	// are profile names matched case-insensitively, so a Fleet registry
	// name ("fleetnode-1kb") and the profile's display name
	// ("FleetNode-1KB") both work; a key that names no fleet profile is
	// refused at admission. Fleet-only.
	ScreenProfiles map[string]float64 `json:"screen_profiles,omitempty"`
	// Lazy runs a fleet campaign on lazily-constructed silicon: chips are
	// derived on demand inside each worker slot instead of materialised
	// up front, holding O(workers) arrays however large the fleet. Bits
	// are identical to the eager source; the trade is re-aging each chip
	// through its visited months on every measure. Fleet-only (the rig is
	// a persistent coupled instrument).
	Lazy bool `json:"lazy,omitempty"`
}

// Service defaults: the quick-demonstration campaign of cmd/agingtest.
const (
	defaultDevices = 4
	defaultWindow  = 200
	defaultMonths  = 6
	defaultSeed    = 20170208
)

// Admission bounds. Specs are external input to a long-lived service: a
// single absurd field must not allocate unbounded memory (a month range
// is materialised as a slice, a worker budget as a semaphore). The caps
// are far above any physical campaign; a month index stops at
// core.MaxArchiveMonths (50 years), where the archive listers stop
// walking.
const (
	maxDevices = 1 << 10 // 64x the paper's fleet
	maxWindow  = 1 << 20 // 1000x the paper's window
	maxWorkers = 1 << 12
)

// profileByName resolves a Spec.Profile string through the silicon
// profile registry (case-insensitive). Empty means the paper's
// ATmega32u4. Unknown names keep the service's typed admission error,
// and the message lists the registered names dynamically — a profile
// registered by an embedding program is admissible with no service
// change.
func profileByName(name string) (silicon.DeviceProfile, error) {
	if name == "" {
		return silicon.ATmega32u4()
	}
	p, err := silicon.Lookup(name)
	if err != nil {
		return silicon.DeviceProfile{}, fmt.Errorf("%w: %v", core.ErrConfig, err)
	}
	return p, nil
}

// fleetByNames resolves a Spec.Fleet name list into a validated
// core.Fleet.
func fleetByNames(names []string) (*core.Fleet, error) {
	profiles := make([]silicon.DeviceProfile, len(names))
	for i, name := range names {
		p, err := profileByName(name)
		if err != nil {
			return nil, err
		}
		profiles[i] = p
	}
	return core.NewFleet(profiles...)
}

// DecodeSpec parses a campaign spec strictly: unknown fields, trailing
// garbage and type mismatches are admission errors (ErrConfig), never
// silently dropped — a typo'd field name must not silently run a default
// campaign. The returned spec is already normalised and validated.
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", core.ErrConfig, err)
	}
	// A second value (or any non-space trailing bytes) is a malformed
	// submission, not a spec.
	if dec.More() {
		return Spec{}, fmt.Errorf("%w: trailing data after spec", core.ErrConfig)
	}
	s.normalize()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// normalize fills defaulted fields in place so persisted state and
// re-encoded specs are canonical (encode(decode(x)) is a fixed point).
func (s *Spec) normalize() {
	if s.Devices == 0 {
		s.Devices = defaultDevices
	}
	if s.Window == 0 {
		s.Window = defaultWindow
	}
	if s.Months == 0 && len(s.MonthList) == 0 {
		s.Months = defaultMonths
	}
	if s.Seed == 0 {
		s.Seed = defaultSeed
	}
	// An empty list or map encodes like an absent one (omitempty), so it
	// decodes to nil.
	if len(s.MonthList) == 0 {
		s.MonthList = nil
	}
	if len(s.Fleet) == 0 {
		s.Fleet = nil
	}
	if len(s.ScreenProfiles) == 0 {
		s.ScreenProfiles = nil
	}
}

// Validate checks the normalised spec; every failure wraps ErrConfig so
// the HTTP layer maps it to 400 before a campaign is admitted. The rules
// of the wire format are checked here: the service's bounds, the
// registry names, profile vs fleet, months vs month_list. The campaign
// rules (window, screening, key-life, the source) are the
// core.CampaignSpec's; whether the key scheme fits the profile is
// keylife's.
func (s Spec) Validate() error {
	switch {
	case len(s.Fleet) > 0 && s.Profile != "":
		return fmt.Errorf("%w: profile and fleet are exclusive", core.ErrConfig)
	case s.Devices > maxDevices:
		return fmt.Errorf("%w: %d devices exceeds the service bound %d", core.ErrConfig, s.Devices, maxDevices)
	case s.Window > maxWindow:
		return fmt.Errorf("%w: window %d exceeds the service bound %d", core.ErrConfig, s.Window, maxWindow)
	case s.Months < 0:
		return fmt.Errorf("%w: negative campaign length %d", core.ErrConfig, s.Months)
	case s.Months > core.MaxArchiveMonths:
		return fmt.Errorf("%w: campaign length %d exceeds the service bound %d months", core.ErrConfig, s.Months, core.MaxArchiveMonths)
	case s.Months > 0 && len(s.MonthList) > 0:
		return fmt.Errorf("%w: months and month_list are exclusive", core.ErrConfig)
	case s.Months == 0 && len(s.MonthList) == 0:
		return fmt.Errorf("%w: no evaluation months", core.ErrConfig)
	case s.Workers < 0:
		return fmt.Errorf("%w: negative worker count %d", core.ErrConfig, s.Workers)
	case s.Workers > maxWorkers:
		return fmt.Errorf("%w: worker count %d exceeds the service bound %d", core.ErrConfig, s.Workers, maxWorkers)
	}
	for _, m := range s.MonthList {
		if m > core.MaxArchiveMonths {
			return fmt.Errorf("%w: month_list index %d exceeds the service bound %d months", core.ErrConfig, m, core.MaxArchiveMonths)
		}
	}
	cs, err := s.campaign()
	if err != nil {
		return err
	}
	if err := cs.Validate(); err != nil {
		return err
	}
	if cs.KeyLife {
		return keylifeConfig(cs).Validate()
	}
	return nil
}

// EvalMonths returns the campaign's ascending evaluation schedule.
func (s Spec) EvalMonths() []int {
	if len(s.MonthList) > 0 {
		return append([]int(nil), s.MonthList...)
	}
	return core.MonthRange(s.Months)
}

// campaign resolves the spec's names into the campaign it describes. A
// single-profile campaign runs on the rig, sharded or not: the service
// accepts i2c_error, and only the rig models it. A fleet opens the sim
// source as submitted — eager or lazy, in process or across Shards
// workers — and every layout taps the same record envelopes into the
// checkpoint. Screening is on when a floor is set.
func (s Spec) campaign() (core.CampaignSpec, error) {
	sim := &core.SimSpec{Devices: s.Devices, Seed: s.Seed, Lazy: s.Lazy, Shards: s.Shards}
	var err error
	if len(s.Fleet) > 0 {
		sim.Fleet, err = fleetByNames(s.Fleet)
	} else {
		sim.Profile, err = profileByName(s.Profile)
		sim.Rig, sim.I2CErrorRate = true, s.I2CError
	}
	if s.Condition != nil {
		// Absent, the scenario resolves to the first profile's nominal one.
		sim.Scenario = aging.Condition(s.Condition.TempC, s.Condition.Volts)
	}
	cs := core.CampaignSpec{Sim: sim, Window: s.Window, Months: s.EvalMonths(), KeyLife: s.KeyLife}
	if s.ScreenFloor != 0 || len(s.ScreenProfiles) > 0 {
		cs.Screening = &core.ScreeningConfig{Floor: s.ScreenFloor, PerProfile: maps.Clone(s.ScreenProfiles)}
	}
	return cs, err
}
