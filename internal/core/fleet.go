package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/rng"
	"repro/internal/silicon"
)

// fleetAssignLabel derives the fleet's profile-assignment stream from
// the campaign seed. Device streams derive with labels 1..devices, so a
// label far outside any realistic population keeps the assignment draws
// independent of every chip's own randomness (rng.Derive is label-based
// and non-advancing).
const fleetAssignLabel = 0xF1EE7A5516000000

// Fleet maps every device index of a campaign onto one of a set of
// device profiles, deterministically from the campaign seed — the same
// (seed, device) pair resolves to the same profile in a direct source,
// in every shard layout, and in the service, which is what keeps
// heterogeneous campaigns replayable. All profiles of one fleet must
// share a read-window width: the cross-device uniqueness metrics (BCHD,
// PUF min-entropy) compare window-first patterns across ALL devices,
// which is only meaningful over equal widths.
type Fleet struct {
	profiles []silicon.DeviceProfile
}

// NewFleet validates a profile mix into a Fleet: at least one valid
// profile, distinct names (the name keys the per-profile result
// breakdown), equal read windows.
func NewFleet(profiles ...silicon.DeviceProfile) (*Fleet, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("%w: fleet needs >= 1 profile", ErrConfig)
	}
	if len(profiles) > 256 {
		// The compact assignment contract (ProfileAssigner) indexes
		// profiles with one byte per device.
		return nil, fmt.Errorf("%w: fleet holds %d profiles, max 256", ErrConfig, len(profiles))
	}
	seen := make(map[string]bool, len(profiles))
	for i, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("%w: fleet profile %d: %v", ErrConfig, i, err)
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("%w: fleet profile name %q appears twice (names key the per-profile breakdown)", ErrConfig, p.Name)
		}
		seen[p.Name] = true
		if p.ReadWindowBits() != profiles[0].ReadWindowBits() {
			return nil, fmt.Errorf("%w: fleet profile %q reads %d bits, %q reads %d — cross-device uniqueness metrics need one window width",
				ErrConfig, p.Name, p.ReadWindowBits(), profiles[0].Name, profiles[0].ReadWindowBits())
		}
	}
	return &Fleet{profiles: append([]silicon.DeviceProfile(nil), profiles...)}, nil
}

// MarshalJSON encodes the fleet as its profile list.
func (f *Fleet) MarshalJSON() ([]byte, error) { return json.Marshal(f.profiles) }

// UnmarshalJSON decodes a profile list through NewFleet's checks.
func (f *Fleet) UnmarshalJSON(data []byte) error {
	var profiles []silicon.DeviceProfile
	if err := json.Unmarshal(data, &profiles); err != nil {
		return err
	}
	g, err := NewFleet(profiles...)
	if err != nil {
		return err
	}
	*f = *g
	return nil
}

// Profiles returns the fleet's profile mix (copy).
func (f *Fleet) Profiles() []silicon.DeviceProfile {
	return append([]silicon.DeviceProfile(nil), f.profiles...)
}

// Size returns the number of distinct profiles in the mix.
func (f *Fleet) Size() int { return len(f.profiles) }

// ReadWindowBits returns the fleet's common read-window width.
func (f *Fleet) ReadWindowBits() int { return f.profiles[0].ReadWindowBits() }

// ProfileNames returns the fleet's distinct profile names in profile
// order — the names side of the compact ProfileAssigner contract.
func (f *Fleet) ProfileNames() []string {
	names := make([]string, len(f.profiles))
	for i, p := range f.profiles {
		names[i] = p.Name
	}
	return names
}

// AssignmentIndices returns the profile index of every device in indices
// (GLOBAL device indices) under the campaign seed, one byte per device —
// the idx side of the compact ProfileAssigner contract. A sharded
// source derives the whole population's at open, as each worker does
// for its slice; 10⁶ devices cost about 11 ms.
// The assignment stream is hoisted out of the device loop and each
// device's substream derived into a reused scratch, so assigning a
// million-device fleet allocates one Source, not three per device.
func (f *Fleet) AssignmentIndices(seed uint64, indices []int) []uint8 {
	idx := make([]uint8, len(indices))
	if len(f.profiles) == 1 {
		return idx
	}
	assign := rng.New(seed).Derive(fleetAssignLabel)
	var dev rng.Source
	for d, g := range indices {
		assign.DeriveInto(uint64(g)+1, &dev)
		idx[d] = uint8(dev.Intn(len(f.profiles)))
	}
	return idx
}

// ProfileLister is implemented by sources that know which device
// profile each of their devices carries (fleet-aware sources). The
// engine uses it to break the per-device reliability series down by
// profile; a homogeneous listing (or no listing at all) produces no
// breakdown, so single-profile results are unchanged.
type ProfileLister interface {
	// DeviceProfileNames returns one profile name per device index, or
	// nil when the source has no per-device profile knowledge. Like
	// ProfileAssignment, it is known before the first Measure.
	DeviceProfileNames() []string
}

// ProfileAssigner is the compact, fleet-scale form of ProfileLister:
// the distinct profile names once, plus one byte per device indexing
// into them — 1 B/device instead of a string header per device. The
// engine prefers this contract when a source offers both. A fleet holds
// at most 256 profiles (NewFleet enforces it), so uint8 cannot overflow.
type ProfileAssigner interface {
	// ProfileAssignment returns (names, idx) with len(idx) == Devices()
	// and every idx value < len(names), or (nil, nil) when the source
	// lists no profiles. It is known before the first Measure: the
	// engine reads it once, in NewAssessment.
	ProfileAssignment() ([]string, []uint8)
}

// expandAssignment returns one profile name per device of a compact
// (names, idx) assignment.
func expandAssignment(names []string, idx []uint8) []string {
	out := make([]string, len(idx))
	for d, i := range idx {
		out[d] = names[i]
	}
	return out
}

// ProfileEval aggregates the per-device reliability metrics of the
// devices carrying one fleet profile within one evaluation month.
type ProfileEval struct {
	// Devices is how many of the campaign's devices carry this profile.
	Devices int
	// WCHD / FHW / NoiseHmin / StableRatio are the profile's device
	// averages of the corresponding DeviceMonth metrics.
	WCHD        float64
	FHW         float64
	NoiseHmin   float64
	StableRatio float64
	// WCHDWorst is the profile's worst (highest) within-class Hamming
	// distance — the reliability headline per family.
	WCHDWorst float64
}

// profileBreakdown folds the per-device month metrics into per-profile
// aggregates. It returns nil unless the listing names MORE than one
// distinct profile — homogeneous campaigns keep their exact historical
// results (including serialized forms; ByProfile is omitempty).
func profileBreakdown(names []string, devices []DeviceMonth) map[string]ProfileEval {
	if len(names) != len(devices) {
		return nil
	}
	distinct := make(map[string]bool, 2)
	for _, n := range names {
		distinct[n] = true
	}
	if len(distinct) < 2 {
		return nil
	}
	by := make(map[string]ProfileEval, len(distinct))
	for d, n := range names {
		pe := by[n]
		m := devices[d]
		pe.Devices++
		pe.WCHD += m.WCHD
		pe.FHW += m.FHW
		pe.NoiseHmin += m.NoiseHmin
		pe.StableRatio += m.StableRatio
		if m.WCHD > pe.WCHDWorst {
			pe.WCHDWorst = m.WCHD
		}
		by[n] = pe
	}
	for n, pe := range by {
		c := float64(pe.Devices)
		pe.WCHD /= c
		pe.FHW /= c
		pe.NoiseHmin /= c
		pe.StableRatio /= c
		by[n] = pe
	}
	return by
}
