package sramaging

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/silicon"
)

// Re-exported device-model and fleet types. A Fleet maps every device
// index of a campaign onto one of a set of registered profiles,
// deterministically from the campaign seed, so one campaign can mix an
// embedded SRAM family with a cache-structured large-array one; results
// then carry a per-profile breakdown (MonthEval.ByProfile). See
// DESIGN.md ("Device models and fleets").
type (
	// Fleet is a validated heterogeneous profile mix with a
	// seed-deterministic per-device assignment.
	Fleet = core.Fleet
	// ProfileEval is one profile's aggregate of the per-device
	// reliability metrics within one evaluation month.
	ProfileEval = core.ProfileEval
	// ProfileOption configures NewDeviceProfile.
	ProfileOption = silicon.ProfileOption
	// CellModel is the pluggable per-cell behaviour behind a
	// DeviceProfile: skew sampling, aging response, noise scaling.
	CellModel = silicon.CellModel
)

// ErrUnknownProfile reports a profile name absent from the registry,
// matchable with errors.Is.
var ErrUnknownProfile = silicon.ErrUnknownProfile

// Profile construction options for NewDeviceProfile, re-exported from
// the silicon layer.
var (
	WithTechnology      = silicon.WithTechnology
	WithGeometry        = silicon.WithGeometry
	WithOperatingPoint  = silicon.WithOperatingPoint
	WithMismatch        = silicon.WithMismatch
	WithSpread          = silicon.WithSpread
	WithKinetics        = silicon.WithKinetics
	WithAgingDispersion = silicon.WithAgingDispersion
	WithCellModel       = silicon.WithCellModel
	WithLineStructure   = silicon.WithLineStructure
	WithNoiseRel        = silicon.WithNoiseRel
)

// Registered cell-model names for WithCellModel.
const (
	// ModelIID is the paper's calibrated independent-mismatch model
	// (the default for profiles that name no model).
	ModelIID = silicon.ModelIID
	// ModelCorrelated is the cache-line-structured large-array model:
	// block-correlated mismatch via a shared per-line component.
	ModelCorrelated = silicon.ModelCorrelated
)

// ProfileByName resolves a registered device profile by name
// (case-insensitive): the built-ins — "atmega32u4",
// "cmos65nm-accelerated", "cachearray-2mb", "cachearray-64kb" — plus
// anything added with RegisterProfile. Unknown names report
// ErrUnknownProfile listing every registered name.
func ProfileByName(name string) (DeviceProfile, error) { return silicon.Lookup(name) }

// RegisterProfile adds a profile constructor under name, making it
// resolvable by ProfileByName, the assessd service's Spec.Profile /
// Spec.Fleet fields, and the CLIs' -profile flag. It panics on an empty
// or duplicate name — registration is program-initialisation wiring.
func RegisterProfile(name string, build func() (DeviceProfile, error)) {
	silicon.Register(name, build)
}

// RegisteredProfiles returns every registered profile name, sorted.
func RegisteredProfiles() []string { return silicon.Names() }

// NewDeviceProfile builds a validated custom profile from functional
// options (silicon.With*), starting from the paper's calibrated nominal
// values — the supported construction path for custom device families;
// see DESIGN.md ("Device models and fleets") for the migration from
// direct struct construction.
func NewDeviceProfile(name string, opts ...ProfileOption) (DeviceProfile, error) {
	return silicon.NewProfile(name, opts...)
}

// NewFleet validates a profile mix into a Fleet: at least one profile,
// distinct names, equal read-window widths (the cross-device
// uniqueness metrics compare patterns across all devices). A
// single-profile fleet is bit-identical to the plain profile.
func NewFleet(profiles ...DeviceProfile) (*Fleet, error) { return core.NewFleet(profiles...) }

// WithFleet runs the assessment over a heterogeneous fleet instead of a
// single profile: every device's profile is assigned deterministically
// from the campaign seed, and each month's results carry the
// per-profile breakdown in MonthEval.ByProfile. Exclusive with
// WithProfile and WithHarness (the measurement rig is a single-profile
// instrument); composes with WithShards and the condition sweep.
func WithFleet(fleet *Fleet) Option {
	return func(a *Assessment) error {
		if fleet == nil {
			return fmt.Errorf("%w: nil fleet", ErrConfig)
		}
		a.spec.Sim.Fleet, a.simSet = fleet, true
		return nil
	}
}
