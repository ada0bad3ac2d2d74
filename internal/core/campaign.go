package core

import "fmt"

// CampaignSpec describes one assessment campaign: the simulated source,
// the evaluation schedule, corner-screening and the key-lifecycle
// workload. Its Validate is the one copy of the campaign rules: the
// facade's options, the service's admission spec, the condition sweep
// and the CLIs fill a CampaignSpec and validate it, and keep only the
// rules of their own surface (option exclusions, wire bounds, flag
// parsing).
//
// KeyLife is a flag, not a wired workload: the workload lives in
// internal/keylife, which imports core, so core cannot build it. A
// caller that sets KeyLife builds it with keylife.New from Sim's
// profile, device count and seed.
type CampaignSpec struct {
	// Sim is the simulated source the campaign measures. Nil means the
	// caller opens the source itself (archive replay, an external
	// Source); the rules that need the silicon are then skipped.
	Sim *SimSpec
	// Window is the number of measurements per evaluation window.
	Window int
	// Months lists the evaluated months, ascending and non-negative. Nil
	// means the source lists its own (MonthLister).
	Months []int
	// Screening enables corner-screening (nil: off).
	Screening *ScreeningConfig
	// KeyLife runs the key-lifecycle workload: single-profile and
	// unscreened, because the workload screens its own fixed population.
	KeyLife bool
}

// Validate reports the first campaign rule the spec breaks, as an
// ErrConfig: the SimSpec rules, at least two devices and a window of at
// least two measurements, an ascending non-negative month list, floors
// in [0, 1), per-profile floors naming profiles of a fleet, and a
// key-lifecycle campaign that is single-profile and unscreened.
func (c CampaignSpec) Validate() error {
	if c.Window < 2 {
		return fmt.Errorf("%w: need >= 2 measurements per window, got %d", ErrConfig, c.Window)
	}
	for i, m := range c.Months {
		if m < 0 || (i > 0 && m <= c.Months[i-1]) {
			return fmt.Errorf("%w: months must be ascending and non-negative, got %v", ErrConfig, c.Months)
		}
	}
	if c.Screening != nil {
		if err := c.Screening.Validate(); err != nil {
			return err
		}
		if c.KeyLife {
			return fmt.Errorf("%w: the key-lifecycle workload runs its own burn-in screening on a fixed population; key-life and screening are exclusive", ErrConfig)
		}
	}
	if c.Sim == nil {
		return nil
	}
	if err := c.Sim.Validate(); err != nil {
		return err
	}
	fleet := c.Sim.Fleet
	switch {
	case c.Sim.Devices < 2:
		return fmt.Errorf("%w: need >= 2 devices for uniqueness metrics, got %d", ErrConfig, c.Sim.Devices)
	case c.KeyLife && fleet != nil:
		return fmt.Errorf("%w: the key-lifecycle workload is single-profile; a fleet and key-life are exclusive", ErrConfig)
	case c.Screening != nil && len(c.Screening.PerProfile) > 0 && fleet == nil:
		return fmt.Errorf("%w: per-profile screening floors name fleet profiles; a single-profile campaign screens with one floor", ErrConfig)
	case c.Screening != nil && fleet != nil:
		if _, err := c.Screening.Resolve(fleet.ProfileNames()); err != nil {
			return err
		}
	}
	return nil
}
