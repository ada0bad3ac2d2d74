package serve

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// FuzzFleetSpec drives the admission parser's fleet surface: arbitrary
// profile-name lists (with the rest of the spec varying around them)
// must never panic, every rejection must be the typed ErrConfig, and
// every accepted fleet must resolve to a buildable core.Fleet whose
// per-device assignment is total over the spec's device range.
func FuzzFleetSpec(f *testing.F) {
	seeds := []string{
		`{"fleet": ["atmega32u4", "cachearray-64kb"], "devices": 6}`,
		`{"fleet": ["atmega32u4"]}`,
		`{"fleet": ["ATmega32u4", "CMOS65nm-accelerated"], "devices": 4, "shards": 2}`,
		`{"fleet": ["atmega32u4", "atmega32u4"]}`,
		`{"fleet": ["nope"]}`,
		`{"fleet": [], "devices": 4}`,
		`{"fleet": ["atmega32u4"], "profile": "atmega32u4"}`,
		`{"fleet": ["atmega32u4", "cachearray-64kb"], "keylife": true}`,
		`{"fleet": ["atmega32u4", "cachearray-64kb"], "devices": 3, "month_list": [0, 2]}`,
		`{"fleet": [""]}`,
		`{"fleet": ["atmega32u4", "cachearray-2mb", "cachearray-64kb"]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			if !errors.Is(err, core.ErrConfig) {
				t.Fatalf("rejection is not ErrConfig: %v", err)
			}
			return
		}
		if len(spec.Fleet) == 0 {
			return // FuzzCampaignSpec covers the non-fleet surface
		}
		fleet, err := fleetByNames(spec.Fleet)
		if err != nil {
			t.Fatalf("accepted fleet %v does not build: %v", spec.Fleet, err)
		}
		if fleet.Size() != len(spec.Fleet) {
			t.Fatalf("fleet %v built %d profiles", spec.Fleet, fleet.Size())
		}
		// The assignment must be total and stable over the device range.
		all := make([]int, spec.Devices)
		for d := range all {
			all[d] = d
		}
		for d, i := range fleet.AssignmentIndices(spec.Seed, all) {
			if int(i) >= fleet.Size() {
				t.Fatalf("device %d assigned unknown profile index %d", d, i)
			}
			if got := fleet.AssignmentIndices(spec.Seed, []int{d})[0]; got != i {
				t.Fatalf("device %d assignment unstable: %d vs %d", d, i, got)
			}
		}
	})
}
