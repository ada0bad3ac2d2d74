package sramaging

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

// TestCampaignRulesAcrossSurfaces: every invalid campaign is refused
// with ErrConfig by each surface that can describe it — the one rule
// copy in core.CampaignSpec.Validate (unless the caller opens the
// source, which only the engine then sees), the facade (at
// NewAssessment or at Run, before anything is measured) and, where JSON
// can express the campaign, the service's admission (serve.DecodeSpec).
func TestCampaignRulesAcrossSurfaces(t *testing.T) {
	profile := mustProfile(t)
	fleet := mustFleet(t, "fleetnode-1kb", "fleetnode-2kb")
	// sim is a small valid simulated source, edited per row.
	sim := func(edit func(*core.SimSpec)) *core.SimSpec {
		s := &core.SimSpec{Profile: profile, Devices: 4, Seed: 1}
		if edit != nil {
			edit(s)
		}
		return s
	}
	small := []Option{WithDevices(4), WithSeed(1), WithMonths(1), WithWindowSize(20)}
	for _, row := range []struct {
		name   string
		spec   *core.CampaignSpec // nil: the caller opens the source
		facade []Option           // appended to small when spec is set
		json   string             // "": the service's JSON cannot express the campaign
	}{
		{
			name:   "key-life with a fleet",
			spec:   &core.CampaignSpec{Sim: sim(func(s *core.SimSpec) { s.Profile, s.Fleet = DeviceProfile{}, fleet }), Window: 20, KeyLife: true},
			facade: []Option{WithFleet(fleet), WithKeyLifecycle(KeyLifeConfig{})},
			json:   `{"fleet": ["fleetnode-1kb", "fleetnode-2kb"], "keylife": true}`,
		},
		{
			name:   "key-life with screening",
			spec:   &core.CampaignSpec{Sim: sim(nil), Window: 20, KeyLife: true, Screening: &core.ScreeningConfig{Floor: 0.5}},
			facade: []Option{WithKeyLifecycle(KeyLifeConfig{}), WithScreening(0.5)},
			json:   `{"keylife": true, "screen_floor": 0.5}`,
		},
		{
			name:   "per-profile floors on a single profile",
			spec:   &core.CampaignSpec{Sim: sim(nil), Window: 20, Screening: &core.ScreeningConfig{PerProfile: map[string]float64{"no-such-profile": 0.99}}},
			facade: []Option{WithScreeningPerProfile(map[string]float64{"no-such-profile": 0.99})},
			json:   `{"profile": "atmega32u4", "screen_profiles": {"no-such-profile": 0.99}}`,
		},
		{
			name:   "per-profile floors on a source that lists no profiles",
			facade: []Option{WithSource(rigArchive(t)), WithMonths(1), WithWindowSize(20), WithScreeningPerProfile(map[string]float64{"no-such-profile": 0.99})},
		},
		{
			name:   "a fleet on the rig",
			spec:   &core.CampaignSpec{Sim: sim(func(s *core.SimSpec) { s.Profile, s.Fleet, s.Rig = DeviceProfile{}, fleet, true }), Window: 20},
			facade: []Option{WithFleet(fleet), WithHarness()},
		},
		{
			name:   "I2C error rate 2",
			spec:   &core.CampaignSpec{Sim: sim(func(s *core.SimSpec) { s.Rig, s.I2CErrorRate = true, 2 }), Window: 20},
			facade: []Option{WithHarness(), WithI2CErrorRate(2)},
			json:   `{"i2c_error": 2}`,
		},
		{
			name:   "I2C error rate NaN",
			spec:   &core.CampaignSpec{Sim: sim(func(s *core.SimSpec) { s.Rig, s.I2CErrorRate = true, math.NaN() }), Window: 20},
			facade: []Option{WithHarness(), WithI2CErrorRate(math.NaN())},
		},
		{
			name:   "window 1",
			spec:   &core.CampaignSpec{Sim: sim(nil), Window: 1},
			facade: []Option{WithWindowSize(1)},
			json:   `{"window": 1}`,
		},
		{
			name:   "descending months",
			spec:   &core.CampaignSpec{Sim: sim(nil), Window: 20, Months: []int{3, 1}},
			facade: []Option{WithMonthList([]int{3, 1})},
			json:   `{"month_list": [3, 1]}`,
		},
		{
			name:   "odd rig device count",
			spec:   &core.CampaignSpec{Sim: sim(func(s *core.SimSpec) { s.Rig, s.Devices = true, 5 }), Window: 20},
			facade: []Option{WithHarness(), WithDevices(5)},
			json:   `{"devices": 5}`,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			if row.spec != nil {
				if err := row.spec.Validate(); !errors.Is(err, ErrConfig) {
					t.Errorf("CampaignSpec.Validate = %v, want ErrConfig", err)
				}
			}
			opts := row.facade
			if row.spec != nil {
				opts = append(append([]Option{}, small...), row.facade...)
			}
			if err := runFacade(opts...); !errors.Is(err, ErrConfig) {
				t.Errorf("facade = %v, want ErrConfig", err)
			}
			if row.json != "" {
				if _, err := serve.DecodeSpec([]byte(row.json)); !errors.Is(err, ErrConfig) {
					t.Errorf("serve.DecodeSpec = %v, want ErrConfig", err)
				}
			}
		})
	}
}

// runFacade builds and runs an assessment, returning the first error.
func runFacade(opts ...Option) error {
	a, err := NewAssessment(opts...)
	if err != nil {
		return err
	}
	_, err = a.Run(context.Background())
	return err
}

// rigArchive records a one-month, four-board rig campaign and returns
// its replay source, which lists no device profiles.
func rigArchive(t *testing.T) Source {
	t.Helper()
	rig, err := NewRigSource(mustProfile(t), 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := store.NewBinaryWriterV1(&buf)
	rig.SetTap(w.Write)
	if err := runFacade(WithSource(rig), WithMonths(1), WithWindowSize(20)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	src, err := NewArchiveSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func mustFleet(t *testing.T, names ...string) *Fleet {
	t.Helper()
	profiles := make([]DeviceProfile, len(names))
	for i, name := range names {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profiles[i] = p
	}
	f, err := NewFleet(profiles...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
