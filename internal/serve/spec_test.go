package serve

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestDecodeSpecDefaults(t *testing.T) {
	s, err := DecodeSpec([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Devices: defaultDevices, Window: defaultWindow, Months: defaultMonths, Seed: defaultSeed}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("defaults = %+v, want %+v", s, want)
	}
	if got := s.EvalMonths(); len(got) != defaultMonths+1 || got[0] != 0 {
		t.Fatalf("EvalMonths() = %v", got)
	}
}

func TestDecodeSpecRejects(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"unknown field", `{"devcies": 4}`},
		{"trailing garbage", `{"devices": 4} {"devices": 6}`},
		{"wrong type", `{"devices": "four"}`},
		{"odd devices", `{"devices": 5}`},
		{"one device", `{"devices": 1, "months": 0, "month_list": [0, 1]}`},
		{"window of one", `{"window": 1}`},
		{"months and month_list", `{"months": 3, "month_list": [0, 1]}`},
		{"descending month_list", `{"month_list": [3, 1]}`},
		{"negative month", `{"month_list": [-1, 2]}`},
		{"negative months", `{"months": -2}`},
		{"i2c error rate", `{"i2c_error": 1.5}`},
		{"negative workers", `{"workers": -1}`},
		{"more shards than devices", `{"devices": 4, "shards": 5}`},
		{"unknown profile", `{"profile": "z80"}`},
		{"impossible condition", `{"condition": {"temp_c": -300, "volts": 5}}`},
		{"screen_profiles key naming no fleet profile", `{"fleet": ["fleetnode-1kb", "fleetnode-2kb"], "screen_profiles": {"fleetnode-1k": 0.9}}`},
		{"screen_profiles keys naming one profile twice", `{"fleet": ["fleetnode-1kb", "fleetnode-2kb"], "screen_profiles": {"fleetnode-1kb": 0.9, "FleetNode-1KB": 0.8}}`},
		{"screen_profiles on a single-profile campaign", `{"profile": "atmega32u4", "screen_profiles": {"atmega32u4": 0.9}}`},
		{"key-life on a read window narrower than the key scheme", `{"profile": "fleetnode-1kb", "keylife": true}`},
		{"not json", `devices=4`},
	}
	for _, c := range cases {
		if _, err := DecodeSpec([]byte(c.body)); !errors.Is(err, core.ErrConfig) {
			t.Errorf("%s: got %v, want ErrConfig", c.name, err)
		}
	}
}

func TestDecodeSpecAccepts(t *testing.T) {
	s, err := DecodeSpec([]byte(`{
		"name": "corner", "profile": "atmega32u4", "devices": 8, "seed": 7,
		"i2c_error": 0.001, "window": 50, "month_list": [0, 3, 6],
		"workers": 4, "shards": 2, "condition": {"temp_c": 85, "volts": 5.5}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Months != 0 || !reflect.DeepEqual(s.EvalMonths(), []int{0, 3, 6}) {
		t.Fatalf("sparse schedule mangled: %+v", s)
	}
	if s.Condition == nil || s.Condition.TempC != 85 {
		t.Fatalf("condition mangled: %+v", s.Condition)
	}
}

// TestDecodeSpecScreenProfileNames: screen_profiles keys name fleet
// profiles as silicon.Lookup does (case and surrounding space ignored) —
// the registry names the fleet field uses and the profiles' display
// names are both admitted.
func TestDecodeSpecScreenProfileNames(t *testing.T) {
	for _, key := range []string{"fleetnode-1kb", "FleetNode-1KB", " fleetnode-1kb "} {
		body := `{"fleet": ["fleetnode-1kb", "fleetnode-2kb"], "screen_profiles": {"` + key + `": 0.9}}`
		if _, err := DecodeSpec([]byte(body)); err != nil {
			t.Errorf("key %q: %v", key, err)
		}
	}
}

// TestSpecRoundTripCanonical: a decoded spec re-encodes to a fixed
// point — decode(encode(decode(x))) == decode(x) — so persisted state
// files and resubmissions describe the identical campaign.
func TestSpecRoundTripCanonical(t *testing.T) {
	s, err := DecodeSpec([]byte(`{"devices": 6, "months": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := DecodeSpec(enc)
	if err != nil {
		t.Fatalf("re-decoding canonical spec %s: %v", enc, err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("round trip drifted: %+v vs %+v", s, s2)
	}
}
