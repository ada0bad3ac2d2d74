package serve

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
)

// FuzzCampaignSpec throws arbitrary bytes at the service's admission
// parser: DecodeSpec must never panic, every rejection must be the typed
// ErrConfig (the HTTP 400 contract), and every ACCEPTED spec must be
// canonical — it re-encodes and re-decodes to the identical value, and
// passes its own Validate.
func FuzzCampaignSpec(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"devices": 4, "months": 6, "window": 200}`,
		`{"name": "x", "profile": "atmega32u4", "devices": 16, "months": 24, "window": 1000, "seed": 20170208}`,
		`{"month_list": [0, 3, 6], "shards": 2, "workers": 4}`,
		`{"condition": {"temp_c": 85, "volts": 5.5}}`,
		`{"devices": 5}`,
		`{"devcies": 4}`,
		`{"devices": 4}{"devices": 6}`,
		`[1, 2, 3]`,
		`"devices"`,
		`{"i2c_error": 1e308}`,
		`{"months": -1, "month_list": [2, 1]}`,
		`{"month_list":[]}`,
		`{"fleet":[]}`,
		`{"screen_profiles":{}}`,
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
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec fails its own Validate: %v", err)
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		spec2, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("canonical encoding %s rejected: %v", enc, err)
		}
		if !reflect.DeepEqual(spec, spec2) {
			t.Fatalf("round trip drifted:\n  first  %+v\n  second %+v", spec, spec2)
		}
		if len(spec.EvalMonths()) == 0 {
			t.Fatal("accepted spec has no evaluation months")
		}
	})
}
