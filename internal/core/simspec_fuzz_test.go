package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/aging"
	"repro/internal/shard"
	"repro/internal/silicon"
)

// FuzzShardSimSpec feeds arbitrary bytes to a worker as the sim payload
// of a shard handshake. Building the backend must never panic, every
// rejection must wrap ErrConfig (so it crosses the wire as a
// configuration error), and every accepted payload must re-encode to a
// fixed point: marshal, unmarshal, marshal gives identical bytes.
func FuzzShardSimSpec(f *testing.F) {
	p1, one, two := specMatrixSilicon(f)
	for _, sc := range []aging.Scenario{{}, aging.HotCorner} {
		base := SimSpec{Devices: 4, Seed: 20170208, Scenario: sc}
		for _, sil := range []struct {
			p silicon.DeviceProfile
			f *Fleet
		}{{p1, nil}, {silicon.DeviceProfile{}, one}, {silicon.DeviceProfile{}, two}} {
			for _, lazy := range []bool{false, true} {
				s := base
				s.Profile, s.Fleet, s.Lazy = sil.p, sil.f, lazy
				f.Add([]byte(mustJSON(f, s)))
			}
		}
		rig := base
		rig.Profile, rig.Rig, rig.I2CErrorRate = p1, true, 0.01
		f.Add([]byte(mustJSON(f, rig)))
	}
	// A rig rate outside [0, 1] is refused at the handshake, not when the
	// worker is assigned its devices.
	badRate := mustJSON(f, SimSpec{Profile: p1, Devices: 4, Seed: 20170208, Rig: true, I2CErrorRate: 2})
	if _, err := buildShardBackend(shard.Spec{Protocol: shard.Protocol, Sim: []byte(badRate)}); !errors.Is(err, ErrConfig) {
		f.Fatalf("rig payload with I2C error rate 2: err = %v, want ErrConfig", err)
	}
	f.Add([]byte(badRate))
	for _, bad := range []string{
		``, `{`, `null`, `[]`, `"sim"`, `{"devices":"four"}`, `{"fleet":[]}`,
		`{"fleet":{}}`, `{"devices":-1}`, `{"devices":1e400}`, `{"seed":-1}`,
		`{"devices":2,"rig":true,"lazy":true}`,
	} {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := buildShardBackend(shard.Spec{Protocol: shard.Protocol, Sim: data})
		if err != nil {
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("rejection %v does not wrap ErrConfig", err)
			}
			return
		}
		var spec SimSpec
		switch b := b.(type) {
		case *simShardBackend:
			spec = b.spec
		case *rigShardBackend:
			spec = b.spec
		default:
			t.Fatalf("sim payload built a %T", b)
		}
		first, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		var back SimSpec
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("re-encoded spec does not decode: %v\n%s", err, first)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", first, second)
		}
	})
}
