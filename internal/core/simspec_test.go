package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/aging"
	"repro/internal/shard"
	"repro/internal/silicon"
)

// hashReadouts drives a source over months 0 and 1 and hashes every
// device's read-outs in (month, device, capture) order, so two sources
// agree exactly when they deliver the same bits to the same devices.
func hashReadouts(t *testing.T, src Source) string {
	t.Helper()
	months := []int{0, 1}
	byMonth := collectWindows(t, src, months, 3)
	h := sha256.New()
	for _, m := range months {
		devices := make([]int, 0, len(byMonth[m]))
		for d := range byMonth[m] {
			devices = append(devices, d)
		}
		sort.Ints(devices)
		for _, d := range devices {
			for i, v := range byMonth[m][d] {
				fmt.Fprintf(h, "%d/%d/%d:", m, d, i)
				for _, w := range v.Words() {
					binary.Write(h, binary.LittleEndian, w)
				}
			}
		}
	}
	if c, ok := src.(io.Closer); ok {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// specMatrixSilicon returns the matrix's silicon: a plain profile, the
// same profile as a one-profile fleet, and a two-profile fleet.
func specMatrixSilicon(t testing.TB) (silicon.DeviceProfile, *Fleet, *Fleet) {
	t.Helper()
	p1, err := silicon.Lookup("fleetnode-1kb")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := silicon.Lookup("fleetnode-2kb")
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewFleet(p1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewFleet(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	return p1, one, two
}

// TestSimSpecMatrix: every layout OpenSim chooses — eager and lazy
// chips over a plain profile, a one-profile fleet and a two-profile
// fleet, each in process and over 2 shards, plus the rig in process and
// over 2 shards — delivers the same month-0 and month-1 read-outs as its
// reference (the eager in-process source for sim specs, the in-process
// rig for rig specs), at the nominal condition and at a hot corner. The
// plain profile and the one-profile fleet share one reference, and the
// rig reference equals the eager one: every layout measures the same
// chips.
func TestSimSpecMatrix(t *testing.T) {
	p1, one, two := specMatrixSilicon(t)
	const devices, seed = 4, 20170208
	for _, sc := range []aging.Scenario{{}, aging.HotCorner} {
		base := SimSpec{Devices: devices, Seed: seed, Scenario: sc}
		withSilicon := func(p silicon.DeviceProfile, f *Fleet) SimSpec {
			s := base
			s.Profile, s.Fleet = p, f
			return s
		}
		eagerPlain := hashReadouts(t, mustOpen[*SimSource](t, withSilicon(p1, nil)))
		eagerTwo := hashReadouts(t, mustOpen[*SimSource](t, withSilicon(silicon.DeviceProfile{}, two)))
		rigSpec := withSilicon(p1, nil)
		rigSpec.Rig = true
		rigRef := hashReadouts(t, mustOpen[*RigSource](t, rigSpec))
		if rigRef != eagerPlain {
			t.Fatalf("%q: the in-process rig and the eager source read different chips", sc.Name)
		}

		type row struct {
			name string
			spec SimSpec
			want string
		}
		var rows []row
		for _, sil := range []struct {
			name string
			spec SimSpec
			want string
		}{
			{"profile", withSilicon(p1, nil), eagerPlain},
			{"fleet1", withSilicon(silicon.DeviceProfile{}, one), eagerPlain},
			{"fleet2", withSilicon(silicon.DeviceProfile{}, two), eagerTwo},
		} {
			for _, lazy := range []bool{false, true} {
				for _, shards := range []int{0, 2} {
					s := sil.spec
					s.Lazy, s.Shards = lazy, shards
					rows = append(rows, row{fmt.Sprintf("%s/lazy=%t/shards=%d", sil.name, lazy, shards), s, sil.want})
				}
			}
		}
		for _, shards := range []int{0, 2} {
			s := rigSpec
			s.Shards = shards
			rows = append(rows, row{fmt.Sprintf("rig/shards=%d", shards), s, rigRef})
		}
		for _, r := range rows {
			src, err := OpenSim(r.spec)
			if err != nil {
				t.Fatalf("%q %s: %v", sc.Name, r.name, err)
			}
			if got := hashReadouts(t, src); got != r.want {
				t.Errorf("%q %s: read-outs differ from the reference", sc.Name, r.name)
			}
		}
	}
}

// TestSimSpecInvalid: every invalid spec fails Validate and OpenSim
// with ErrConfig, before a single shard worker is started.
func TestSimSpecInvalid(t *testing.T) {
	p1, one, two := specMatrixSilicon(t)
	var started atomic.Int64
	transport := shard.Transport(func(i, n int) (io.ReadWriteCloser, error) {
		started.Add(1)
		return nil, errors.New("no worker should start for an invalid spec")
	})
	plain := SimSpec{Profile: p1, Devices: 4, Seed: 1, Transport: transport}
	with := func(edit func(*SimSpec)) SimSpec {
		s := plain
		edit(&s)
		return s
	}
	cases := map[string]SimSpec{
		"rig with lazy":        with(func(s *SimSpec) { s.Rig, s.Lazy, s.Shards = true, true, 2 }),
		"rig with two-profile": with(func(s *SimSpec) { s.Profile, s.Fleet, s.Rig, s.Shards = silicon.DeviceProfile{}, two, true, 2 }),
		"rig with one-profile": with(func(s *SimSpec) { s.Profile, s.Fleet, s.Rig = silicon.DeviceProfile{}, one, true }),
		"i2c rate 2":           with(func(s *SimSpec) { s.Rig, s.I2CErrorRate = true, 2 }),
		"sharded i2c rate 2":   with(func(s *SimSpec) { s.Rig, s.I2CErrorRate, s.Shards = true, 2, 2 }),
		"i2c rate -0.1":        with(func(s *SimSpec) { s.Rig, s.I2CErrorRate = true, -0.1 }),
		"i2c rate NaN":         with(func(s *SimSpec) { s.Rig, s.I2CErrorRate = true, math.NaN() }),
		"rig with odd devices": with(func(s *SimSpec) { s.Devices, s.Rig, s.Shards = 3, true, 1 }),
		"shards > devices":     with(func(s *SimSpec) { s.Shards = 5 }),
		"no devices":           with(func(s *SimSpec) { s.Devices = 0 }),
		"indices with shards":  with(func(s *SimSpec) { s.Indices, s.Shards = []int{0, 1}, 1 }),
		"negative index":       with(func(s *SimSpec) { s.Indices = []int{0, -1} }),
		"invalid scenario":     with(func(s *SimSpec) { s.Scenario, s.Shards = aging.Scenario{Name: "void", TempC: 25, Voltage: -1}, 2 }),
		"profile and fleet":    with(func(s *SimSpec) { s.Fleet, s.Shards = two, 2 }),
	}
	for name, spec := range cases {
		if err := spec.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: Validate = %v, want ErrConfig", name, err)
		}
		if src, err := OpenSim(spec); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: OpenSim = %T, %v; want ErrConfig", name, src, err)
		}
	}
	if err := plain.Validate(); err != nil {
		t.Fatalf("valid spec: Validate = %v", err)
	}
	if n := started.Load(); n != 0 {
		t.Fatalf("%d shard workers started for invalid specs", n)
	}
}

// TestSimSpecShardRoundTrip: the handshake carries the spec exactly —
// its JSON form decodes to a spec that re-resolves to the coordinator's,
// without the execution fields.
func TestSimSpecShardRoundTrip(t *testing.T) {
	p1, _, two := specMatrixSilicon(t)
	for _, s := range []SimSpec{
		{Profile: p1, Devices: 4, Seed: 3, Rig: true, I2CErrorRate: 0.01, Shards: 2},
		{Fleet: two, Devices: 6, Seed: 5, Lazy: true, Scenario: aging.HotCorner, Shards: 3},
	} {
		r, err := s.resolve()
		if err != nil {
			t.Fatal(err)
		}
		var back SimSpec
		if err := json.Unmarshal(mustJSON(t, r.SimSpec), &back); err != nil {
			t.Fatal(err)
		}
		if back.Shards != 0 || back.Indices != nil || back.Transport != nil {
			t.Fatalf("execution fields crossed the wire: %+v", back)
		}
		rb, err := back.resolve()
		if err != nil {
			t.Fatal(err)
		}
		if rb.Devices != r.Devices || rb.Seed != r.Seed || rb.Scenario != r.Scenario ||
			rb.Lazy != r.Lazy || rb.Rig != r.Rig || rb.I2CErrorRate != r.I2CErrorRate ||
			rb.Profile.Name != r.Profile.Name || rb.mix.Size() != r.mix.Size() {
			t.Fatalf("round trip changed the spec: %+v -> %+v", r.SimSpec, rb.SimSpec)
		}
		for i, name := range r.mix.ProfileNames() {
			if rb.mix.ProfileNames()[i] != name {
				t.Fatalf("round trip reordered the fleet: %v -> %v", r.mix.ProfileNames(), rb.mix.ProfileNames())
			}
		}
	}
}
