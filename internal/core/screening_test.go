package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/silicon"
)

// screeningFleet builds the two-profile fleet-node population the
// screening goldens run on (same 256-bit read window, different array
// sizes — the heterogeneous-fleet shape screening is for).
func screeningFleet(t *testing.T) *Fleet {
	t.Helper()
	p1, err := silicon.Lookup("fleetnode-1kb")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := silicon.Lookup("fleetnode-2kb")
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

// runScreened runs one screened campaign to completion.
func runScreened(t *testing.T, src Source, window int, months []int, sc *ScreeningConfig) *Results {
	t.Helper()
	eng, err := NewAssessment(AssessmentConfig{Source: src, WindowSize: window, Months: months, Screening: sc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// pickScreeningFloor derives a stability floor from an unscreened probe
// run. A screened device's own StableRatio trajectory is identical to
// its unscreened one (the prune decision reads only that device's
// metrics), so the whole prune schedule of any candidate floor can be
// simulated on the probe's ratio matrix. The picker returns the floor
// that prunes the most devices subject to the schedule staying viable:
// at least two devices survive every non-final month, at least one
// device is pruned overall, and — when requireMonth0 — at least one is
// pruned right after month 0. prunable restricts which devices the
// floor applies to (nil = all), mirroring a per-profile floor.
func pickScreeningFloor(t *testing.T, res *Results, requireMonth0 bool, prunable []bool) float64 {
	t.Helper()
	matrix := make([][]float64, len(res.Monthly))
	for mi, m := range res.Monthly {
		row := make([]float64, len(m.Devices))
		for d, dev := range m.Devices {
			row[d] = dev.StableRatio
		}
		matrix[mi] = row
	}
	devices := len(matrix[0])
	var vals []float64
	for _, row := range matrix {
		vals = append(vals, row...)
	}
	sort.Float64s(vals)
	best, bestPruned := 0.0, 0
	for i := 1; i < len(vals); i++ {
		if vals[i] == vals[i-1] {
			continue
		}
		floor := (vals[i-1] + vals[i]) / 2
		active := make([]bool, devices)
		for d := range active {
			active[d] = true
		}
		alive, month0, total, viable := devices, 0, 0, true
		for mi, row := range matrix {
			for d := 0; d < devices; d++ {
				if !active[d] || (prunable != nil && !prunable[d]) {
					continue
				}
				if row[d] < floor {
					active[d] = false
					alive--
					total++
					if mi == 0 {
						month0++
					}
				}
			}
			if alive < 2 && mi < len(matrix)-1 {
				viable = false
				break
			}
		}
		if !viable || total == 0 || (requireMonth0 && month0 == 0) {
			continue
		}
		if total > bestPruned {
			bestPruned, best = total, floor
		}
	}
	if bestPruned == 0 {
		t.Fatal("no stability floor yields a viable screening schedule on this population")
	}
	return best
}

// assertScreeningHappened guards against a degenerate golden: the floor
// must actually prune devices, or the test compares unscreened runs.
func assertScreeningHappened(t *testing.T, res *Results, devices int) {
	t.Helper()
	last := res.Monthly[len(res.Monthly)-1]
	if last.Survivors == 0 || last.Survivors >= devices {
		t.Fatalf("screening is a no-op: %d of %d devices survive", last.Survivors, devices)
	}
	pruned := 0
	for _, m := range res.Monthly {
		pruned += len(m.Pruned)
	}
	if pruned == 0 {
		t.Fatal("no month pruned any device")
	}
}

// TestScreeningDirectVsShardedBitIdentical is the screening determinism
// golden: the same screened fleet campaign — eager direct, lazy direct,
// eager sharded (1, 2, 7) and lazy sharded (2, 7) — prunes the identical
// devices at the identical months and produces bit-identical Results,
// including Survivors, DeviceIndex, Pruned and per-profile Attrition.
func TestScreeningDirectVsShardedBitIdentical(t *testing.T) {
	fleet := screeningFleet(t)
	const devices, seed, window = 12, 4242, 24
	months := shardTestMonths

	spec := SimSpec{Fleet: fleet, Devices: devices, Seed: seed}
	unscreened := runAssessment(t, mustOpen[Source](t, spec), window, months)
	sc := &ScreeningConfig{Floor: pickScreeningFloor(t, unscreened, false, nil)}

	want := runScreened(t, mustOpen[Source](t, spec), window, months, sc)
	assertScreeningHappened(t, want, devices)
	attrition := false
	for _, m := range want.Monthly {
		if len(m.Attrition) > 0 {
			attrition = true
		}
	}
	if !attrition {
		t.Fatal("no month recorded per-profile attrition")
	}

	layouts := []SimSpec{{Lazy: true}, {Shards: 1}, {Shards: 2}, {Shards: 7}, {Lazy: true, Shards: 2}, {Lazy: true, Shards: 7}}
	for _, layout := range layouts {
		s := spec
		s.Lazy, s.Shards = layout.Lazy, layout.Shards
		src := mustOpen[Source](t, s)
		got := runScreened(t, src, window, months, sc)
		if c, ok := src.(io.Closer); ok {
			c.Close()
		}
		assertResultsBitIdentical(t, want, got)
	}
}

// TestScreeningPerProfileFloors: profile-specific floors resolve through
// the assignment each layout derives at open — a floor that only prunes
// one profile's devices attributes every pruned device to that profile,
// in every layout. Keys match profile names case-insensitively, so the
// registry name floors the same devices as the display name, and a key
// that names no profile of the fleet is refused by NewAssessment with
// ErrConfig, before any window is measured, instead of screening
// nothing.
func TestScreeningPerProfileFloors(t *testing.T) {
	fleet := screeningFleet(t)
	const devices, seed, window = 10, 777, 24
	months := []int{0, 1, 2}

	spec := SimSpec{Fleet: fleet, Devices: devices, Seed: seed}
	probe := mustOpen[*SimSource](t, spec)
	unscreened := runAssessment(t, probe, window, months)
	names := probe.DeviceProfileNames()
	prunable := make([]bool, devices)
	for d, name := range names {
		prunable[d] = name == "FleetNode-1KB"
	}
	floor := pickScreeningFloor(t, unscreened, false, prunable)

	var want *Results
	for _, c := range []struct {
		name, key string
		valid     bool
	}{
		{"display name", "FleetNode-1KB", true},
		{"registry name", "fleetnode-1kb", true},
		{"padded registry name", " fleetnode-1kb ", true},
		{"misspelled", "fleetnode-1k", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := &ScreeningConfig{PerProfile: map[string]float64{c.key: floor}}
			lazy := spec
			lazy.Lazy, lazy.Shards = true, 3
			for _, s := range []SimSpec{spec, lazy} {
				src := mustOpen[Source](t, s)
				if cl, ok := src.(io.Closer); ok {
					defer cl.Close()
				}
				eng, err := NewAssessment(AssessmentConfig{Source: src, WindowSize: window, Months: months, Screening: sc})
				if !c.valid {
					if !errors.Is(err, ErrConfig) {
						t.Fatalf("shards=%d: key %q: NewAssessment got %v, want ErrConfig", s.Shards, c.key, err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					assertScreeningHappened(t, want, devices)
					for _, m := range want.Monthly {
						for name := range m.Attrition {
							if name != "FleetNode-1KB" {
								t.Fatalf("month %d pruned profile %q; only FleetNode-1KB has a floor", m.Month, name)
							}
						}
					}
					continue
				}
				assertResultsBitIdentical(t, want, got)
			}
		})
	}

	// A key naming a fleet profile that no device drew resolves all the
	// same: the source lists the fleet's profiles, not the ones its
	// devices happen to carry, so the floor is valid and prunes nobody.
	t.Run("profile no device carries", func(t *testing.T) {
		small := spec
		small.Devices = 4
		for small.Seed = 1; ; small.Seed++ {
			if !slices.Contains(fleet.AssignmentIndices(small.Seed, []int{0, 1, 2, 3}), 1) {
				break
			}
		}
		sc := &ScreeningConfig{PerProfile: map[string]float64{"fleetnode-2kb": 0.999}}
		lazy := small
		lazy.Lazy, lazy.Shards = true, 2
		for _, s := range []SimSpec{small, lazy} {
			src := mustOpen[Source](t, s)
			got := runScreened(t, src, window, months, sc)
			if cl, ok := src.(io.Closer); ok {
				cl.Close()
			}
			for _, m := range got.Monthly {
				if m.Survivors != small.Devices || len(m.Attrition) > 0 {
					t.Fatalf("shards=%d month %d: %d survivors, attrition %v; a floor on an absent profile must prune nobody",
						s.Shards, m.Month, m.Survivors, m.Attrition)
				}
			}
		}
	})

	// A one-profile fleet lists its profile in every layout, so a key
	// naming it floors the same devices — and keys the same attrition —
	// whether the fleet runs direct or sharded.
	t.Run("one-profile fleet", func(t *testing.T) {
		p1, err := silicon.Lookup("fleetnode-1kb")
		if err != nil {
			t.Fatal(err)
		}
		single, err := NewFleet(p1)
		if err != nil {
			t.Fatal(err)
		}
		direct := SimSpec{Fleet: single, Devices: devices, Seed: seed}
		floor := pickScreeningFloor(t, runAssessment(t, mustOpen[Source](t, direct), window, months), false, nil)
		sc := &ScreeningConfig{PerProfile: map[string]float64{"fleetnode-1kb": floor}}
		want := runScreened(t, mustOpen[Source](t, direct), window, months, sc)
		assertScreeningHappened(t, want, devices)
		sharded := direct
		sharded.Lazy, sharded.Shards = true, 3
		src := mustOpen[*ShardedSource](t, sharded)
		got := runScreened(t, src, window, months, sc)
		src.Close()
		assertResultsBitIdentical(t, want, got)
	})
}

// TestScreeningArchiveReplayBitIdentical: a screened rig campaign's
// record tap replays to bit-identical Results under the same screening
// config — the prune decisions recompute from the replayed bits, and the
// archive source stops reading the boards the original run stopped
// recording. Both the direct and sharded replay paths are held to it.
func TestScreeningArchiveReplayBitIdentical(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	const devices, seed, window = 6, 31337, 25
	months := shardTestMonths

	probe, err := NewRigSource(profile, devices, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	unscreened := runAssessment(t, probe, window, months)
	sc := &ScreeningConfig{Floor: pickScreeningFloor(t, unscreened, false, nil)}

	rig, err := NewRigSource(profile, devices, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	tap := boardRecords{}
	rig.SetTap(tap.add)
	want := runScreened(t, rig, window, months, sc)
	assertScreeningHappened(t, want, devices)

	replay, err := archiveSource(tap)
	if err != nil {
		t.Fatal(err)
	}
	surviving, err := replay.AvailableMonthsSurviving(window)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(surviving, months) {
		t.Fatalf("surviving months %v, want %v", surviving, months)
	}
	// An archive lists no profiles, so both replay layouts refuse a
	// per-profile floor at NewAssessment, before any window is read.
	perProfile := &ScreeningConfig{Floor: sc.Floor, PerProfile: map[string]float64{profile.Name: sc.Floor}}
	refusesPerProfile := func(layout string, src Source) {
		t.Helper()
		if _, err := NewAssessment(AssessmentConfig{Source: src, WindowSize: window, Months: months, Screening: perProfile}); !errors.Is(err, ErrConfig) {
			t.Fatalf("%s: per-profile floors: NewAssessment got %v, want ErrConfig", layout, err)
		}
	}
	refusesPerProfile("direct replay", replay)
	got := runScreened(t, replay, window, months, sc)
	assertResultsBitIdentical(t, want, got)

	// The strict lister only serves months where EVERY board is complete
	// — screening semantics are opt-in, so a screened archive shrinks to
	// the pre-prune prefix under the historical rule.
	strict, err := archiveSource(tap)
	if err != nil {
		t.Fatal(err)
	}
	strictMonths, err := strict.AvailableMonths(window)
	if err != nil {
		t.Fatal(err)
	}
	if len(strictMonths) >= len(months) {
		t.Fatalf("strict AvailableMonths served %v from a screened archive; surviving lister is the opt-in", strictMonths)
	}

	path := filepath.Join(t.TempDir(), "screened.bin")
	tap.writeFile(t, path)
	for _, shards := range []int{1, 2} {
		src, err := NewShardedArchiveSource(path, shards, nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		gotMonths, err := src.AvailableMonthsSurviving(window)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(gotMonths, months) {
			t.Fatalf("shards=%d: surviving months %v, want %v", shards, gotMonths, months)
		}
		refusesPerProfile(fmt.Sprintf("%d-shard replay", shards), src)
		got := runScreened(t, src, window, months, sc)
		src.Close()
		assertResultsBitIdentical(t, want, got)
	}
}

// TestScreeningResolveWithoutProfiles: a source that lists no profiles
// screens with the common floor alone, so any per-profile key is an
// ErrConfig rather than a floor that silently prunes nobody.
func TestScreeningResolveWithoutProfiles(t *testing.T) {
	floors, err := (&ScreeningConfig{Floor: 0.5}).Resolve(nil)
	if err != nil || !reflect.DeepEqual(floors, map[string]float64{"": 0.5}) {
		t.Fatalf("Resolve(nil) = %v, %v; want the common floor under \"\"", floors, err)
	}
	sc := &ScreeningConfig{Floor: 0.5, PerProfile: map[string]float64{"fleetnode-1kb": 0.9}}
	if _, err := sc.Resolve(nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("Resolve(nil) with a per-profile key: got %v, want ErrConfig", err)
	}
}

// TestScreeningFloorKillsCampaign: pruning below two survivors with
// months still to run is the typed ErrScreenedOut, not a metrics panic.
func TestScreeningFloorKillsCampaign(t *testing.T) {
	profile, err := silicon.Lookup("fleetnode-1kb")
	if err != nil {
		t.Fatal(err)
	}
	src := mustOpen[*SimSource](t, SimSpec{Profile: profile, Devices: 4, Seed: 9, Lazy: true})
	eng, err := NewAssessment(AssessmentConfig{
		Source:     src,
		WindowSize: 8,
		Months:     []int{0, 1, 2},
		Screening:  &ScreeningConfig{Floor: 0.999999},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); !errors.Is(err, ErrScreenedOut) {
		t.Fatalf("want ErrScreenedOut, got %v", err)
	}
}

// prunelessSource is a Source without DevicePruner — the shape screening
// must reject at configuration time.
type prunelessSource struct{ devices int }

func (s *prunelessSource) Devices() int { return s.devices }
func (s *prunelessSource) Measure(context.Context, int, int, Sink) error {
	return errors.New("unreachable")
}

// TestScreeningRequiresPruner: a source that cannot stop sampling pruned
// devices is a configuration error, caught before any measurement.
func TestScreeningRequiresPruner(t *testing.T) {
	src := &prunelessSource{devices: 4}
	_, err := NewAssessment(AssessmentConfig{
		Source:     src,
		WindowSize: 4,
		Months:     []int{0},
		Screening:  &ScreeningConfig{Floor: 0.5},
	})
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}
