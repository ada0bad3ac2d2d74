package core

import (
	"sync"
	"testing"

	"repro/internal/aging"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/store"
)

// fleetTestProfiles builds the heterogeneous pair the fleet tests run
// on: the paper's embedded chip next to a small cache-line-structured
// correlated profile. Both expose the same 1024-byte read window — the
// fleet invariant the cross-device metrics rely on.
func fleetTestProfiles(t *testing.T) (silicon.DeviceProfile, silicon.DeviceProfile) {
	t.Helper()
	embedded, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	corr, err := silicon.NewProfile("fleet-corr-test",
		silicon.WithGeometry(8192, 1024),
		silicon.WithCellModel(silicon.ModelCorrelated),
		silicon.WithLineStructure(512, 0.3),
	)
	if err != nil {
		t.Fatal(err)
	}
	return embedded, corr
}

func fleetTestFleet(t *testing.T) *Fleet {
	t.Helper()
	embedded, corr := fleetTestProfiles(t)
	fleet, err := NewFleet(embedded, corr)
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

// TestFleetAssignmentDeterministic: the per-device profile assignment is
// a pure function of (seed, device index) — repeated evaluation agrees,
// every profile actually serves devices, a different seed deals a
// different hand, and a single-profile fleet never consults the RNG (the
// golden-equality short-circuit).
func TestFleetAssignmentDeterministic(t *testing.T) {
	fleet := fleetTestFleet(t)
	const devices, seed = 32, 20170208

	names := assignmentNames(fleet, seed, devices)
	again := assignmentNames(fleet, seed, devices)
	counts := map[string]int{}
	for d := range names {
		if names[d] != again[d] {
			t.Fatalf("device %d: assignment not deterministic: %q vs %q", d, names[d], again[d])
		}
		if got := fleet.Profiles()[profileIndex(fleet, seed, d)].Name; got != names[d] {
			t.Fatalf("device %d: per-device derivation %q disagrees with AssignmentIndices %q", d, got, names[d])
		}
		counts[names[d]]++
	}
	for _, p := range fleet.Profiles() {
		if counts[p.Name] == 0 {
			t.Errorf("profile %q serves no device out of %d (counts: %v)", p.Name, devices, counts)
		}
	}

	other := assignmentNames(fleet, seed+1, devices)
	same := true
	for d := range names {
		if other[d] != names[d] {
			same = false
			break
		}
	}
	if same {
		t.Error("seed+1 deals the identical assignment; the seed is not feeding the deal")
	}

	embedded, _ := fleetTestProfiles(t)
	single, err := NewFleet(embedded)
	if err != nil {
		t.Fatal(err)
	}
	for d, i := range single.AssignmentIndices(seed, allDevices(devices)) {
		if i != 0 {
			t.Fatalf("single-profile fleet assigned device %d to index %d", d, i)
		}
	}
}

// TestFleetSourceShardedBitIdentical: a sharded fleet campaign produces
// bit-identical Results to the direct fleet source for shard counts 1,
// 2 and 7 — every worker rebuilds the same seed-deterministic
// assignment and the same chips.
func TestFleetSourceShardedBitIdentical(t *testing.T) {
	fleet := fleetTestFleet(t)
	const devices, seed, window = 8, 20170208, 25

	direct := mustOpen[*SimSource](t, SimSpec{Fleet: fleet, Devices: devices, Seed: seed})
	want := runAssessment(t, direct, window, shardTestMonths)

	for _, shards := range []int{1, 2, 7} {
		src, err := openAs[*ShardedSource](SimSpec{Fleet: fleet, Devices: devices, Seed: seed, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := runAssessment(t, src, window, shardTestMonths)
		if err := src.Close(); err != nil {
			t.Fatalf("shards=%d: close: %v", shards, err)
		}
		assertResultsBitIdentical(t, want, got)
	}
}

// TestFleetArchiveReplayBitIdentical: records tapped from a sharded
// fleet campaign replay to the same Results — modulo the per-profile
// breakdown, which needs per-device profile knowledge an archive does
// not carry. The breakdown itself is asserted on the live run: both
// profiles present, device counts summing to the population.
func TestFleetArchiveReplayBitIdentical(t *testing.T) {
	fleet := fleetTestFleet(t)
	const devices, seed, window = 6, 7, 20

	direct := mustOpen[*SimSource](t, SimSpec{Fleet: fleet, Devices: devices, Seed: seed})
	want := runAssessment(t, direct, window, shardTestMonths)
	for _, ev := range want.Monthly {
		if len(ev.ByProfile) != fleet.Size() {
			t.Fatalf("month %d: breakdown over %d profiles, want %d: %+v", ev.Month, len(ev.ByProfile), fleet.Size(), ev.ByProfile)
		}
		total := 0
		for _, pe := range ev.ByProfile {
			total += pe.Devices
		}
		if total != devices {
			t.Fatalf("month %d: breakdown covers %d devices, want %d", ev.Month, total, devices)
		}
	}

	// Collect the same campaign's records through the sharded tap.
	tapped := mustOpen[*ShardedSource](t, SimSpec{Fleet: fleet, Devices: devices, Seed: seed, Shards: 2})
	arch := boardRecords{}
	var mu sync.Mutex
	tapped.SetTap(func(rec store.Record) error {
		mu.Lock()
		defer mu.Unlock()
		rec.Data = rec.Data.Clone()
		return arch.add(rec)
	})
	got := runAssessment(t, tapped, window, shardTestMonths)
	if err := tapped.Close(); err != nil {
		t.Fatal(err)
	}
	assertResultsBitIdentical(t, want, got)

	replaySrc, err := archiveSource(arch)
	if err != nil {
		t.Fatal(err)
	}
	replay := runAssessment(t, replaySrc, window, shardTestMonths)
	stripped := *want
	stripped.Monthly = append([]MonthEval(nil), want.Monthly...)
	for i := range stripped.Monthly {
		stripped.Monthly[i].ByProfile = nil
	}
	assertResultsBitIdentical(t, &stripped, replay)
}

// TestSingleProfileFleetMatchesPlain is the nominal-path golden: a
// one-profile fleet is bit-identical to the plain single-profile source
// — same chips, same RNG consumption, and no ByProfile breakdown (a
// homogeneous campaign's results must stay byte-identical under
// serialization).
func TestSingleProfileFleetMatchesPlain(t *testing.T) {
	embedded, _ := fleetTestProfiles(t)
	const devices, seed, window = 6, 20170208, 30

	plain, err := NewSimSource(embedded, devices, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := runAssessment(t, plain, window, shardTestMonths)

	fleet, err := NewFleet(embedded)
	if err != nil {
		t.Fatal(err)
	}
	src := mustOpen[*SimSource](t, SimSpec{Fleet: fleet, Devices: devices, Seed: seed})
	got := runAssessment(t, src, window, shardTestMonths)
	assertResultsBitIdentical(t, want, got)
	for _, ev := range got.Monthly {
		if ev.ByProfile != nil {
			t.Fatalf("month %d: homogeneous campaign grew a ByProfile breakdown: %+v", ev.Month, ev.ByProfile)
		}
	}
}

// TestCorrelatedPhysicalInvariants: the correlated model obeys the same
// qualitative physics the paper establishes for the embedded chip —
// aging under the hot corner is strictly worse than nominal (WCHD at
// end of test), and the stable-cell ratio degrades over the campaign.
func TestCorrelatedPhysicalInvariants(t *testing.T) {
	_, corr := fleetTestProfiles(t)
	const devices, seed, window = 4, 3, 30
	months := []int{0, 6, 12}

	run := func(sc aging.Scenario) *Results {
		src := mustOpen[*SimSource](t, SimSpec{Profile: corr, Devices: devices, Seed: seed, Scenario: sc})
		return runAssessment(t, src, window, months)
	}
	nominal := run(aging.NominalRoomTemp)
	hot := run(aging.HotCorner)

	avgWCHD := func(ev MonthEval) float64 {
		s := 0.0
		for _, d := range ev.Devices {
			s += d.WCHD
		}
		return s / float64(len(ev.Devices))
	}
	avgStable := func(ev MonthEval) float64 {
		s := 0.0
		for _, d := range ev.Devices {
			s += d.StableRatio
		}
		return s / float64(len(ev.Devices))
	}
	nEnd := avgWCHD(nominal.Monthly[len(nominal.Monthly)-1])
	hEnd := avgWCHD(hot.Monthly[len(hot.Monthly)-1])
	if hEnd <= nEnd {
		t.Errorf("hot corner WCHD %.4f not worse than nominal %.4f at end of test", hEnd, nEnd)
	}
	first, last := hot.Monthly[0], hot.Monthly[len(hot.Monthly)-1]
	if avgStable(last) >= avgStable(first) {
		t.Errorf("stable-cell ratio did not degrade under stress: %.4f -> %.4f",
			avgStable(first), avgStable(last))
	}
}

// allDevices returns the device indices 0..n-1.
func allDevices(n int) []int {
	all := make([]int, n)
	for d := range all {
		all[d] = d
	}
	return all
}

// assignmentNames returns the profile name of every device 0..devices-1
// under the campaign seed, through AssignmentIndices.
func assignmentNames(f *Fleet, seed uint64, devices int) []string {
	names := make([]string, devices)
	for d, i := range f.AssignmentIndices(seed, allDevices(devices)) {
		names[d] = f.profiles[i].Name
	}
	return names
}

// profileIndex derives one device's profile index on its own, rebuilding
// the assignment stream per call: the oracle for AssignmentIndices'
// hoisted stream.
func profileIndex(f *Fleet, seed uint64, device int) int {
	if len(f.profiles) == 1 {
		return 0
	}
	return rng.New(seed).Derive(fleetAssignLabel).Derive(uint64(device) + 1).Intn(len(f.profiles))
}
