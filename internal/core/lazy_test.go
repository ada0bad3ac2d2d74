package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/silicon"
	"repro/internal/sram"
)

// collectWindows drives a source over the given months and collects
// every device's windows per month, in capture order.
func collectWindows(t *testing.T, src Source, months []int, size int) map[int]map[int][]*bitvec.Vector {
	t.Helper()
	out := make(map[int]map[int][]*bitvec.Vector, len(months))
	var mu sync.Mutex
	for _, m := range months {
		byDev := make(map[int][]*bitvec.Vector)
		sink := func(d int, v *bitvec.Vector) error {
			mu.Lock()
			byDev[d] = append(byDev[d], v.Clone())
			mu.Unlock()
			return nil
		}
		if err := src.Measure(context.Background(), m, size, sink); err != nil {
			t.Fatalf("Measure month %d: %v", m, err)
		}
		out[m] = byDev
	}
	return out
}

func diffWindows(t *testing.T, label string, eager, lazy map[int]map[int][]*bitvec.Vector) {
	t.Helper()
	if len(eager) != len(lazy) {
		t.Fatalf("%s: month count %d vs %d", label, len(eager), len(lazy))
	}
	for m, ebd := range eager {
		lbd := lazy[m]
		if len(ebd) != len(lbd) {
			t.Fatalf("%s month %d: device count %d vs %d", label, m, len(ebd), len(lbd))
		}
		for d, ews := range ebd {
			lws := lbd[d]
			if len(ews) != len(lws) {
				t.Fatalf("%s month %d device %d: window count %d vs %d", label, m, d, len(ews), len(lws))
			}
			for i := range ews {
				if !ews[i].Equal(lws[i]) {
					t.Fatalf("%s month %d device %d window %d: bits differ", label, m, d, i)
				}
			}
		}
	}
}

// TestLazyMatchesEagerPlain pins the lazy construction contract for a
// single-profile population: every device's every window, at every
// evaluated month (including skipped months in between), is
// bit-identical to the eager SimSource — the rebuilt chip's aging
// trajectory and noise-stream position reproduce the persistent chip's
// exactly.
func TestLazyMatchesEagerPlain(t *testing.T) {
	prof, err := silicon.Lookup("fleetnode-1kb")
	if err != nil {
		t.Fatal(err)
	}
	const devices, seed, size = 6, uint64(77), 4
	months := []int{0, 2, 7}

	eager, err := NewSimSource(prof, devices, seed)
	if err != nil {
		t.Fatal(err)
	}
	lazy := mustOpen[*LazySimSource](t, SimSpec{Profile: prof, Devices: devices, Seed: seed, Lazy: true})
	lazy.SetWorkers(3)
	diffWindows(t, "plain",
		collectWindows(t, eager, months, size),
		collectWindows(t, lazy, months, size))
}

// TestLazyMatchesEagerFleetSubset pins the same contract for a
// heterogeneous fleet over a sparse GLOBAL-index subset — the shard
// worker's lazy slice — and additionally checks the compact profile
// assignment agrees with the eager per-device listing.
func TestLazyMatchesEagerFleetSubset(t *testing.T) {
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
	const seed, size = uint64(1234), 3
	indices := []int{1, 4, 5, 9, 12}
	months := []int{0, 3}

	eager, err := NewSimFleetSourceSubset(fleet, seed, p1.NominalScenario(), indices)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := NewLazySimFleetSourceSubset(fleet, seed, p1.NominalScenario(), indices)
	if err != nil {
		t.Fatal(err)
	}
	lazy.SetWorkers(2)

	names, idx := lazy.ProfileAssignment()
	want := eager.DeviceProfileNames()
	if len(idx) != len(want) {
		t.Fatalf("assignment length %d, want %d", len(idx), len(want))
	}
	for d := range idx {
		if names[idx[d]] != want[d] {
			t.Fatalf("device %d assigned %q, eager says %q", d, names[idx[d]], want[d])
		}
	}

	diffWindows(t, "fleet subset",
		collectWindows(t, eager, months, size),
		collectWindows(t, lazy, months, size))
}

// TestLazyPruneSkipsDevices checks pruned devices stop being delivered
// while survivors' bits are untouched by the pruning.
func TestLazyPruneSkipsDevices(t *testing.T) {
	prof, err := silicon.Lookup("fleetnode-1kb")
	if err != nil {
		t.Fatal(err)
	}
	const devices, seed, size = 5, uint64(9), 2

	spec := SimSpec{Profile: prof, Devices: devices, Seed: seed, Lazy: true}
	full := mustOpen[*SimSource](t, spec)
	pruned := mustOpen[*SimSource](t, spec)
	fw := collectWindows(t, full, []int{0}, size)
	pw := collectWindows(t, pruned, []int{0}, size)
	diffWindows(t, "pre-prune", fw, pw)

	if err := pruned.PruneDevices([]int{1, 3}); err != nil {
		t.Fatal(err)
	}
	if got := pruned.Alive(); got != 3 {
		t.Fatalf("Alive() = %d, want 3", got)
	}
	fw2 := collectWindows(t, full, []int{4}, size)
	pw2 := collectWindows(t, pruned, []int{4}, size)
	if len(pw2[4]) != 3 {
		t.Fatalf("pruned source delivered %d devices, want 3", len(pw2[4]))
	}
	for _, d := range []int{0, 2, 4} {
		for i := range fw2[4][d] {
			if !fw2[4][d][i].Equal(pw2[4][d][i]) {
				t.Fatalf("survivor %d window %d changed under pruning", d, i)
			}
		}
	}
	if _, ok := pw2[4][1]; ok {
		t.Fatal("pruned device 1 still delivered")
	}
}

// TestLazySourcesMeasureConcurrently runs two campaigns at once, as the
// service does, over months that need noise jumps, and checks each
// against the same campaign run alone — with lazy chips and with
// resident ones, which age inside the slot workers. Run alone under
// -race it also covers the shared jump table's first growth.
func TestLazySourcesMeasureConcurrently(t *testing.T) {
	prof, err := silicon.Lookup("fleetnode-2kb")
	if err != nil {
		t.Fatal(err)
	}
	const devices, size = 4, 3
	months := []int{0, 1, 5}
	seeds := []uint64{31, 32}
	type collected = map[int]map[int][]*bitvec.Vector
	run := func(seed uint64, lazy bool) (collected, error) {
		src, err := openAs[*SimSource](SimSpec{Profile: prof, Devices: devices, Seed: seed, Lazy: lazy})
		if err != nil {
			return nil, err
		}
		src.SetWorkers(2)
		out := make(collected, len(months))
		var mu sync.Mutex
		for _, m := range months {
			byDev := make(map[int][]*bitvec.Vector)
			err := src.Measure(context.Background(), m, size, func(d int, v *bitvec.Vector) error {
				mu.Lock()
				byDev[d] = append(byDev[d], v.Clone())
				mu.Unlock()
				return nil
			})
			if err != nil {
				return nil, err
			}
			out[m] = byDev
		}
		return out, nil
	}
	for _, lazy := range []bool{true, false} {
		together := make([]collected, len(seeds))
		errs := make([]error, len(seeds))
		var wg sync.WaitGroup
		for i, seed := range seeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				together[i], errs[i] = run(seed, lazy)
			}()
		}
		wg.Wait()
		for i, seed := range seeds {
			if errs[i] != nil {
				t.Fatalf("lazy=%v seed %d: %v", lazy, seed, errs[i])
			}
			alone, err := run(seed, lazy)
			if err != nil {
				t.Fatal(err)
			}
			diffWindows(t, fmt.Sprintf("lazy=%v concurrent vs alone", lazy), alone, together[i])
		}
	}
}

// TestSimSourceRejectsRepeatedMonth: chips age forward only, so
// measuring a month at or before the last measured one is a
// configuration error for resident and lazy chips alike, not a silent
// re-sample.
func TestSimSourceRejectsRepeatedMonth(t *testing.T) {
	prof, err := silicon.Lookup("fleetnode-1kb")
	if err != nil {
		t.Fatal(err)
	}
	for _, lazy := range []bool{false, true} {
		src := mustOpen[*SimSource](t, SimSpec{Profile: prof, Devices: 2, Seed: 3, Lazy: lazy})
		if err := src.Measure(context.Background(), 2, 2, discardSink); err != nil {
			t.Fatal(err)
		}
		for _, month := range []int{2, 1} {
			if err := src.Measure(context.Background(), month, 2, discardSink); !errors.Is(err, ErrConfig) {
				t.Fatalf("lazy=%v: month %d after month 2: err = %v, want ErrConfig", lazy, month, err)
			}
		}
	}
}

// TestSetWorkersKeepsSlots: a shard worker sets the same worker bound
// every month; that must keep the slots' rebuilt chips instead of
// reallocating them.
func TestSetWorkersKeepsSlots(t *testing.T) {
	prof, err := silicon.Lookup("fleetnode-1kb")
	if err != nil {
		t.Fatal(err)
	}
	src := mustOpen[*SimSource](t, SimSpec{Profile: prof, Devices: 4, Seed: 5, Lazy: true})
	src.SetWorkers(2)
	if err := src.Measure(context.Background(), 0, 2, discardSink); err != nil {
		t.Fatal(err)
	}
	// A slot whose worker found no device left builds no chip.
	chips := make([]*sram.Array, len(src.slots))
	for i, sl := range src.slots {
		chips[i] = sl.arrays[0]
	}
	if chips[0] == nil && chips[len(chips)-1] == nil {
		t.Fatal("no slot built a chip")
	}
	src.SetWorkers(2)
	if err := src.Measure(context.Background(), 1, 2, discardSink); err != nil {
		t.Fatal(err)
	}
	if len(src.slots) != len(chips) {
		t.Fatalf("%d slots after the second month, want %d", len(src.slots), len(chips))
	}
	for i, sl := range src.slots {
		if chips[i] != nil && sl.arrays[0] != chips[i] {
			t.Fatalf("slot %d reallocated its chip under an unchanged worker bound", i)
		}
	}
}
