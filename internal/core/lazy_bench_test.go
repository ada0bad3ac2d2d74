package core

import (
	"context"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/silicon"
)

// BenchmarkFleetScreening100k is the fleet-scale memory benchmark, gated
// in CI against BENCH_baseline.json: one screened assessment step of a
// 100 000-device mixed fleet through the lazy source — measure a month,
// prune the odd half (a screening decision), measure the next month over
// the survivors. The gated quantity is bytes/op: the lazy source keeps
// O(slots × profiles × window) chip state plus ~10 bytes of per-device
// metadata (index, profile byte, pruned flag), so the whole op allocates
// a few MB where the eager source's up-front arrays would be O(devices ×
// window). A regression that materialises per-device state shows up here
// as a bytes/op and allocs/op explosion long before anyone runs the
// million-device campaign.
//
// The fleet mixes both registered cell models on a deliberately tiny
// geometry (16-byte read windows): rebuild cost scales with window bits
// × devices and would push a fleetnode-sized population past CI budgets,
// while the memory property under gate — array state O(slots), metadata
// O(devices) — is independent of the window size.
func BenchmarkFleetScreening100k(b *testing.B) {
	small, err := silicon.NewProfile("bench-iid",
		silicon.WithGeometry(32, 16))
	if err != nil {
		b.Fatal(err)
	}
	large, err := silicon.NewProfile("bench-corr",
		silicon.WithGeometry(32, 16),
		silicon.WithCellModel(silicon.ModelCorrelated),
		silicon.WithLineStructure(64, 0.3))
	if err != nil {
		b.Fatal(err)
	}
	fleet, err := NewFleet(small, large)
	if err != nil {
		b.Fatal(err)
	}
	const devices = 100_000
	prune := make([]int, 0, devices/2)
	for d := 1; d < devices; d += 2 {
		prune = append(prune, d)
	}
	discard := Sink(func(int, *bitvec.Vector) error { return nil })
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := openAs[*SimSource](SimSpec{Fleet: fleet, Devices: devices, Seed: 42, Lazy: true})
		if err != nil {
			b.Fatal(err)
		}
		src.SetWorkers(4)
		if err := src.Measure(ctx, 0, 2, discard); err != nil {
			b.Fatal(err)
		}
		if err := src.PruneDevices(prune); err != nil {
			b.Fatal(err)
		}
		if err := src.Measure(ctx, 1, 2, discard); err != nil {
			b.Fatal(err)
		}
	}
}
