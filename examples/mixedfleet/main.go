// Mixedfleet: a heterogeneous campaign over two device families at once —
// the paper's ATmega32u4 embedded SRAM next to a cache-line-structured
// large-array profile — through the Fleet API. Every device is assigned
// one of the fleet's profiles deterministically from the campaign seed,
// and each month's MonthEval carries the per-profile breakdown, so the
// two families' reliability trends separate cleanly inside one run.
//
// The example also registers a custom profile (a mildly noisy variant
// built with NewDeviceProfile) to show that registration makes a family
// a first-class citizen: resolvable by name, admissible in fleets, and
// usable from the CLIs' -profile flag.
//
// A second, screened campaign then runs the same fleet with lazy chip
// construction (WithLazy — O(workers) resident arrays, the
// million-device mode) and a stability floor (WithScreening) that
// prunes weak devices between months, printing the survivor count and
// per-profile attrition series.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	sramaging "repro"
)

func main() {
	const devices, months, window = 8, 6, 150
	const screenFloor = 0.87

	// A custom family: the calibrated nominal device, but cache-line
	// structured with correlated within-line mismatch — registered so it
	// is resolvable by name everywhere profiles are named.
	sramaging.RegisterProfile("demo-cacheline", func() (sramaging.DeviceProfile, error) {
		return sramaging.NewDeviceProfile("demo-cacheline",
			sramaging.WithGeometry(16384, 1024),
			sramaging.WithCellModel(sramaging.ModelCorrelated),
			sramaging.WithLineStructure(512, 0.3),
		)
	})

	embedded, err := sramaging.ProfileByName("atmega32u4")
	if err != nil {
		log.Fatal(err)
	}
	cacheline, err := sramaging.ProfileByName("demo-cacheline")
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := sramaging.NewFleet(embedded, cacheline)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("mixed fleet: %d devices over %d profiles, %d months, %d-measurement windows\n\n",
		devices, fleet.Size(), months, window)

	a, err := sramaging.NewAssessment(
		sramaging.WithFleet(fleet),
		sramaging.WithDevices(devices),
		sramaging.WithMonths(months),
		sramaging.WithWindowSize(window),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := a.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	// The per-profile breakdown: each family's average reliability
	// metrics, every month, from the one heterogeneous run.
	fmt.Println("per-profile monthly breakdown:")
	for _, ev := range res.Monthly {
		fmt.Printf("  %s:\n", ev.Label)
		names := make([]string, 0, len(ev.ByProfile))
		for name := range ev.ByProfile {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			pe := ev.ByProfile[name]
			fmt.Printf("    %-16s %d devices  WCHD %.3f%%  HW %.2f%%  stable %.2f%%\n",
				name, pe.Devices, 100*pe.WCHD, 100*pe.FHW, 100*pe.StableRatio)
		}
	}

	fmt.Println()
	fmt.Print(sramaging.RenderTableI(res.Table))

	// The screening variant: the same fleet at population scale. WithLazy
	// derives each chip on demand from (seed, device index) inside a
	// worker slot — resident memory is O(workers × window), so the same
	// code runs a million-device fleet — and WithScreening prunes devices
	// whose stable-cell ratio falls below the floor between months, the
	// design-phase corner-screening workflow. Results are bit-identical
	// to the eager source for any execution shape.
	const screenDevices = 24
	fmt.Println()
	fmt.Printf("screened campaign: %d devices, lazy construction, stability floor %.2f\n",
		screenDevices, screenFloor)
	sa, err := sramaging.NewAssessment(
		sramaging.WithFleet(fleet),
		sramaging.WithDevices(screenDevices),
		sramaging.WithMonths(months),
		sramaging.WithWindowSize(window),
		sramaging.WithLazy(),
		sramaging.WithScreening(screenFloor),
	)
	if err != nil {
		log.Fatal(err)
	}
	sres, err := sa.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, ev := range sres.Monthly {
		fmt.Printf("  %-8s %2d of %d devices surviving", ev.Label, ev.Survivors, screenDevices)
		if len(ev.Pruned) > 0 {
			names := make([]string, 0, len(ev.Attrition))
			for name := range ev.Attrition {
				names = append(names, name)
			}
			sort.Strings(names)
			parts := make([]string, 0, len(names))
			for _, name := range names {
				parts = append(parts, fmt.Sprintf("%s: %d", name, ev.Attrition[name]))
			}
			fmt.Printf("  (pruned %s)", strings.Join(parts, ", "))
		}
		fmt.Println()
	}
}
