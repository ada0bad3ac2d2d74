package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/silicon"
	"repro/internal/store"
)

// TestResidentLanesMatchLazy holds resident chips, which a slot samples
// up to four at a time in the lanes of one kernel, to lazy chips, which
// it samples one at a time: every device's every window, month by month,
// and every tapped record per board and month. Populations of 1, 3, 4,
// 5 and 16 devices on 1, 2 and 3 workers give full, partial and
// single-device groups; a two-profile fleet mixes profiles within a
// group, and a screened run prunes devices between months so groups
// form over the survivors.
func TestResidentLanesMatchLazy(t *testing.T) {
	prof, err := silicon.Lookup("fleetnode-1kb")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewFleet(prof)
	if err != nil {
		t.Fatal(err)
	}
	mixed := screeningFleet(t)
	type campaign struct {
		fleet   *Fleet
		devices int
		prune   map[int][]int // devices pruned before the i-th month
	}
	cases := map[string]campaign{}
	for _, devices := range []int{1, 3, 4, 5, 16} {
		cases[fmt.Sprintf("plain/%d", devices)] = campaign{fleet: plain, devices: devices}
	}
	cases["two-profile/16"] = campaign{fleet: mixed, devices: 16}
	cases["screened/16"] = campaign{fleet: mixed, devices: 16, prune: map[int][]int{1: {0, 5, 6, 11}, 2: {1, 2, 3, 15}}}
	const seed, window = 41, 4
	months := []int{0, 2, 5}
	for name, c := range cases {
		for workers := 1; workers <= 3; workers++ {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				run := func(lazy bool) (map[int]map[int][]*bitvec.Vector, map[int][]envelope) {
					src := mustOpen[*SimSource](t, SimSpec{Fleet: c.fleet, Devices: c.devices, Seed: seed, Lazy: lazy})
					src.SetWorkers(workers)
					var buf bytes.Buffer
					w := store.NewBinaryWriterV1(&buf)
					src.SetTap(w.Write)
					windows := map[int]map[int][]*bitvec.Vector{}
					for i, m := range months {
						if err := src.PruneDevices(c.prune[i]); err != nil {
							t.Fatal(err)
						}
						var mu sync.Mutex
						byDev := map[int][]*bitvec.Vector{}
						err := src.Measure(context.Background(), m, window, func(d int, v *bitvec.Vector) error {
							mu.Lock()
							defer mu.Unlock()
							byDev[d] = append(byDev[d], v.Clone())
							return nil
						})
						if err != nil {
							t.Fatalf("month %d: %v", m, err)
						}
						windows[m] = byDev
					}
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
					return windows, tappedBoards(t, buf.Bytes())
				}
				residentWindows, residentTap := run(false)
				lazyWindows, lazyTap := run(true)
				diffWindows(t, "resident vs lazy", residentWindows, lazyWindows)
				if !reflect.DeepEqual(residentTap, lazyTap) {
					t.Fatalf("tapped records differ: %s", firstEnvelopeDiff(residentTap, lazyTap))
				}
				alive := c.devices
				for i, m := range months {
					alive -= len(c.prune[i])
					if got := len(residentWindows[m]); got != alive {
						t.Fatalf("month %d: %d devices measured, want %d", m, got, alive)
					}
				}
			})
		}
	}
}
