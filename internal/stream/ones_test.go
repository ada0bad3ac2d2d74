package stream

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/entropy"
	"repro/internal/rng"
)

// onesCounts decodes every cell's one-count from the accumulator's
// bit-sliced planes.
func onesCounts(a *Ones) []int {
	counts := make([]int, a.cells)
	for i := range counts {
		counts[i] = a.cellCount(i)
	}
	return counts
}

// mixedWindow builds n measurements of the given width whose cells cycle
// through five kinds: stuck at 0, stuck at 1, 1 in all but one
// measurement, fair coin, and rarely 1. Every count class the planes must
// decode is present: 0, n, n−1 and counts spread in between.
func mixedWindow(seed uint64, cells, n int, rare float64) []*bitvec.Vector {
	r := rng.New(seed)
	miss := make([]int, cells) // measurement where an all-but-one cell reads 0
	for i := range miss {
		miss[i] = r.Intn(n)
	}
	out := make([]*bitvec.Vector, n)
	for k := range out {
		m := bitvec.New(cells)
		for i := 0; i < cells; i++ {
			var one bool
			switch i % 5 {
			case 1:
				one = true
			case 2:
				one = k != miss[i]
			case 3:
				one = r.Bernoulli(0.5)
			case 4:
				one = r.Bernoulli(rare)
			}
			m.Set(i, one)
		}
		out[k] = m
	}
	return out
}

// checkOnesMatchesOracle compares the accumulator, after it consumed
// window, with the batch oracle in internal/entropy bit for bit.
func checkOnesMatchesOracle(t *testing.T, label string, ones *Ones, window []*bitvec.Vector) {
	t.Helper()
	counts, n, err := entropy.OneCounts(window)
	if err != nil {
		t.Fatal(err)
	}
	if ones.Count() != n {
		t.Fatalf("%s: count %d, want %d", label, ones.Count(), n)
	}
	for i, c := range onesCounts(ones) {
		if c != counts[i] {
			t.Fatalf("%s: cell %d count %d, want %d", label, i, c, counts[i])
		}
	}
	want, err := entropy.ProbabilitiesFromCounts(counts, n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ones.Probabilities()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d probabilities, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: probability[%d] %v, want %v", label, i, got[i], want[i])
		}
	}
	hWant, err := entropy.NoiseMinEntropy(want)
	if err != nil {
		t.Fatal(err)
	}
	if h, err := ones.NoiseMinEntropy(); err != nil || h != hWant {
		t.Fatalf("%s: noise min-entropy %v (%v), want %v", label, h, err, hWant)
	}
	rWant, err := entropy.StableCellRatio(counts, n)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := ones.StableRatio(); err != nil || r != rWant {
		t.Fatalf("%s: stable ratio %v (%v), want %v", label, r, err, rWant)
	}
	mask, err := ones.StableMask()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if mask.Get(i) != (c == 0 || c == n) {
			t.Fatalf("%s: stable mask bit %d is %v for count %d of %d", label, i, mask.Get(i), c, n)
		}
	}
}

// TestOnesMatchesOneCounts pins the bit-sliced accumulator to the batch
// oracle at window sizes around every power of two it crosses, around
// the low planes' flushes every 15 adds, at the 16-plane reservation's
// boundary, and at cell counts that are not a multiple of 64. Window 49
// is one where n·(1/n) rounds below 1, so cells that read 1 every time
// add a nonzero noise term.
func TestOnesMatchesOneCounts(t *testing.T) {
	checkpoints := map[int]bool{
		1: true, 2: true, 3: true, 14: true, 15: true, 16: true, 29: true, 30: true, 31: true,
		49: true, 255: true, 256: true, 1023: true, 1024: true,
	}
	if n := 49.0; n*(1/n) == 1 {
		t.Fatal("window 49 no longer exercises a nonzero full-count term")
	}
	for _, cells := range []int{1, 63, 65, 130, 200} {
		window := mixedWindow(uint64(cells), cells, 1024, 0.01)
		ones := NewOnes()
		for k, m := range window {
			if err := ones.Add(m); err != nil {
				t.Fatal(err)
			}
			if checkpoints[k+1] {
				checkOnesMatchesOracle(t, fmt.Sprintf("cells %d window %d", cells, k+1), ones, window[:k+1])
			}
		}
		// A read flushes the low planes, so the loop above shifts the
		// flush cadence after its first checkpoint. Windows read only at
		// their end keep it: a flush falls at 15 and 30 adds.
		for _, n := range []int{14, 15, 16, 29, 30, 31, 49} {
			ones := NewOnes()
			if err := feed(window[:n], ones); err != nil {
				t.Fatal(err)
			}
			checkOnesMatchesOracle(t, fmt.Sprintf("cells %d window %d read once", cells, n), ones, window[:n])
		}
	}

	// 65,535 adds fill the 16 reserved planes; the 65,536th appends one.
	const cells = 70
	window := mixedWindow(99, cells, 1<<16, 0.001)
	ones := NewOnes()
	for k, m := range window {
		if err := ones.Add(m); err != nil {
			t.Fatal(err)
		}
		switch k + 1 {
		case 1<<16 - 1:
			if planes := len(ones.planes) / ones.words; planes != reservedPlanes {
				t.Fatalf("%d planes after 65,535 adds, want %d", planes, reservedPlanes)
			}
			checkOnesMatchesOracle(t, "window 65535", ones, window[:k+1])
		case 1 << 16:
			if planes := len(ones.planes) / ones.words; planes != reservedPlanes+1 {
				t.Fatalf("%d planes after 65,536 adds, want %d", planes, reservedPlanes+1)
			}
			checkOnesMatchesOracle(t, "window 65536", ones, window)
		}
	}
}

// FuzzOnesMatchesOneCounts drives the bit-sliced accumulator with random
// windows, widths and densities against the batch oracle.
func FuzzOnesMatchesOneCounts(f *testing.F) {
	f.Add(uint64(1), uint16(1), uint16(1), uint8(3))
	f.Add(uint64(2), uint16(63), uint16(256), uint8(0))
	f.Add(uint64(3), uint16(65), uint16(255), uint8(255))
	f.Add(uint64(4), uint16(129), uint16(1023), uint8(40))
	f.Fuzz(func(t *testing.T, seed uint64, cells, n uint16, rare uint8) {
		c := 1 + int(cells)%300
		w := 1 + int(n)%1100
		window := mixedWindow(seed, c, w, float64(rare)/255)
		ones := NewOnes()
		if err := feed(window, ones); err != nil {
			t.Fatal(err)
		}
		checkOnesMatchesOracle(t, "fuzz", ones, window)
	})
}

// FuzzDeviceMatchesAccumulators drives the fused device accumulator and
// separate WCHD, FHW and Ones accumulators with the same random window,
// against an adopted or a supplied reference, and requires every result
// field to agree bit for bit.
func FuzzDeviceMatchesAccumulators(f *testing.F) {
	f.Add(uint64(1), uint16(1), uint16(1), uint8(3), false)
	f.Add(uint64(2), uint16(64), uint16(15), uint8(0), true)
	f.Add(uint64(3), uint16(65), uint16(49), uint8(255), false)
	f.Add(uint64(4), uint16(200), uint16(1000), uint8(40), true)
	f.Fuzz(func(t *testing.T, seed uint64, cells, n uint16, rare uint8, supply bool) {
		c := 1 + int(cells)%300
		w := 1 + int(n)%1100
		window := mixedWindow(seed, c, w, float64(rare)/255)
		var given *bitvec.Vector
		ref := window[0].Clone()
		if supply {
			given = mixedWindow(^seed, c, 1, 0.5)[0]
			ref = given
		}
		dev := NewDevice(given)
		wchd, err := NewWCHD(ref)
		if err != nil {
			t.Fatal(err)
		}
		fhw, ones := NewFHW(), NewOnes()
		if err := feed(window, dev, wchd, fhw, ones); err != nil {
			t.Fatal(err)
		}
		got, err := dev.Result()
		if err != nil {
			t.Fatal(err)
		}
		var want DeviceResult
		var errs [5]error
		want.WCHDMean, errs[0] = wchd.Mean()
		want.WCHDMax, errs[1] = wchd.Max()
		want.FHW, errs[2] = fhw.Mean()
		want.NoiseHmin, errs[3] = ones.NoiseMinEntropy()
		want.StableRatio, errs[4] = ones.StableRatio()
		want.Count = ones.Count()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range []struct {
			name      string
			got, want float64
		}{
			{"WCHDMean", got.WCHDMean, want.WCHDMean},
			{"WCHDMax", got.WCHDMax, want.WCHDMax},
			{"FHW", got.FHW, want.FHW},
			{"NoiseHmin", got.NoiseHmin, want.NoiseHmin},
			{"StableRatio", got.StableRatio, want.StableRatio},
		} {
			if math.Float64bits(p.got) != math.Float64bits(p.want) {
				t.Fatalf("%s: device %v, accumulators %v", p.name, p.got, p.want)
			}
		}
		if got.Count != want.Count || !dev.Ref().Equal(ref) || !dev.First().Equal(window[0]) {
			t.Fatalf("count %d (want %d) or reference/first differ", got.Count, want.Count)
		}
	})
}
