package sram

import (
	"math"
	"testing"
)

// TestNonMonotonicSkewTrajectory verifies the paper's §IV-D observation:
// the skew magnitude |Vth,P2 - Vth,P1| is NOT monotone over aging. A
// fully-skewed cell first drifts toward metastability; once it starts
// powering up in the other state, the stress reverses and the drift slows
// or turns around. With aging-rate dispersion some cells cross
// metastability entirely and their |skew| grows again on the other side.
func TestNonMonotonicSkewTrajectory(t *testing.T) {
	a := testArray(t, 30)

	// Record every cell's |skew| trajectory over 24 monthly steps.
	n := a.Cells()
	prevAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		prevAbs[i] = math.Abs(a.Skew(i))
	}
	decreasedThenIncreased := 0
	direction := make([]int8, n) // -1 once a decrease was seen
	for m := 1; m <= 24; m++ {
		if err := a.AgeTo(float64(m)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			abs := math.Abs(a.Skew(i))
			switch {
			case abs < prevAbs[i]-1e-9:
				direction[i] = -1
			case abs > prevAbs[i]+1e-9 && direction[i] == -1:
				direction[i] = 1
			}
			prevAbs[i] = abs
		}
	}
	for i := 0; i < n; i++ {
		if direction[i] == 1 {
			decreasedThenIncreased++
		}
	}
	// With dispersion B ~ 2 a substantial share of cells must show the
	// decrease-then-increase signature.
	if decreasedThenIncreased < n/100 {
		t.Fatalf("only %d/%d cells show non-monotonic |skew| — §IV-D behaviour missing", decreasedThenIncreased, n)
	}
}

// TestSomeCellsCrossMetastability verifies that aging with rate dispersion
// produces permanent preference flips — the mechanism that lets WCHD keep
// growing without noise entropy growing at the same relative rate.
func TestSomeCellsCrossMetastability(t *testing.T) {
	a := testArray(t, 31)
	n := a.Cells()
	signBefore := make([]bool, n)
	strong := make([]bool, n)
	for i := 0; i < n; i++ {
		s := a.Skew(i)
		signBefore[i] = s > 0
		strong[i] = math.Abs(s) > 1 // clearly skewed at start
	}
	if err := a.AgeTo(24); err != nil {
		t.Fatal(err)
	}
	crossed := 0
	for i := 0; i < n; i++ {
		if strong[i] && (a.Skew(i) > 0) != signBefore[i] {
			crossed++
		}
	}
	if crossed == 0 {
		t.Fatal("no initially-skewed cell crossed metastability in 24 months")
	}
	// But the vast majority must NOT cross (HW stays constant).
	if crossed > n/20 {
		t.Fatalf("%d/%d cells crossed — far too many, HW would visibly drift", crossed, n)
	}
}

// TestAgingSlowsDown verifies the decelerating monthly change of §IV-D:
// the first year moves the WCHD-relevant drift more than the second year.
func TestAgingSlowsDown(t *testing.T) {
	a := testArray(t, 32)
	driftTo := func(month float64) float64 {
		return a.profile.Kinetics.CumulativeDrift(month)
	}
	year1 := driftTo(12) - driftTo(0)
	year2 := driftTo(24) - driftTo(12)
	if year2 >= year1 {
		t.Fatalf("aging did not decelerate: year1 %v, year2 %v", year1, year2)
	}
}
