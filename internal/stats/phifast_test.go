package stats

import (
	"math"
	"testing"
)

// phiFastUnclamped is PhiFast without the index clamp, as it was first
// written.
func phiFastUnclamped(x float64) float64 {
	if x <= -phiRange {
		return 0
	}
	if x >= phiRange {
		return 1
	}
	f := (x + phiRange) * (float64(phiTableLen-1) / (2 * phiRange))
	i := int(f)
	frac := f - float64(i)
	return phiTable[i] + frac*(phiTable[i+1]-phiTable[i])
}

// TestPhiFastTableEdge pins the one input below phiRange whose index
// rounds onto the last table point: the float just under 9 used to read
// one past the table and panic. Every other input within 2^20 ulps of
// -9, 0 and +9 must give the unclamped formula's value bit for bit.
func TestPhiFastTableEdge(t *testing.T) {
	edge := math.Nextafter(phiRange, 0)
	if got := PhiFast(edge); got != 1 {
		t.Fatalf("PhiFast(%v) = %v, want 1", edge, got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("unclamped formula at %v did not run off the table", edge)
			}
		}()
		phiFastUnclamped(edge)
	}()
	const ulps = 1 << 20
	for _, c := range []float64{-phiRange, 0, phiRange} {
		for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
			x := c
			for n := 0; n <= ulps; n++ {
				if x != edge {
					if got, want := PhiFast(x), phiFastUnclamped(x); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("PhiFast(%v) = %v, unclamped formula %v", x, got, want)
					}
				}
				x = math.Nextafter(x, dir)
			}
		}
	}
}

// FuzzPhiFast checks PhiFast on any input: it never panics, gives NaN
// for NaN, stays in [0, 1] otherwise, is within phiFastErr of Phi inside
// (-9, 9) and saturates to exactly 0 or 1 outside, infinities included.
func FuzzPhiFast(f *testing.F) {
	for _, x := range []float64{
		0, 1, -1, 8.999, -8.999, phiRange, -phiRange,
		math.Nextafter(phiRange, 0), math.Nextafter(-phiRange, 0),
		math.Nextafter(phiRange, 10), math.Nextafter(-phiRange, -10),
		1e300, -1e300, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(-1), math.Inf(1),
	} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		got := PhiFast(x)
		if math.IsNaN(x) {
			if !math.IsNaN(got) {
				t.Fatalf("PhiFast(NaN) = %v, want NaN", got)
			}
			return
		}
		if !(got >= 0 && got <= 1) {
			t.Fatalf("PhiFast(%v) = %v outside [0, 1]", x, got)
		}
		switch {
		case x <= -phiRange:
			if got != 0 {
				t.Fatalf("PhiFast(%v) = %v, want 0", x, got)
			}
		case x >= phiRange:
			if got != 1 {
				t.Fatalf("PhiFast(%v) = %v, want 1", x, got)
			}
		default:
			if d := math.Abs(got - Phi(x)); d > phiFastErr {
				t.Fatalf("PhiFast(%v) = %v, Phi = %v, error %v > %v", x, got, Phi(x), d, phiFastErr)
			}
		}
	})
}

// phiFastErr is the absolute error bound of PhiFast inside
// [-phiRange, phiRange].
const phiFastErr = 1e-7
