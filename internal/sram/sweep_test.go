package sram

import (
	"math"
	"testing"

	"repro/internal/aging"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/stats"
)

// shifts returns a's five aging-state slices, allocating them zeroed on
// an unaged array, so the reference loops below read and write the
// fields directly as AgeTo first did.
func shifts(a *Array) (dP1, dP2, dN1, dN2, dDisp []float64) {
	a.allocShifts()
	return a.dP1, a.dP2, a.dN1, a.dN2, a.dDisp
}

// refSkew is the per-cell skew sum as Skew first spelled it out.
func refSkew(a *Array, i int) float64 {
	dP1, dP2, dN1, dN2, dDisp := shifts(a)
	return a.static[i] + (dP2[i] - dP1[i]) + (dN1[i] - dN2[i]) + dDisp[i]
}

// refAgeTo is the aging loop in its per-cell form: every cell reads its
// skew through the Array's fields, divides by the noise scale, takes
// PhiFast and adds the increments Resolve computes for it.
func refAgeTo(a *Array, months float64) {
	k := a.kin
	total := k.DriftIncrement(a.ageMonths, months)
	if total > 0 {
		steps := int(math.Ceil(total / maxDriftStep))
		h := total / float64(steps)
		b := a.disp
		dP1, dP2, dN1, dN2, dDisp := shifts(a)
		for s := 0; s < steps; s++ {
			for i := range a.static {
				q := stats.PhiFast(refSkew(a, i) / a.noiseScale)
				inc := k.Resolve(q, h)
				dP1[i] += inc.P1
				dP2[i] += inc.P2
				dN1[i] += inc.N1
				dN2[i] += inc.N2
				dDisp[i] += b * a.gamma[i] * h
			}
		}
	}
	a.ageMonths = months
}

// TestAgeSweepMatchesReference pins AgeTo's sweep and the threshold
// rebuild to the per-cell loop bit for bit: transistor shifts, skews and
// Bernoulli thresholds, for the i.i.d. and the cache-line-correlated cell
// model, at the nominal noise scale (where the division by 1 is skipped)
// and at a hot corner (where it is kept).
func TestAgeSweepMatchesReference(t *testing.T) {
	for _, name := range []string{"atmega32u4", "fleetnode-2kb"} {
		nominal, err := silicon.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		hot, err := nominal.At(aging.HotCorner)
		if err != nil {
			t.Fatal(err)
		}
		if hot.NoiseScale() == 1 {
			t.Fatalf("%s: hot-corner noise scale is 1", name)
		}
		for _, tc := range []struct {
			p     silicon.DeviceProfile
			scale float64
		}{{nominal, 1}, {hot, hot.NoiseScale()}} {
			p, scale := tc.p, tc.scale
			a, err := New(p, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(p, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []*Array{a, ref} {
				if err := x.SetNoiseScale(scale); err != nil {
					t.Fatal(err)
				}
			}
			for _, month := range []float64{0.5, 1, 24} {
				if err := a.AgeTo(month); err != nil {
					t.Fatal(err)
				}
				refAgeTo(ref, month)
				thresh := a.thresholds()
				for i := 0; i < a.Cells(); i++ {
					if got, want := a.TransistorShifts(i), ref.TransistorShifts(i); !sameBits(got, want) {
						t.Fatalf("%s scale %v month %v cell %d: shifts %+v, want %+v", name, scale, month, i, got, want)
					}
					if got, want := a.Skew(i), refSkew(ref, i); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s scale %v month %v cell %d: skew %v, want %v", name, scale, month, i, got, want)
					}
					want := rng.BernoulliThreshold(stats.PhiFast(refSkew(ref, i) / ref.noiseScale))
					if thresh[i] != want {
						t.Fatalf("%s scale %v month %v cell %d: threshold %d, want %d", name, scale, month, i, thresh[i], want)
					}
				}
			}
		}
	}
}

func sameBits(x, y aging.TransistorIncrements) bool {
	return math.Float64bits(x.P1) == math.Float64bits(y.P1) &&
		math.Float64bits(x.P2) == math.Float64bits(y.P2) &&
		math.Float64bits(x.N1) == math.Float64bits(y.N1) &&
		math.Float64bits(x.N2) == math.Float64bits(y.N2)
}
