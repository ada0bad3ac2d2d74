package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.05, 0.15, 0.15, 0.95, -1, 2} {
		h.Add(x)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[9] != 1 {
		t.Fatalf("Counts = %v", h.Counts)
	}
	if h.Under != 1 || h.Over != 1 {
		t.Fatalf("Under/Over = %d/%d", h.Under, h.Over)
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d", h.Total())
	}
	if !almostEqual(h.BinCenter(0), 0.05, 1e-12) {
		t.Fatalf("BinCenter(0) = %v", h.BinCenter(0))
	}
	fr := h.Fractions(100)
	if !almostEqual(fr[1], 100.0*2/6, 1e-9) {
		t.Fatalf("Fractions = %v", fr)
	}
}

func TestHistogramEdgeSample(t *testing.T) {
	h, _ := NewHistogram(0, 1, 4)
	h.Add(math.Nextafter(1, 0)) // just below Hi
	if h.Counts[3] != 1 {
		t.Fatalf("top-edge sample landed in %v", h.Counts)
	}
	h.Add(1) // exactly Hi counts as Over
	if h.Over != 1 {
		t.Fatalf("Hi sample not counted as Over")
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Fatal("nbins=0 accepted")
	}
	if _, err := NewHistogram(1, 0, 4); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestPhiKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{2, 0.9772498680518208},
		{3, 0.9986501019683699},
	}
	for _, c := range cases {
		if got := Phi(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Phi(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestPhiInvRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-10, 1e-5, 0.01, 0.1, 0.3, 0.5, 0.627, 0.9, 0.999, 1 - 1e-10} {
		x := PhiInv(p)
		back := Phi(x)
		if !almostEqual(back, p, 1e-10) {
			t.Errorf("Phi(PhiInv(%v)) = %v", p, back)
		}
	}
	if !math.IsInf(PhiInv(0), -1) || !math.IsInf(PhiInv(1), 1) {
		t.Error("PhiInv endpoints wrong")
	}
	if !math.IsNaN(PhiInv(-0.1)) || !math.IsNaN(PhiInv(1.1)) {
		t.Error("PhiInv out-of-range not NaN")
	}
}

func TestPhiInvPhiProperty(t *testing.T) {
	f := func(raw float64) bool {
		// Map raw to a safe open interval.
		p := 0.5 + 0.499999*math.Tanh(raw)
		x := PhiInv(p)
		return almostEqual(Phi(x), p, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLogChoose(t *testing.T) {
	if got := LogChoose(5, 2); !almostEqual(got, math.Log(10), 1e-12) {
		t.Fatalf("LogChoose(5,2) = %v, want ln 10", got)
	}
	if !math.IsInf(LogChoose(5, 6), -1) {
		t.Fatal("LogChoose(5,6) should be -Inf")
	}
}

func TestBinomialPMF(t *testing.T) {
	// Bin(4, 0.5): P[k=2] = 6/16.
	if got := BinomialPMF(4, 2, 0.5); !almostEqual(got, 0.375, 1e-12) {
		t.Fatalf("BinomialPMF(4,2,0.5) = %v", got)
	}
	// Sums to 1.
	sum := 0.0
	for k := 0; k <= 16; k++ {
		sum += BinomialPMF(16, k, 0.627)
	}
	if !almostEqual(sum, 1, 1e-10) {
		t.Fatalf("PMF sum = %v", sum)
	}
	if BinomialPMF(4, -1, 0.5) != 0 || BinomialPMF(4, 5, 0.5) != 0 {
		t.Fatal("out-of-support PMF not zero")
	}
	if BinomialPMF(4, 0, 0) != 1 || BinomialPMF(4, 4, 1) != 1 {
		t.Fatal("degenerate p handling wrong")
	}
}

func TestRelativeChange(t *testing.T) {
	// Paper Table I: WCHD 2.49% -> 2.97% is +19.3%.
	rc := RelativeChange(0.0249, 0.0297)
	if !almostEqual(rc, 0.1928, 0.0005) {
		t.Fatalf("RelativeChange = %v, want ~0.193", rc)
	}
	if !math.IsNaN(RelativeChange(0, 1)) {
		t.Fatal("RelativeChange(0,·) should be NaN")
	}
}

func TestMonthlyChange(t *testing.T) {
	// Paper Table I: +19.3% over 24 months is +0.74%/month.
	mc := MonthlyChange(0.0249, 0.0297, 24)
	if !almostEqual(mc, 0.0074, 0.0002) {
		t.Fatalf("MonthlyChange = %v, want ~0.0074", mc)
	}
	// Accelerated baseline: 5.3% -> 7.2% over 24 months is ~1.28%/month.
	mcAccel := MonthlyChange(0.053, 0.072, 24)
	if !almostEqual(mcAccel, 0.0128, 0.0002) {
		t.Fatalf("accelerated MonthlyChange = %v, want ~0.0128", mcAccel)
	}
	if !math.IsNaN(MonthlyChange(0, 1, 12)) || !math.IsNaN(MonthlyChange(1, 2, 0)) {
		t.Fatal("degenerate MonthlyChange should be NaN")
	}
}

func TestMonthlyChangeInvertsRelative(t *testing.T) {
	f := func(rawStart, rawRate float64) bool {
		start := 0.01 + math.Abs(math.Mod(rawStart, 1))
		rate := 0.001 + math.Abs(math.Mod(rawRate, 0.02))
		end := start * math.Pow(1+rate, 24)
		got := MonthlyChange(start, end, 24)
		return almostEqual(got, rate, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
