// Package stats provides the small statistical toolbox shared by the
// simulator and the evaluation pipeline: histograms, the standard normal
// CDF and its inverse, binomial helpers and the relative/monthly change
// computations used in Table I of the paper.
package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bin histogram over [Lo, Hi). Samples outside the
// range are counted in Under/Over.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int
	Over   int
	total  int
}

// NewHistogram creates a histogram with nbins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, nbins int) (*Histogram, error) {
	if nbins <= 0 {
		return nil, fmt.Errorf("stats: nbins must be positive, got %d", nbins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: invalid histogram range [%v,%v)", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}, nil
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.total++
	if x < h.Lo {
		h.Under++
		return
	}
	if x >= h.Hi {
		h.Over++
		return
	}
	i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i == len(h.Counts) { // guard rounding at the top edge
		i--
	}
	h.Counts[i]++
}

// Total returns the number of samples recorded, including out-of-range ones.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Fractions returns each bin's share of the total sample count (in percent
// when scale=100, or as a fraction when scale=1).
func (h *Histogram) Fractions(scale float64) []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = scale * float64(c) / float64(h.total)
	}
	return out
}

// Phi returns the standard normal cumulative distribution function.
func Phi(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// PhiInv returns the inverse of the standard normal CDF (the probit
// function), computed with Acklam's rational approximation refined by one
// Halley step. Accuracy is better than 1e-12 over (0,1). It returns
// +/-Inf at the endpoints and NaN outside [0,1].
func PhiInv(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}
	// Coefficients for Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := Phi(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// LogChoose returns ln(n choose k) computed via lgamma.
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk - lnk
}

// BinomialPMF returns P[X = k] for X ~ Binomial(n, p).
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	logp := LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(logp)
}

// RelativeChange returns (end-start)/start. Matches the "Relative Change"
// column of Table I in the paper.
func RelativeChange(start, end float64) float64 {
	if start == 0 {
		return math.NaN()
	}
	return (end - start) / start
}

// MonthlyChange returns the constant per-month geometric rate r such that
// start*(1+r)^months == end. Matches the "Monthly Change" column of
// Table I in the paper (e.g. WCHD 2.49% -> 2.97% over 24 months gives
// +0.74%/month).
func MonthlyChange(start, end float64, months int) float64 {
	if start <= 0 || end <= 0 || months <= 0 {
		return math.NaN()
	}
	return math.Pow(end/start, 1/float64(months)) - 1
}
