// Package entropy implements the paper's min-entropy estimators (§IV-B4,
// §IV-C) over measured power-up patterns:
//
//   - one-probability maps and stable-cell classification (§IV-C1),
//   - noise min-entropy: randomness of repeated power-ups of ONE device
//     (§IV-C2) — the TRNG quality measure,
//   - PUF min-entropy: unpredictability of one bit ACROSS devices
//     (§IV-B4) — the uniqueness measure.
package entropy

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitvec"
)

// ErrNoMeasurements is returned for empty measurement sets.
var ErrNoMeasurements = errors.New("entropy: no measurements")

// OneCounts returns, for every bit position, the number of measurements
// in which that bit was 1, plus the measurement count — the exact integer
// layer every probability-based estimator derives from.
func OneCounts(measurements []*bitvec.Vector) ([]int, int, error) {
	if len(measurements) == 0 {
		return nil, 0, ErrNoMeasurements
	}
	n := measurements[0].Len()
	counts := make([]int, n)
	for mi, m := range measurements {
		if m.Len() != n {
			return nil, 0, fmt.Errorf("entropy: measurement %d has %d bits, want %d", mi, m.Len(), n)
		}
		for wi, w := range m.Words() {
			base := wi * 64
			for ; w != 0; w &= w - 1 {
				counts[base+bits.TrailingZeros64(w)]++
			}
		}
	}
	return counts, len(measurements), nil
}

// ProbabilitiesFromCounts converts per-cell one-counts over n measurements
// into empirical one-probabilities, with the pipeline's canonical rounding
// (count times reciprocal) that the streaming accumulators replicate.
func ProbabilitiesFromCounts(counts []int, n int) ([]float64, error) {
	if n <= 0 {
		return nil, ErrNoMeasurements
	}
	probs := make([]float64, len(counts))
	inv := 1 / float64(n)
	for i, c := range counts {
		probs[i] = float64(c) * inv
	}
	return probs, nil
}

// OneProbabilities returns, for every bit position, the fraction of
// measurements in which that bit was 1 (the empirical one-probability
// p_i = Pr[R_i = 1] of §IV-C1).
func OneProbabilities(measurements []*bitvec.Vector) ([]float64, error) {
	counts, n, err := OneCounts(measurements)
	if err != nil {
		return nil, err
	}
	return ProbabilitiesFromCounts(counts, n)
}

// StableCellRatio returns the fraction of stable cells: cells whose
// one-count over the n-measurement window is exactly 0 or exactly n — the
// paper's definition of a stable cell over one evaluation window
// (§IV-C1). It compares integer counts, never rounded probabilities: the
// historical float test `p == 0 || p == 1` missed fully-stable cells for
// window sizes n where float64(n)*(1/float64(n)) != 1 (e.g. n = 49).
func StableCellRatio(counts []int, n int) (float64, error) {
	if len(counts) == 0 || n <= 0 {
		return 0, ErrNoMeasurements
	}
	stable := 0
	for _, c := range counts {
		if c == 0 || c == n {
			stable++
		}
	}
	return float64(stable) / float64(len(counts)), nil
}

// NoiseMinEntropy returns the average per-bit noise min-entropy
// (H_min,noise)_avg = (1/n) sum_i -log2(max(p_i, 1-p_i))
// computed from empirical one-probabilities (§IV-C2). Fully stable cells
// contribute zero.
func NoiseMinEntropy(oneProbs []float64) (float64, error) {
	if len(oneProbs) == 0 {
		return 0, ErrNoMeasurements
	}
	sum := 0.0
	for _, p := range oneProbs {
		m := p
		if 1-p > m {
			m = 1 - p
		}
		if m < 1 {
			sum += -math.Log2(m)
		}
	}
	return sum / float64(len(oneProbs)), nil
}

// PUFMinEntropy returns the average per-bit PUF min-entropy
// (H_min,PUF)_avg = (1/n) sum_i -log2(max(p_i0, p_i1)) where the bit
// probabilities are estimated ACROSS devices from one pattern per device
// (§IV-B4). It needs at least two devices.
func PUFMinEntropy(patterns []*bitvec.Vector) (float64, error) {
	if len(patterns) < 2 {
		return 0, fmt.Errorf("entropy: PUF entropy needs >= 2 devices, got %d", len(patterns))
	}
	probs, err := OneProbabilities(patterns)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, p := range probs {
		m := p
		if 1-p > m {
			m = 1 - p
		}
		if m < 1 {
			sum += -math.Log2(m)
		}
	}
	return sum / float64(len(probs)), nil
}
