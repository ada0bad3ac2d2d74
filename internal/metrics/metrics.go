// Package metrics computes the Hamming-space PUF quality metrics of the
// paper's evaluation (§IV): within-class Hamming distance (reliability),
// between-class Hamming distance (uniqueness) and fractional Hamming
// weight (bias), over sets of measured power-up patterns.
package metrics

import (
	"errors"
	"fmt"

	"repro/internal/bitvec"
)

// ErrNoMeasurements is returned when an evaluation is attempted on an
// empty measurement set.
var ErrNoMeasurements = errors.New("metrics: no measurements")

// WithinClass evaluates the reliability of one device: the fractional
// Hamming distance of every measurement against the device's reference
// pattern (the first-ever read-out, per §IV-B1).
type WithinClass struct {
	PerMeasurement []float64 // FHD of each measurement vs the reference
	Mean           float64
	Max            float64
}

// WithinClassHD computes WCHD of measurements against ref.
func WithinClassHD(ref *bitvec.Vector, measurements []*bitvec.Vector) (WithinClass, error) {
	if ref == nil {
		return WithinClass{}, errors.New("metrics: nil reference")
	}
	if len(measurements) == 0 {
		return WithinClass{}, ErrNoMeasurements
	}
	out := WithinClass{PerMeasurement: make([]float64, len(measurements))}
	sum := 0.0
	for i, m := range measurements {
		f, err := ref.FractionalHammingDistance(m)
		if err != nil {
			return WithinClass{}, fmt.Errorf("metrics: measurement %d: %w", i, err)
		}
		out.PerMeasurement[i] = f
		sum += f
		if f > out.Max {
			out.Max = f
		}
	}
	out.Mean = sum / float64(len(measurements))
	return out, nil
}

// BetweenClass evaluates uniqueness across devices: the fractional Hamming
// distance between the reference patterns of every device pair (§IV-B2).
type BetweenClass struct {
	Pairwise []float64 // FHD of each unordered pair, row-major order
	Mean     float64
	Min      float64
	Max      float64
}

// BetweenClassHD computes BCHD over one reference pattern per device.
func BetweenClassHD(refs []*bitvec.Vector) (BetweenClass, error) {
	if len(refs) < 2 {
		return BetweenClass{}, fmt.Errorf("metrics: BCHD needs >= 2 devices, got %d", len(refs))
	}
	out := BetweenClass{Min: 1}
	sum := 0.0
	for i := 0; i < len(refs); i++ {
		for j := i + 1; j < len(refs); j++ {
			f, err := refs[i].FractionalHammingDistance(refs[j])
			if err != nil {
				return BetweenClass{}, fmt.Errorf("metrics: pair (%d,%d): %w", i, j, err)
			}
			out.Pairwise = append(out.Pairwise, f)
			sum += f
			if f < out.Min {
				out.Min = f
			}
			if f > out.Max {
				out.Max = f
			}
		}
	}
	out.Mean = sum / float64(len(out.Pairwise))
	return out, nil
}

// Weight evaluates the bias of a measurement set: the fractional Hamming
// weight of each pattern (§IV-A3).
type Weight struct {
	PerMeasurement []float64
	Mean           float64
}

// FractionalHW computes the FHW statistics of a measurement set.
func FractionalHW(measurements []*bitvec.Vector) (Weight, error) {
	if len(measurements) == 0 {
		return Weight{}, ErrNoMeasurements
	}
	out := Weight{PerMeasurement: make([]float64, len(measurements))}
	sum := 0.0
	for i, m := range measurements {
		f := m.FractionalHammingWeight()
		out.PerMeasurement[i] = f
		sum += f
	}
	out.Mean = sum / float64(len(measurements))
	return out, nil
}
