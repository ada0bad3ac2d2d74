// Package debias removes the bias of PUF responses (paper §II-A1: the
// measured SRAMs have ~62.7% ones; secure key generation requires
// removing that bias, see Maes et al., CHES 2015, paper ref [14]) by
// index-based selection: it keeps a fixed subset of bit positions
// chosen at enrollment (the helper-data-friendly scheme).
package debias

import (
	"errors"
	"fmt"

	"repro/internal/bitvec"
)

// ErrNilInput is returned when a debiasing primitive is handed a nil
// vector. The bitvec accessors would otherwise panic deep inside the
// extractor, which is the wrong failure mode for data-driven callers.
var ErrNilInput = errors.New("debias: nil input vector")

// IndexSelection is the helper-data-friendly debiasing scheme: enrollment
// chooses a subset of bit positions whose selection pattern is stored as
// (public) helper data; reconstruction reads the same positions. Choosing
// equal numbers of enrolled ones and zeros makes the selected substring
// unbiased while leaking nothing about its content.
type IndexSelection struct {
	indices []int
	n       int
}

// NewIndexSelectionMasked enrolls a selection from the reference pattern:
// it keeps `pairs` positions that read 1 and `pairs` positions that read
// 0, interleaved, chosen in position order. Eligible positions are those
// whose mask bit is set — the burn-in screening path of key-lifecycle
// campaigns, where only cells stable across stress corners may carry key
// material. A nil mask admits every position.
func NewIndexSelectionMasked(ref, mask *bitvec.Vector, pairs int) (*IndexSelection, error) {
	if ref == nil {
		return nil, ErrNilInput
	}
	if pairs < 1 {
		return nil, fmt.Errorf("debias: need >= 1 pair, got %d", pairs)
	}
	if mask != nil && mask.Len() != ref.Len() {
		return nil, fmt.Errorf("debias: mask has %d bits, reference has %d", mask.Len(), ref.Len())
	}
	var ones, zeros []int
	for i := 0; i < ref.Len(); i++ {
		if mask != nil && !mask.Get(i) {
			continue
		}
		if ref.Get(i) {
			ones = append(ones, i)
		} else {
			zeros = append(zeros, i)
		}
	}
	if len(ones) < pairs || len(zeros) < pairs {
		return nil, fmt.Errorf("debias: reference has %d ones / %d zeros, need %d of each",
			len(ones), len(zeros), pairs)
	}
	sel := make([]int, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		sel = append(sel, ones[i], zeros[i])
	}
	return &IndexSelection{indices: sel, n: ref.Len()}, nil
}

// Apply extracts the selected positions from a (fresh) measurement of the
// same SRAM.
func (s *IndexSelection) Apply(measurement *bitvec.Vector) (*bitvec.Vector, error) {
	if measurement == nil {
		return nil, ErrNilInput
	}
	if measurement.Len() != s.n {
		return nil, fmt.Errorf("debias: measurement has %d bits, enrollment had %d", measurement.Len(), s.n)
	}
	out := bitvec.New(len(s.indices))
	for i, idx := range s.indices {
		out.Set(i, measurement.Get(idx))
	}
	return out, nil
}
