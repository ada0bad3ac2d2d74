// Package stream is the one-pass measurement pipeline of the campaign
// engine. It replaces the collect-then-evaluate flow — which materialised
// every 1,000-measurement evaluation window as a []*bitvec.Vector before
// the metric packages made a second pass over it — with Sources that yield
// power-up measurements one at a time and Accumulators that fold each
// measurement into bounded state the moment it is produced.
//
// Memory per device-window is O(array size): a reference pattern, the
// first pattern of the window, bit-sliced per-cell one-counts and one
// per-cell flip bitmap — independent of how many measurements the window
// holds. The batch functions in internal/metrics and internal/entropy
// remain the oracle: every accumulator is tested to produce bit-identical
// results to its batch counterpart on identical inputs (identical float
// operation order, identical integer tallies).
//
// Both campaign paths of internal/core — direct sampling and the full rig
// simulation — are Sources feeding the same accumulators, scheduled by one
// Pool.
package stream

import (
	"errors"
	"io"

	"repro/internal/bitvec"
)

// Source yields power-up measurements one at a time. Next returns io.EOF
// after the last measurement. The returned vector may share storage with
// subsequent Next results (sources are free to reuse a scratch buffer);
// consumers that retain a measurement must Clone it.
type Source interface {
	Next() (*bitvec.Vector, error)
}

// Sink consumes measurements one at a time. All accumulators implement it.
type Sink interface {
	Add(m *bitvec.Vector) error
}

// Sampler returns a Source yielding n measurements of the given bit width,
// each produced by fill writing into a reused scratch vector. It is the
// direct campaign path's source: fill is typically sram.(*Array).
// PowerUpWindowInto, so a whole window is streamed with a single vector
// allocation.
func Sampler(bits, n int, fill func(dst *bitvec.Vector) error) Source {
	return &sampler{scratch: bitvec.New(bits), left: n, fill: fill}
}

type sampler struct {
	scratch *bitvec.Vector
	left    int
	fill    func(dst *bitvec.Vector) error
}

func (s *sampler) Next() (*bitvec.Vector, error) {
	if s.left <= 0 {
		return nil, io.EOF
	}
	if err := s.fill(s.scratch); err != nil {
		return nil, err
	}
	s.left--
	return s.scratch, nil
}

// Slice returns a Source replaying an in-memory measurement set, used by
// archive replay and by the equivalence tests.
func Slice(ms []*bitvec.Vector) Source { return &slice{ms: ms} }

type slice struct {
	ms []*bitvec.Vector
	i  int
}

func (s *slice) Next() (*bitvec.Vector, error) {
	if s.i >= len(s.ms) {
		return nil, io.EOF
	}
	m := s.ms[s.i]
	s.i++
	if m == nil {
		return nil, errors.New("stream: nil measurement")
	}
	return m, nil
}

// Drain pulls src to exhaustion, feeding every measurement to each sink in
// order. It returns the number of measurements consumed.
func Drain(src Source, sinks ...Sink) (int, error) {
	n := 0
	for {
		m, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		for _, s := range sinks {
			if err := s.Add(m); err != nil {
				return n, err
			}
		}
		n++
	}
}
