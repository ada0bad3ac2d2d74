// Package stream is the one-pass measurement pipeline of the campaign
// engine. It replaces the collect-then-evaluate flow — which materialised
// every 1,000-measurement evaluation window as a []*bitvec.Vector before
// the metric packages made a second pass over it — with Accumulators
// that fold each power-up measurement into bounded state the moment a
// source produces it.
//
// Memory per device-window is O(array size): a reference pattern, the
// first pattern of the window, bit-sliced per-cell one-counts and one
// per-cell flip bitmap — independent of how many measurements the window
// holds. The batch functions in internal/metrics and internal/entropy
// remain the oracle: every accumulator is tested to produce bit-identical
// results to its batch counterpart on identical inputs (identical float
// operation order, identical integer tallies).
//
// Every campaign source of internal/core — direct sampling, the full rig
// simulation, archive replay — delivers into the same accumulators,
// scheduled by one Pool.
package stream

import "repro/internal/bitvec"

// Sink consumes measurements one at a time. All accumulators implement it.
type Sink interface {
	Add(m *bitvec.Vector) error
}
