package rng

import "unsafe"

// Lanes is the number of streams BernoulliLanes draws at once: the four
// 64-bit lanes of a YMM register.
const Lanes = 4

// A laneKernel is one body of BernoulliLanes. Each kernel needs the CPU
// features of the ones before it and runs faster than they do.
type laneKernel int

const (
	// fallbackKernel runs each lane through BernoulliWords in turn.
	fallbackKernel laneKernel = iota
	// avx2Kernel advances four xoshiro256** states in YMM registers.
	avx2Kernel
	// avx512vlKernel is avx2Kernel's loop with the per-cell step in
	// AVX-512VL instructions on the same YMM registers: native rotates
	// and three-input logic.
	avx512vlKernel
)

// lanesKernel is the body BernoulliLanes runs: the last one the host
// supports (hostLaneKernel), chosen once at start-up. The package's tests
// set it to reach every earlier body.
var lanesKernel = hostLaneKernel()

// BernoulliLanes is BernoulliWords for up to Lanes independent streams at
// once: lane i samples thresholds[i] from srcs[i] into dst[i], and ends
// with exactly the words and the generator state that
// srcs[i].BernoulliWords(thresholds[i], dst[i]) would leave. Every lane
// samples the same number of cells, each dst[i] must hold at least
// (len(thresholds[i])+63)/64 words, and no source may repeat nor any two
// destinations overlap; it panics otherwise. On amd64 hosts with AVX2 the
// lanes run in one kernel that advances four xoshiro256** states side by
// side, one draw per lane per step, with the per-cell step in AVX-512VL
// instructions where the host has them (a single lane pays for four, so
// callers with one stream call BernoulliWords); elsewhere each lane runs
// BernoulliWords in turn.
func BernoulliLanes(srcs []*Source, thresholds, dst [][]uint64) {
	k := len(srcs)
	if k == 0 || k > Lanes || len(thresholds) != k || len(dst) != k {
		panic("rng: BernoulliLanes needs 1 to 4 sources, each with one threshold slice and one destination")
	}
	n := len(thresholds[0])
	for i := range srcs {
		if len(thresholds[i]) != n {
			panic("rng: BernoulliLanes lanes sample different cell counts")
		}
		if len(dst[i]) < (n+63)/64 {
			panic("rng: BernoulliLanes destination too short")
		}
		for j := range i {
			if srcs[i] == srcs[j] {
				panic("rng: BernoulliLanes source repeated")
			}
			if overlap(dst[i], dst[j]) {
				panic("rng: BernoulliLanes destinations overlap")
			}
		}
	}
	if lanesKernel == fallbackKernel {
		for i, r := range srcs {
			r.BernoulliWords(thresholds[i], dst[i])
		}
		return
	}
	bernoulliLanes4(lanesKernel, srcs, thresholds, dst, n)
	for _, d := range dst {
		clear(d[(n+63)/64:])
	}
}

// overlap reports whether a and b share a word.
func overlap(a, b []uint64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(len(b))*8 && pb < pa+uintptr(len(a))*8
}
