package rng

import "unsafe"

// laneKernelSupported reports whether the CPU has AVX2 and the operating
// system saves the YMM registers across context switches: CPUID leaf 1
// sets OSXSAVE (ECX bit 27) and AVX (bit 28), XCR0 enables the XMM and
// YMM state (bits 1 and 2), and CPUID leaf 7 sets AVX2 (EBX bit 5).
func laneKernelSupported() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(1<<27) == 0 || c&(1<<28) == 0 {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// bernoulliLanes4 runs BernoulliLanes' lanes in the AVX2 kernel. Lanes
// past the live ones repeat the last live lane, so they draw the same
// words and store them to the same place; only live lanes' states are
// written back. The kernel writes the (n+63)/64 words each lane needs.
func bernoulliLanes4(srcs []*Source, thresholds, dst [][]uint64, n int) {
	var state [4][Lanes]uint64 // state[j][l] is s_j of lane l
	var th, out [Lanes]*uint64
	for l := range Lanes {
		i := min(l, len(srcs)-1)
		r := srcs[i]
		state[0][l], state[1][l], state[2][l], state[3][l] = r.s0, r.s1, r.s2, r.s3
		th[l], out[l] = unsafe.SliceData(thresholds[i]), unsafe.SliceData(dst[i])
	}
	bernoulliLanesAVX2(&state, &th, &out, n)
	for l, r := range srcs {
		r.s0, r.s1, r.s2, r.s3 = state[0][l], state[1][l], state[2][l], state[3][l]
	}
}

// bernoulliLanesAVX2 draws n cells in each of four lanes: lane l advances
// the xoshiro256** state in column l of state against the n thresholds at
// th[l] and writes its words from out[l]. It is bernoulliWord four lanes
// wide.
//
//go:noescape
func bernoulliLanesAVX2(state *[4][Lanes]uint64, th, out *[Lanes]*uint64, n int)

// cpuid executes CPUID for the leaf and sub-leaf.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv0 returns the low half of XCR0, the OS-enabled state components.
func xgetbv0() uint32
