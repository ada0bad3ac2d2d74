package rng

import "unsafe"

// hostLaneKernel returns the last lane kernel this CPU and operating
// system support, from CPUID and XCR0 alone (laneKernelFor).
func hostLaneKernel() laneKernel {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return fallbackKernel
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	var xcr0 uint32
	if ecx1&(1<<27) != 0 { // XGETBV faults unless the OS set OSXSAVE
		xcr0 = xgetbv0()
	}
	return laneKernelFor(ecx1, ebx7, xcr0)
}

// laneKernelFor picks the lane kernel for CPUID leaf 1's ECX, leaf 7's
// EBX and XCR0's low half. The AVX2 kernel needs OSXSAVE (ECX bit 27),
// AVX (bit 28), AVX2 (EBX bit 5) and XCR0's XMM and YMM state (bits 1
// and 2): the OS then saves the registers across context switches. The
// AVX-512VL kernel also needs AVX512F (EBX bit 16), AVX512VL (bit 31)
// and XCR0's opmask and ZMM state (bits 5, 6 and 7).
func laneKernelFor(ecx1, ebx7, xcr0 uint32) laneKernel {
	if ecx1&(1<<27) == 0 || ecx1&(1<<28) == 0 || xcr0&0x6 != 0x6 || ebx7&(1<<5) == 0 {
		return fallbackKernel
	}
	if ebx7&(1<<16) == 0 || ebx7&(1<<31) == 0 || xcr0&0xE6 != 0xE6 {
		return avx2Kernel
	}
	return avx512vlKernel
}

// bernoulliLanes4 runs BernoulliLanes' lanes in kernel k, which is not
// the fallback. Lanes past the live ones repeat the last live lane, so
// they draw the same words and store them to the same place; only live
// lanes' states are written back. The kernel writes the (n+63)/64 words
// each lane needs.
func bernoulliLanes4(k laneKernel, srcs []*Source, thresholds, dst [][]uint64, n int) {
	var state [4][Lanes]uint64 // state[j][l] is s_j of lane l
	var th, out [Lanes]*uint64
	for l := range Lanes {
		i := min(l, len(srcs)-1)
		r := srcs[i]
		state[0][l], state[1][l], state[2][l], state[3][l] = r.s0, r.s1, r.s2, r.s3
		th[l], out[l] = unsafe.SliceData(thresholds[i]), unsafe.SliceData(dst[i])
	}
	if k == avx512vlKernel {
		bernoulliLanesAVX512VL(&state, &th, &out, n)
	} else {
		bernoulliLanesAVX2(&state, &th, &out, n)
	}
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

// bernoulliLanesAVX512VL is bernoulliLanesAVX2 with the per-cell step in
// AVX-512VL instructions: the same words and states, fewer instructions.
//
//go:noescape
func bernoulliLanesAVX512VL(state *[4][Lanes]uint64, th, out *[Lanes]*uint64, n int)

// cpuid executes CPUID for the leaf and sub-leaf.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv0 returns the low half of XCR0, the OS-enabled state components.
func xgetbv0() uint32
