package rng

import "testing"

// TestLaneKernelSelection: laneKernelFor takes the last kernel whose
// CPUID and XCR0 bits are all set, and the kernel chosen at start-up is
// the one this host's bits allow.
func TestLaneKernelSelection(t *testing.T) {
	const (
		osxsave, avx               = 1 << 27, 1 << 28
		avx2, avx512f, avx512vl    = 1 << 5, 1 << 16, 1 << 31
		ymmState, zmmState, allAVX = 0x07, 0xE7, avx2 | avx512f | avx512vl
	)
	for _, c := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		want             laneKernel
	}{
		{"avx512vl", osxsave | avx, allAVX, zmmState, avx512vlKernel},
		{"no opmask state", osxsave | avx, allAVX, zmmState &^ 0x20, avx2Kernel},
		{"no upper ZMM state", osxsave | avx, allAVX, zmmState &^ 0x40, avx2Kernel},
		{"no high ZMM state", osxsave | avx, allAVX, zmmState &^ 0x80, avx2Kernel},
		{"no AVX512F", osxsave | avx, avx2 | avx512vl, zmmState, avx2Kernel},
		{"no AVX512VL", osxsave | avx, avx2 | avx512f, zmmState, avx2Kernel},
		{"avx2", osxsave | avx, avx2, ymmState, avx2Kernel},
		{"no YMM state", osxsave | avx, allAVX, zmmState &^ 0x04, fallbackKernel},
		{"no XMM state", osxsave | avx, allAVX, zmmState &^ 0x02, fallbackKernel},
		{"no OSXSAVE", avx, allAVX, 0, fallbackKernel},
		{"no AVX", osxsave, allAVX, zmmState, fallbackKernel},
		{"no AVX2", osxsave | avx, avx512f | avx512vl, zmmState, fallbackKernel},
	} {
		if got := laneKernelFor(c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: chose %v, want %v", c.name, got, c.want)
		}
	}

	want := fallbackKernel
	var ecx1, ebx7, xcr0 uint32
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf >= 7 {
		_, _, ecx1, _ = cpuid(1, 0)
		_, ebx7, _, _ = cpuid(7, 0)
		if ecx1&osxsave != 0 {
			xcr0 = xgetbv0()
		}
		want = laneKernelFor(ecx1, ebx7, xcr0)
	}
	if lanesKernel != want {
		t.Fatalf("start-up kernel %v, want %v", lanesKernel, want)
	}
	t.Logf("lane kernel at start-up: %v (CPUID.1:ECX %#08x, CPUID.7:EBX %#08x, XCR0 %#x)", lanesKernel, ecx1, ebx7, xcr0)
}
