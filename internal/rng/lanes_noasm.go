//go:build !amd64

package rng

// hostLaneKernel returns the fallback: the four-lane kernels are amd64
// assembly, so BernoulliLanes runs each lane through BernoulliWords.
func hostLaneKernel() laneKernel { return fallbackKernel }

func bernoulliLanes4(k laneKernel, srcs []*Source, thresholds, dst [][]uint64, n int) {
	panic("rng: no four-lane kernel on this architecture")
}
