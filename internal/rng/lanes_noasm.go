//go:build !amd64

package rng

// laneKernelSupported reports false: the four-lane kernel is amd64
// assembly, so BernoulliLanes runs each lane through BernoulliWords.
func laneKernelSupported() bool { return false }

func bernoulliLanes4(srcs []*Source, thresholds, dst [][]uint64, n int) {
	panic("rng: no four-lane kernel on this architecture")
}
