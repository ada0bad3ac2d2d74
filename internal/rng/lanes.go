package rng

// Lanes is the number of streams BernoulliLanes draws at once: the four
// 64-bit lanes of an AVX2 register.
const Lanes = 4

// laneKernel reports whether BernoulliLanes runs its streams together in
// the four-lane kernel. It is set once from the CPU's features
// (laneKernelSupported); the package's tests clear it to reach the
// per-lane fallback.
var laneKernel = laneKernelSupported()

// BernoulliLanes is BernoulliWords for up to Lanes independent streams at
// once: lane i samples thresholds[i] from srcs[i] into dst[i], and ends
// with exactly the words and the generator state that
// srcs[i].BernoulliWords(thresholds[i], dst[i]) would leave. Every lane
// samples the same number of cells, each dst[i] must hold at least
// (len(thresholds[i])+63)/64 words, and the sources and destinations must
// be distinct. On amd64 hosts with AVX2 the lanes run in one kernel that
// advances four xoshiro256** states side by side, one draw per lane per
// step (a single lane pays for four, so callers with one stream call
// BernoulliWords); elsewhere each lane runs BernoulliWords in turn.
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
	}
	if !laneKernel {
		for i, r := range srcs {
			r.BernoulliWords(thresholds[i], dst[i])
		}
		return
	}
	bernoulliLanes4(srcs, thresholds, dst, n)
	for _, d := range dst {
		clear(d[(n+63)/64:])
	}
}
