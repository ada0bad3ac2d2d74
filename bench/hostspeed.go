package main

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end times are host-normalised. A shared virtual machine slows
// down and speeds up by as much as 2.5× over minutes as its neighbours load
// it, and process CPU time tracks wall time through it, so neither can tell
// a slower program from a slower host. Instead, two fixed reference loops —
// the benchmark's own code, so no change to the repository can move them —
// run on the benchmark's worker threads whenever no operation is running:
//
//   - the cache loop scatters xorshift values into a 256 KiB table per
//     thread and popcounts them: it slows when the cores are shared;
//   - the memory loop reads a 16 MiB table per thread at random: it slows
//     when the memory system is shared.
//
// A wall time d measured at reference r counts as
//
//	d × (cacheNominal/r.cache) × (memNominal/r.mem)^memWeight,
//
// the time it would have taken on a host where the loops take their
// nominal times. Which loop tracks a workload best changes with what the
// neighbours do: over one stretch of runs the memory loop tracked
// paper-campaign best, over another the cache loop tracked every workload
// best. This weighting came out best over both stretches, for every
// workload at once (README.md has the measurements).
const (
	cacheNominal = 4 * time.Millisecond // the loops' times on a quiet 2-vCPU Xeon VM
	memNominal   = 3 * time.Millisecond
	memWeight    = 0.25
	refBursts    = 3 // a reference time is the fastest of this many runs
	cacheSteps   = 1_500_000
	cacheWords   = 1 << 15 // 256 KiB per thread
	memReads     = 300_000
	memWords     = 1 << 21 // 16 MiB per thread

	// refSmooth is how far apart in time calibrations may lie and still
	// be pooled: a segment is normalised by the median of the reference
	// times measured within refSmooth of its own, which removes most of
	// one calibration's own noise and keeps the host's drift.
	refSmooth = 2500 * time.Millisecond
)

// hostRef is one calibration: the fastest run of each loop.
type hostRef struct{ cache, mem time.Duration }

// scale is the factor that turns a wall time measured at r into a
// host-normalised one.
func (r hostRef) scale() float64 {
	return float64(cacheNominal) / float64(r.cache) * math.Pow(float64(memNominal)/float64(r.mem), memWeight)
}

func (r hostRef) normalise(d time.Duration) time.Duration {
	return time.Duration(float64(d) * r.scale())
}

var (
	refOnce          sync.Once
	refCache, refMem [][]uint64 // each loop's tables, one per worker
	refSink          uint64     // keeps the loops' results live
)

// mapTable maps a table of n words outside the Go heap, so the reference
// adds nothing to the heap the benchmark reports, and fills it.
func mapTable(n int) []uint64 {
	mem, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("bench: mapping a host reference table: " + err.Error())
	}
	t := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n)
	for i := range t {
		t[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return t
}

// hostReference times both loops on workers threads at once, as the
// workloads load the host.
func hostReference() hostRef {
	refOnce.Do(func() {
		for range workers {
			refCache = append(refCache, mapTable(cacheWords))
			refMem = append(refMem, mapTable(memWords))
		}
	})
	return hostRef{
		cache: fastest(func(w int) uint64 { return cacheLoop(refCache[w]) }),
		mem:   fastest(func(w int) uint64 { return memLoop(refMem[w]) }),
	}
}

// fastest runs loop on every worker thread at once, refBursts times, and
// returns the fastest run.
func fastest(loop func(w int) uint64) time.Duration {
	best := time.Duration(math.MaxInt64)
	for range refBursts {
		sums := make([]uint64, workers)
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sums[w] = loop(w)
			}()
		}
		wg.Wait()
		best = min(best, time.Since(t0))
		for _, s := range sums {
			refSink += s
		}
	}
	return best
}

func cacheLoop(table []uint64) uint64 {
	mask := uint64(len(table) - 1)
	x, acc := uint64(88172645463325252), uint64(0)
	for range cacheSteps {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		table[j] += x
		acc += uint64(bits.OnesCount64(table[(j*7)&mask]))
	}
	return acc
}

func memLoop(table []uint64) uint64 {
	mask := uint64(len(table) - 1)
	x, acc := uint64(88172645463325252), uint64(0)
	for range memReads {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += table[x&mask]
	}
	return acc
}

// smoothed returns, for every segment, the median of each loop's time over
// the calibrations that began within refSmooth of its own.
func smoothed(segs []segment) []hostRef {
	out := make([]hostRef, len(segs))
	for i, s := range segs {
		var cache, mem []float64
		for _, t := range segs {
			if d := t.start - s.start; d <= refSmooth && d >= -refSmooth {
				cache = append(cache, float64(t.ref.cache))
				mem = append(mem, float64(t.ref.mem))
			}
		}
		out[i] = hostRef{time.Duration(median(cache)), time.Duration(median(mem))}
	}
	return out
}

// normalisedSpan is the host-normalised length of [a, b): each part of it
// scaled by the smoothed reference of the segment it falls in, the
// calibrations themselves left out.
func normalisedSpan(segs []segment, refs []hostRef, a, b time.Duration) time.Duration {
	i := sort.Search(len(segs), func(i int) bool { return segs[i].start > a }) - 1
	var d time.Duration
	for i = max(i, 0); i < len(segs) && segs[i].start < b; i++ {
		end := b
		if i+1 < len(segs) {
			end = min(end, segs[i+1].cal)
		}
		if lo := max(a, segs[i].start); end > lo {
			d += refs[i].normalise(end - lo)
		}
	}
	return d
}
