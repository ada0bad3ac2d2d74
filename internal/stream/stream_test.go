package stream

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/entropy"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// noisyWindow synthesises a realistic measurement window: a random base
// pattern re-measured n times with per-cell flip probability flipP, so the
// window has stable cells, biased cells and noisy cells like a real SRAM
// read-out stream.
func noisyWindow(seed uint64, bits, n int, flipP float64) []*bitvec.Vector {
	r := rng.New(seed)
	base := bitvec.New(bits)
	for i := 0; i < bits; i++ {
		base.Set(i, r.Bernoulli(0.6))
	}
	out := make([]*bitvec.Vector, n)
	for k := range out {
		m := base.Clone()
		for i := 0; i < bits; i++ {
			if r.Bernoulli(flipP) {
				m.Set(i, !m.Get(i))
			}
		}
		out[k] = m
	}
	return out
}

// feed folds every measurement of window into each sink, in order.
func feed(window []*bitvec.Vector, sinks ...Sink) error {
	for _, m := range window {
		for _, s := range sinks {
			if err := s.Add(m); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestAccumulatorsMatchBatchOracle is the golden-equivalence property: on
// identical windows, every streaming accumulator must be bit-identical to
// its batch counterpart in internal/metrics / internal/entropy, across
// several seeds and window sizes (including non-word-aligned widths). The
// device accumulator runs twice: adopting the window's first read-out as
// its reference (month 0), and against a supplied reference that differs
// from it (every later month).
func TestAccumulatorsMatchBatchOracle(t *testing.T) {
	cases := []struct {
		seed  uint64
		bits  int
		n     int
		flipP float64
	}{
		{1, 256, 50, 0.01},
		{2, 1000, 120, 0.02}, // non-word-aligned width
		{3, 8192, 40, 0.005},
		{4, 64, 500, 0.1},
		{5, 130, 3, 0.3},
		// Regression: n where float64(n)*(1/float64(n)) != 1 — the
		// count-based stable-cell comparison must classify fully-stable
		// cells identically in the oracle and the accumulator.
		{6, 512, 49, 0.02},
	}
	for _, tc := range cases {
		window := noisyWindow(tc.seed, tc.bits, tc.n, tc.flipP)
		supplied := noisyWindow(tc.seed+100, tc.bits, 1, 0)[0]
		if supplied.Equal(window[0]) {
			t.Fatalf("seed %d: supplied reference equals the window head", tc.seed)
		}

		// Batch oracle.
		fw, err := metrics.FractionalHW(window)
		if err != nil {
			t.Fatal(err)
		}
		counts, n, err := entropy.OneCounts(window)
		if err != nil {
			t.Fatal(err)
		}
		probs, err := entropy.ProbabilitiesFromCounts(counts, n)
		if err != nil {
			t.Fatal(err)
		}
		noise, err := entropy.NoiseMinEntropy(probs)
		if err != nil {
			t.Fatal(err)
		}
		stable, err := entropy.StableCellRatio(counts, n)
		if err != nil {
			t.Fatal(err)
		}

		for _, given := range []*bitvec.Vector{nil, supplied} {
			ref := given
			if ref == nil {
				ref = window[0].Clone()
			}
			wc, err := metrics.WithinClassHD(ref, window)
			if err != nil {
				t.Fatal(err)
			}

			// Streaming pass.
			dev := NewDevice(given)
			if err := feed(window, dev); err != nil {
				t.Fatal(err)
			}
			r, err := dev.Result()
			if err != nil {
				t.Fatal(err)
			}
			if r.Count != tc.n {
				t.Fatalf("seed %d: count %d, want %d", tc.seed, r.Count, tc.n)
			}
			// Bit-identical, not approximately equal.
			if r.WCHDMean != wc.Mean || r.WCHDMax != wc.Max {
				t.Errorf("seed %d supplied %v: WCHD stream (%v,%v) != batch (%v,%v)", tc.seed, given != nil, r.WCHDMean, r.WCHDMax, wc.Mean, wc.Max)
			}
			if r.FHW != fw.Mean {
				t.Errorf("seed %d: FHW stream %v != batch %v", tc.seed, r.FHW, fw.Mean)
			}
			if r.NoiseHmin != noise {
				t.Errorf("seed %d: noise Hmin stream %v != batch %v", tc.seed, r.NoiseHmin, noise)
			}
			if r.StableRatio != stable {
				t.Errorf("seed %d: stable ratio stream %v != batch %v", tc.seed, r.StableRatio, stable)
			}
			if !dev.Ref().Equal(ref) || !dev.First().Equal(window[0]) {
				t.Errorf("seed %d supplied %v: reference/first differs", tc.seed, given != nil)
			}
		}

		// One-probabilities themselves.
		ones := NewOnes()
		if err := feed(window, ones); err != nil {
			t.Fatal(err)
		}
		sp, err := ones.Probabilities()
		if err != nil {
			t.Fatal(err)
		}
		for i := range probs {
			if sp[i] != probs[i] {
				t.Fatalf("seed %d: one-probability[%d] stream %v != batch %v", tc.seed, i, sp[i], probs[i])
			}
		}
	}
}

// TestFlipsAgreesWithOnesStableCount pins the two stable-cell definitions
// (never flips vs one-count in {0, n}) to each other, both at the
// integer-tally level and — now that the oracle compares counts — at the
// exact float-ratio level, including window sizes like 49 where the
// historical probability comparison went wrong.
func TestFlipsAgreesWithOnesStableCount(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, n := range []int{49, 64} {
			window := noisyWindow(seed, 512, n, 0.05)
			ones, flips := NewOnes(), NewFlips()
			if err := feed(window, ones, flips); err != nil {
				t.Fatal(err)
			}
			fromOnes := 0
			for _, c := range onesCounts(ones) {
				if c == 0 || c == ones.count {
					fromOnes++
				}
			}
			changed, err := flips.Changed()
			if err != nil {
				t.Fatal(err)
			}
			fromFlips := changed.Len() - changed.HammingWeight()
			if fromOnes != fromFlips {
				t.Fatalf("seed %d n %d: ones stable count %d != flips stable count %d", seed, n, fromOnes, fromFlips)
			}
			ro, err := ones.StableRatio()
			if err != nil {
				t.Fatal(err)
			}
			rf, err := flips.StableRatio()
			if err != nil {
				t.Fatal(err)
			}
			if ro != rf {
				t.Fatalf("seed %d n %d: ones stable ratio %v != flips stable ratio %v", seed, n, ro, rf)
			}
		}
	}
}

func TestCrossMatchesBatchOracle(t *testing.T) {
	const devices = 6
	cross := NewCross()
	firsts := make([]*bitvec.Vector, devices)
	for d := range firsts {
		firsts[d] = noisyWindow(uint64(100+d), 777, 1, 0)[0]
		if err := cross.Add(firsts[d]); err != nil {
			t.Fatal(err)
		}
	}
	bc, err := metrics.BetweenClassHD(firsts)
	if err != nil {
		t.Fatal(err)
	}
	puf, err := entropy.PUFMinEntropy(firsts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cross.Result()
	if err != nil {
		t.Fatal(err)
	}
	if r.BCHDMean != bc.Mean || r.BCHDMin != bc.Min || r.BCHDMax != bc.Max || r.PUFHmin != puf {
		t.Fatalf("cross stream %+v != batch (%v,%v,%v,%v)", r, bc.Mean, bc.Min, bc.Max, puf)
	}
	if cross.Devices() != devices {
		t.Fatalf("devices = %d", cross.Devices())
	}
}

func TestEmptyAccumulators(t *testing.T) {
	if _, err := NewDevice(nil).Result(); !errors.Is(err, ErrNoMeasurements) {
		t.Errorf("empty device result: %v", err)
	}
	if _, err := NewOnes().Probabilities(); !errors.Is(err, ErrNoMeasurements) {
		t.Errorf("empty ones: %v", err)
	}
	if _, err := NewFlips().StableRatio(); !errors.Is(err, ErrNoMeasurements) {
		t.Errorf("empty flips: %v", err)
	}
	if _, err := NewFHW().Mean(); !errors.Is(err, ErrNoMeasurements) {
		t.Errorf("empty FHW: %v", err)
	}
	if _, err := NewWCHD(nil); err == nil {
		t.Error("nil reference accepted")
	}
	if _, err := NewCross().Result(); err == nil {
		t.Error("cross result with < 2 devices accepted")
	}
}

// TestLengthMismatchPropagates: a read-out of the wrong width is an
// error and is not counted, whether the reference was adopted or
// supplied, and the accumulators go on as if it never came.
func TestLengthMismatchPropagates(t *testing.T) {
	dev := NewDevice(nil)
	if err := dev.Add(bitvec.New(64)); err != nil {
		t.Fatal(err)
	}
	if err := dev.Add(bitvec.New(128)); !errors.Is(err, bitvec.ErrLengthMismatch) {
		t.Errorf("length mismatch: err = %v, want ErrLengthMismatch", err)
	}
	if dev.Count() != 1 {
		t.Errorf("mismatched read-out counted: count %d, want 1", dev.Count())
	}

	given := NewDevice(bitvec.New(64))
	if err := given.Add(bitvec.New(65)); !errors.Is(err, bitvec.ErrLengthMismatch) {
		t.Errorf("supplied reference, length mismatch: err = %v, want ErrLengthMismatch", err)
	}
	if given.Count() != 0 || given.First() != nil {
		t.Errorf("mismatched first read-out taken: count %d, first %v", given.Count(), given.First())
	}
	one := bitvec.New(64)
	one.Set(3, true)
	if err := given.Add(one); err != nil {
		t.Fatal(err)
	}
	r, err := given.Result()
	if err != nil {
		t.Fatal(err)
	}
	if r.Count != 1 || r.WCHDMean != 1.0/64 || r.FHW != 1.0/64 || !given.First().Equal(one) {
		t.Errorf("after a rejected read-out: %+v, first %v", r, given.First())
	}

	ones := NewOnes()
	if err := ones.Add(bitvec.New(64)); err != nil {
		t.Fatal(err)
	}
	if err := ones.Add(bitvec.New(63)); err == nil || ones.Count() != 1 {
		t.Errorf("Ones length mismatch: err = %v, count %d", err, ones.Count())
	}
}

func TestPoolRunsAllJobsAndJoinsErrors(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 100} {
		p := NewPool(workers)
		ran := make([]bool, 7)
		jobs := make([]func() error, len(ran))
		boom := errors.New("boom")
		for i := range jobs {
			i := i
			jobs[i] = func() error {
				ran[i] = true
				if i == 4 {
					return boom
				}
				return nil
			}
		}
		err := p.Run(jobs...)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i, ok := range ran {
			if !ok {
				t.Fatalf("workers=%d: job %d did not run", workers, i)
			}
		}
		if err := p.Run(); err != nil {
			t.Fatalf("workers=%d: empty run: %v", workers, err)
		}
	}
}

// TestPoolSharesBoundAcrossConcurrentRuns: the worker semaphore lives on
// the Pool, so two Run calls in flight at once (a condition sweep's grid
// points) together never exceed the configured bound.
func TestPoolSharesBoundAcrossConcurrentRuns(t *testing.T) {
	const bound = 2
	p := NewPool(bound)
	var active, peak int32
	var mu sync.Mutex
	job := func() error {
		mu.Lock()
		active++
		if active > peak {
			peak = active
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		active--
		mu.Unlock()
		return nil
	}
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs := make([]func() error, 5)
			for i := range jobs {
				jobs[i] = job
			}
			if err := p.Run(jobs...); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if peak > bound {
		t.Fatalf("concurrent Runs reached %d jobs in flight, bound is %d", peak, bound)
	}
}

// TestStableMaskAgreesWithRatioAndFlips: the mask classifies exactly the
// cells the count-based ratio counts, and is the complement of the Flips
// changed bitmap.
func TestStableMaskAgreesWithRatioAndFlips(t *testing.T) {
	window := noisyWindow(3, 512, 49, 0.05)
	ones, flips := NewOnes(), NewFlips()
	if err := feed(window, ones, flips); err != nil {
		t.Fatal(err)
	}
	mask, err := ones.StableMask()
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := ones.StableRatio()
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(mask.HammingWeight()) / float64(mask.Len()); got != ratio {
		t.Fatalf("mask ratio %v != StableRatio %v", got, ratio)
	}
	changed, err := flips.Changed()
	if err != nil {
		t.Fatal(err)
	}
	if !mask.Equal(changed.Not()) {
		t.Fatal("stable mask is not the complement of the flip bitmap")
	}
	if _, err := NewOnes().StableMask(); !errors.Is(err, ErrNoMeasurements) {
		t.Fatalf("empty accumulator: err = %v, want ErrNoMeasurements", err)
	}
}

// TestStreamingAllocsIndependentOfWindowSize is the bounded-memory claim
// as a test: folding an 8× larger window through a Device accumulator must
// not allocate proportionally more — allocations are O(array size), paid
// once per window, not O(WindowSize × array size).
func TestStreamingAllocsIndependentOfWindowSize(t *testing.T) {
	const bits = 2048
	run := func(n int) float64 {
		window := noisyWindow(42, bits, n, 0.02)
		return testing.AllocsPerRun(5, func() {
			dev := NewDevice(nil)
			if err := feed(window, dev); err != nil {
				t.Fatal(err)
			}
			if _, err := dev.Result(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := run(50), run(400)
	if large > 1.5*small+8 {
		t.Errorf("allocs grew with window size: %v (n=50) -> %v (n=400)", small, large)
	}
	if math.IsNaN(small) || small == 0 {
		t.Fatalf("implausible alloc count %v", small)
	}
}
