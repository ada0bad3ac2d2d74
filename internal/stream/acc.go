package stream

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/entropy"
	"repro/internal/metrics"
)

// ErrNoMeasurements is returned when a result is requested from an
// accumulator that has consumed nothing.
var ErrNoMeasurements = errors.New("stream: no measurements")

// WCHD accumulates the within-class Hamming distance of a measurement
// stream against a fixed reference pattern (§IV-B1). It keeps a running
// sum, maximum and count — the per-measurement series of the batch
// pipeline is never materialised. The floating-point accumulation order
// matches metrics.WithinClassHD exactly, so Mean and Max are bit-identical
// to the batch result.
type WCHD struct {
	ref   *bitvec.Vector
	sum   float64
	max   float64
	count int
}

// NewWCHD returns a WCHD accumulator against ref.
func NewWCHD(ref *bitvec.Vector) (*WCHD, error) {
	if ref == nil {
		return nil, errors.New("stream: nil reference")
	}
	return &WCHD{ref: ref}, nil
}

// Add folds one measurement.
func (a *WCHD) Add(m *bitvec.Vector) error {
	f, err := a.ref.FractionalHammingDistance(m)
	if err != nil {
		return fmt.Errorf("stream: measurement %d: %w", a.count, err)
	}
	a.sum += f
	if f > a.max {
		a.max = f
	}
	a.count++
	return nil
}

// Count returns the number of measurements consumed.
func (a *WCHD) Count() int { return a.count }

// Mean returns the mean fractional Hamming distance versus the reference.
func (a *WCHD) Mean() (float64, error) {
	if a.count == 0 {
		return 0, ErrNoMeasurements
	}
	return a.sum / float64(a.count), nil
}

// Max returns the worst per-measurement distance seen.
func (a *WCHD) Max() (float64, error) {
	if a.count == 0 {
		return 0, ErrNoMeasurements
	}
	return a.max, nil
}

// FHW accumulates the fractional Hamming weight of a measurement stream
// (§IV-A3), mirroring metrics.FractionalHW's accumulation order.
type FHW struct {
	sum   float64
	count int
}

// NewFHW returns an empty weight accumulator.
func NewFHW() *FHW { return &FHW{} }

// Add folds one measurement.
func (a *FHW) Add(m *bitvec.Vector) error {
	a.sum += m.FractionalHammingWeight()
	a.count++
	return nil
}

// Count returns the number of measurements consumed.
func (a *FHW) Count() int { return a.count }

// Mean returns the mean fractional Hamming weight.
func (a *FHW) Mean() (float64, error) {
	if a.count == 0 {
		return 0, ErrNoMeasurements
	}
	return a.sum / float64(a.count), nil
}

// Ones accumulates per-cell one-counts — the streaming form of
// entropy.OneProbabilities — from which the noise min-entropy (§IV-C2)
// and the one-probability map derive. The counts are kept bit-sliced:
// plane j is one word per 64 cells, and bit b of plane j's word w is bit
// j of cell 64w+b's count.
//
// An add goes into four low planes first: a 4-bit counter per cell, kept
// word-interleaved, that takes each measurement word with a fixed
// carry-save of seven operations (addLow). Every 15 adds, and before any
// read of the counts, flush adds the low counters into the wide planes
// and clears them. Sixteen wide planes (counts to 65,535) are reserved at
// the first Add; a longer stream appends a plane whenever the count would
// outgrow them. State is 20 bits per cell up to 65,535 measurements.
type Ones struct {
	cells   int
	words   int         // words per plane
	planes  []uint64    // wide plane j is planes[j*words : (j+1)*words]
	low     [][4]uint64 // low counters: low[w][j] is bit j of word w's counts
	pending int         // adds held in low since the last flush
	count   int
	probs   []float64 // Probabilities scratch, reused across calls
	terms   []float64 // NoiseMinEntropy per-count terms, reused across calls
}

// reservedPlanes is the plane count allocated at the first Add: enough
// for windows of up to 65,535 measurements without growing.
const reservedPlanes = 16

// flushEvery is the number of adds the 4-bit low counters take before
// they are flushed: 15 keeps every counter below 16.
const flushEvery = 15

// NewOnes returns a one-count accumulator; the cell count is fixed by the
// first measurement.
func NewOnes() *Ones { return &Ones{} }

// Add folds one measurement.
func (a *Ones) Add(m *bitvec.Vector) error {
	if err := a.admit(m); err != nil {
		return err
	}
	ms := m.Words()
	low := a.low[:len(ms)]
	for wi, x := range ms {
		addLow(&low[wi], x)
	}
	a.added()
	return nil
}

// admit sizes the planes at the first measurement, rejects one of another
// width, and grows the wide planes when the next add would outgrow them.
func (a *Ones) admit(m *bitvec.Vector) error {
	if a.count == 0 {
		a.cells, a.words = m.Len(), len(m.Words())
		a.planes = make([]uint64, reservedPlanes*a.words)
		a.low = make([][4]uint64, a.words)
	}
	if m.Len() != a.cells {
		return fmt.Errorf("stream: measurement %d has %d bits, want %d", a.count, m.Len(), a.cells)
	}
	if a.words > 0 && a.count+1 >= 1<<(len(a.planes)/a.words) {
		a.planes = append(a.planes, make([]uint64, a.words)...)
	}
	return nil
}

// addLow is the one carry-save kernel of the one-counts: it adds bit b of
// x to the 4-bit counter held in bit b of l[0..3]. The carry ripples
// through all four planes whatever the data (three ANDs, four XORs), so
// the counter must be below 15 before the add.
func addLow(l *[4]uint64, x uint64) {
	c := l[0] & x
	l[0] ^= x
	x = l[1] & c
	l[1] ^= c
	c = l[2] & x
	l[2] ^= x
	l[3] ^= c
}

// added counts one measurement whose words went into the low planes,
// flushing them once they hold flushEvery adds.
func (a *Ones) added() {
	a.count++
	if a.pending++; a.pending == flushEvery {
		a.flushLow()
	}
}

// flush brings the wide planes up to date with every add so far; the
// count readers call it first.
func (a *Ones) flush() {
	if a.pending != 0 {
		a.flushLow()
	}
}

// flushLow adds each word's low counters into its wide planes: a ripple
// add through the four low bit positions, then the carry climbs the
// higher planes while it is non-zero. The low counters are left zero.
// Plane growth in admit keeps every count below 1<<planes, so the carry
// never leaves the top plane.
func (a *Ones) flushLow() {
	w := a.words
	for wi := range a.low {
		l := &a.low[wi]
		var carry uint64
		p := wi
		for j := 0; j < 4; j, p = j+1, p+w {
			x, y := a.planes[p], l[j]
			t := x ^ y
			a.planes[p] = t ^ carry
			carry = x&y | t&carry
		}
		for ; carry != 0; p += w {
			x := a.planes[p]
			a.planes[p] = x ^ carry
			carry &= x
		}
		*l = [4]uint64{}
	}
	a.pending = 0
}

// Count returns the number of measurements consumed.
func (a *Ones) Count() int { return a.count }

// cellCount returns cell i's one-count, gathered from the planes.
func (a *Ones) cellCount(i int) int {
	a.flush()
	return a.wordCount(i/64, uint(i%64))
}

// wordCount gathers the count of bit b of word wi from the wide planes,
// which must be flushed.
func (a *Ones) wordCount(wi int, b uint) int {
	c := 0
	for j := bits.Len(uint(a.count)) - 1; j >= 0; j-- {
		c = c<<1 | int(a.planes[j*a.words+wi]>>b&1)
	}
	return c
}

// Probabilities returns the empirical one-probability of every cell,
// computed exactly as entropy.OneProbabilities computes it: each count is
// decoded as an exact integer and multiplied by 1/n, the rounding of
// entropy.ProbabilitiesFromCounts. The returned slice is the
// accumulator's own scratch, overwritten by the next Probabilities call
// and by nothing else; callers that keep it past that must copy it.
// Steady state allocates nothing.
func (a *Ones) Probabilities() ([]float64, error) {
	if a.count == 0 {
		return nil, ErrNoMeasurements
	}
	if cap(a.probs) < a.cells {
		a.probs = make([]float64, a.cells)
	}
	probs := a.probs[:a.cells]
	inv := 1 / float64(a.count)
	for i := range probs {
		probs[i] = float64(a.cellCount(i)) * inv
	}
	return probs, nil
}

// NoiseMinEntropy returns the window's average per-bit noise min-entropy
// with the floating-point operations of entropy.NoiseMinEntropy over
// entropy.OneProbabilities, worked on counts. A cell of count c adds the
// term of p = c·(1/n): −log2(max(p, 1−p)) when that maximum is below 1,
// else nothing. The terms are memoised per count in reused scratch and
// summed in cell order. Skipped are the cells whose term is exactly +0,
// which leave the sum's bits as they are: count 0 always, and count n
// only when n·(1/n) rounds to 1 (for n = 49 it does not, and full cells
// add a small term). Steady state allocates nothing.
func (a *Ones) NoiseMinEntropy() (float64, error) {
	if a.count == 0 || a.cells == 0 {
		return 0, ErrNoMeasurements
	}
	a.flush()
	n := a.count
	if cap(a.terms) < n+1 {
		a.terms = make([]float64, n+1)
	}
	terms := a.terms[:n+1]
	for c := range terms {
		terms[c] = -1 // not yet computed; every term is >= 0
	}
	inv := 1 / float64(n)
	term := func(c int) float64 {
		t := terms[c]
		if t < 0 {
			p := float64(float64(c) * inv) // rounded as the stored probability is
			m := p
			if 1-p > m {
				m = 1 - p
			}
			t = 0
			if m < 1 {
				t = -math.Log2(m)
			}
			terms[c] = t
		}
		return t
	}
	skipFull := term(n) == 0
	sum := 0.0
	for wi := 0; wi < a.words; wi++ {
		zero, full := a.wordClass(wi)
		visit := ^zero
		if skipFull {
			visit &^= full
		}
		if tail := a.cells - 64*wi; tail < 64 {
			visit &= 1<<uint(tail) - 1
		}
		for ; visit != 0; visit &= visit - 1 {
			sum += term(a.wordCount(wi, uint(bits.TrailingZeros64(visit))))
		}
	}
	return sum / float64(a.cells), nil
}

// wordClass returns, for word wi of the flushed wide planes, the bitmaps
// of cells whose count is 0 in every plane bit (zero) and of cells whose
// count equals n in every plane bit (full). Bits past the last cell may
// be set in zero.
func (a *Ones) wordClass(wi int) (zero, full uint64) {
	zero, full = ^uint64(0), ^uint64(0)
	for j, used := 0, bits.Len(uint(a.count)); j < used; j++ {
		p := a.planes[j*a.words+wi]
		zero &^= p
		if a.count>>j&1 == 1 {
			full &= p
		} else {
			full &^= p
		}
	}
	return zero, full
}

// stableWord returns word wi of the stable-cell bitmap: the cells whose
// count is 0 or n. Bits past the last cell are clear. The planes must be
// flushed.
func (a *Ones) stableWord(wi int) uint64 {
	zero, full := a.wordClass(wi)
	if tail := a.cells - 64*wi; tail < 64 {
		return (zero | full) & (1<<uint(tail) - 1)
	}
	return zero | full
}

// StableRatio returns the fraction of stable cells: cells whose one-count
// is exactly 0 or exactly the measurement count. The comparison is
// count-based, in lockstep with entropy.StableCellRatio — the historical
// probability comparison missed fully-stable cells for window sizes n
// where float64(n)*(1/float64(n)) != 1 (e.g. n = 49).
func (a *Ones) StableRatio() (float64, error) {
	if a.count == 0 || a.cells == 0 {
		return 0, ErrNoMeasurements
	}
	a.flush()
	stable := 0
	for wi := 0; wi < a.words; wi++ {
		stable += bits.OnesCount64(a.stableWord(wi))
	}
	return float64(stable) / float64(a.cells), nil
}

// StableMask returns a fresh bitmap marking the stable cells — cells
// whose one-count is exactly 0 or exactly the measurement count, the same
// count-based classification as StableRatio. Callers on a per-window hot
// path (the condition sweep's cross-corner harvest) use StableMaskInto
// with a reused mask instead; this form allocates per call.
func (a *Ones) StableMask() (*bitvec.Vector, error) {
	if a.count == 0 {
		return nil, ErrNoMeasurements
	}
	mask := bitvec.New(a.cells)
	if err := a.StableMaskInto(mask); err != nil {
		return nil, err
	}
	return mask, nil
}

// StableMaskInto writes the stable-cell bitmap into dst, which must
// have one bit per accumulated cell — StableMask without the per-call
// allocation, computed a word at a time from the planes. Every bit of
// dst is overwritten.
func (a *Ones) StableMaskInto(dst *bitvec.Vector) error {
	if a.count == 0 {
		return ErrNoMeasurements
	}
	if dst.Len() != a.cells {
		return fmt.Errorf("stream: mask has %d bits, want %d", dst.Len(), a.cells)
	}
	a.flush()
	for wi := 0; wi < a.words; wi++ {
		dst.SetWord(wi, a.stableWord(wi))
	}
	return nil
}

// Flips tracks, per cell, whether the cell ever changed value across the
// stream: a one-word-per-64-cells bitmap updated with one XOR-OR pass per
// measurement. A cell is stable over a window exactly when it never flips,
// so the bitmap yields the stable-cell tally (§IV-C1) as an exact integer
// count. Since the stable-cell oracle became count-based (a cell is stable
// iff its one-count is 0 or n, which holds iff it never flips),
// Flips.StableRatio and Ones.StableRatio agree exactly for every window
// size; Flips additionally locates the flipping cells.
type Flips struct {
	prev    *bitvec.Vector
	changed *bitvec.Vector
	count   int
}

// NewFlips returns an empty flip tracker.
func NewFlips() *Flips { return &Flips{} }

// Add folds one measurement.
func (a *Flips) Add(m *bitvec.Vector) error {
	if a.prev == nil {
		a.prev = m.Clone()
		a.changed = bitvec.New(m.Len())
		a.count++
		return nil
	}
	if err := a.changed.OrDiffInPlace(m, a.prev); err != nil {
		return fmt.Errorf("stream: measurement %d: %w", a.count, err)
	}
	if err := a.prev.CopyFrom(m); err != nil {
		return err
	}
	a.count++
	return nil
}

// Count returns the number of measurements consumed.
func (a *Flips) Count() int { return a.count }

// Changed returns the bitmap of cells that flipped at least once. The
// returned vector is owned by the accumulator.
func (a *Flips) Changed() (*bitvec.Vector, error) {
	if a.count == 0 {
		return nil, ErrNoMeasurements
	}
	return a.changed, nil
}

// StableRatio returns the fraction of cells that never flipped.
func (a *Flips) StableRatio() (float64, error) {
	if a.count == 0 {
		return 0, ErrNoMeasurements
	}
	n := a.changed.Len()
	if n == 0 {
		return 0, ErrNoMeasurements
	}
	return float64(n-a.changed.HammingWeight()) / float64(n), nil
}

// DeviceResult carries every per-device window metric of Table I.
type DeviceResult struct {
	WCHDMean    float64 // mean FHD vs the device's reference
	WCHDMax     float64 // worst single measurement
	FHW         float64 // mean fractional Hamming weight
	NoiseHmin   float64 // empirical noise min-entropy
	StableRatio float64 // fraction of never-flipping cells
	Count       int     // measurements consumed
}

// Device is the composite per-device window accumulator: a reference
// pattern, the window's first pattern, the WCHD and FHW sums and the
// one-counts, all updated in one pass over each measurement's words.
// Total state is O(array size). Its results are bit-identical to
// separate WCHD, FHW and Ones accumulators over the same stream.
type Device struct {
	ref   *bitvec.Vector // month-0 reference; adopted from the first measurement when nil
	first *bitvec.Vector // first measurement of THIS window (BCHD/PUF input)
	ones  Ones

	wchdSum, wchdMax float64 // as WCHD.sum and WCHD.max
	fhwSum           float64 // as FHW.sum
}

// NewDevice returns a device accumulator. ref is the device's enrollment
// reference; pass nil to adopt the first measurement of the stream as the
// reference (the month-0 convention of §IV-B1).
func NewDevice(ref *bitvec.Vector) *Device { return &Device{ref: ref} }

// Add folds one measurement. The vector is not retained (the first
// measurement and an adopted reference are cloned). One loop over the
// words counts the distance to the reference and the weight and adds the
// words into the low one-count planes (addLow); the two fractions are
// then formed and summed with the float operations of
// FractionalHammingDistance and FractionalHammingWeight, in WCHD's and
// FHW's order. A measurement whose width differs from the reference's
// is rejected and not counted.
func (d *Device) Add(m *bitvec.Vector) error {
	if d.ref != nil && m.Len() != d.ref.Len() {
		return fmt.Errorf("stream: measurement %d: %w: %d vs %d bits", d.Count(), bitvec.ErrLengthMismatch, d.ref.Len(), m.Len())
	}
	if d.first == nil {
		d.first = m.Clone()
		if d.ref == nil {
			d.ref = d.first
		}
	}
	if err := d.ones.admit(m); err != nil {
		return err
	}
	ms := m.Words()
	ref, low := d.ref.Words()[:len(ms)], d.ones.low[:len(ms)]
	dist, weight := 0, 0
	for wi, x := range ms {
		dist += bits.OnesCount64(ref[wi] ^ x)
		weight += bits.OnesCount64(x)
		addLow(&low[wi], x)
	}
	d.ones.added()
	var f, w float64
	if n := m.Len(); n > 0 {
		f, w = float64(dist)/float64(n), float64(weight)/float64(n)
	}
	d.wchdSum += f
	if f > d.wchdMax {
		d.wchdMax = f
	}
	d.fhwSum += w
	return nil
}

// Count returns the number of measurements consumed.
func (d *Device) Count() int { return d.ones.count }

// Ref returns the reference pattern in use (nil before the first
// measurement when none was supplied).
func (d *Device) Ref() *bitvec.Vector { return d.ref }

// First returns the first measurement of the window (the BCHD/PUF-entropy
// input of §IV-B2), or nil before any measurement.
func (d *Device) First() *bitvec.Vector { return d.first }

// StableMask returns a fresh bitmap of the window's stable cells (see
// Ones.StableMask).
func (d *Device) StableMask() (*bitvec.Vector, error) { return d.ones.StableMask() }

// StableMaskInto writes the window's stable-cell bitmap into dst
// without allocating (see Ones.StableMaskInto).
func (d *Device) StableMaskInto(dst *bitvec.Vector) error { return d.ones.StableMaskInto(dst) }

// Result finalises the window metrics.
func (d *Device) Result() (DeviceResult, error) {
	n := d.Count()
	if n == 0 {
		return DeviceResult{}, ErrNoMeasurements
	}
	noise, err := d.ones.NoiseMinEntropy()
	if err != nil {
		return DeviceResult{}, err
	}
	stable, err := d.ones.StableRatio()
	if err != nil {
		return DeviceResult{}, err
	}
	return DeviceResult{
		WCHDMean:    d.wchdSum / float64(n),
		WCHDMax:     d.wchdMax,
		FHW:         d.fhwSum / float64(n),
		NoiseHmin:   noise,
		StableRatio: stable,
		Count:       n,
	}, nil
}

// CrossResult carries the cross-device uniqueness metrics of one window.
type CrossResult struct {
	BCHDMean float64
	BCHDMin  float64
	BCHDMax  float64
	PUFHmin  float64
}

// Cross accumulates the cross-device metrics: between-class Hamming
// distance and PUF min-entropy over one pattern per device (§IV-B2,
// §IV-B4). State is O(devices × array size) — one retained pattern per
// device, independent of the window size; the final pairwise fold
// delegates to the metrics/entropy oracles so the summation order (and
// hence the result bits) matches the batch pipeline exactly.
type Cross struct {
	firsts []*bitvec.Vector
}

// NewCross returns an empty cross-device accumulator.
func NewCross() *Cross { return &Cross{} }

// Add records one device's window-first pattern. The vector is retained;
// pass an owned copy (Device.First already returns one).
func (c *Cross) Add(first *bitvec.Vector) error {
	if first == nil {
		return errors.New("stream: nil pattern")
	}
	c.firsts = append(c.firsts, first)
	return nil
}

// Devices returns the number of patterns recorded.
func (c *Cross) Devices() int { return len(c.firsts) }

// crossPairwiseCap is the largest population evaluated with the exact
// all-pairs BCHD fold. Above it the O(devices²) pair walk (and its
// Pairwise slice) would dominate a fleet-screening campaign — 50k devices
// is 1.25 billion pairs — so Result switches to the column-count path:
// the exact same mean via per-bit one-counts in O(devices × bits), with
// min/max over the deterministic adjacent-pair sample. Every historical
// campaign size sits far below the cap, so published results keep their
// bits.
const crossPairwiseCap = 2048

// Result finalises BCHD and PUF min-entropy. It needs >= 2 devices.
func (c *Cross) Result() (CrossResult, error) {
	if len(c.firsts) > crossPairwiseCap {
		return c.resultLarge()
	}
	bc, err := metrics.BetweenClassHD(c.firsts)
	if err != nil {
		return CrossResult{}, err
	}
	puf, err := entropy.PUFMinEntropy(c.firsts)
	if err != nil {
		return CrossResult{}, err
	}
	return CrossResult{BCHDMean: bc.Mean, BCHDMin: bc.Min, BCHDMax: bc.Max, PUFHmin: puf}, nil
}

// resultLarge is the fleet-scale cross fold. The pairwise BCHD mean has a
// closed form over per-bit one-counts: a bit position where c of n devices
// read 1 disagrees in exactly c·(n−c) of the n·(n−1)/2 pairs, so
// mean = Σ_pos c(n−c) / (pairs · bits) — identical in exact arithmetic to
// the pair walk, summed in a fixed order (positions ascending) so any two
// runs of the same population agree bit-for-bit. Min/Max, which have no
// columnar form, come from the adjacent-pair sample (i, i+1) — n−1
// deterministic pairs in device order, which all execution layouts share
// because the engine folds devices in index order.
func (c *Cross) resultLarge() (CrossResult, error) {
	n := len(c.firsts)
	nbits := c.firsts[0].Len()
	words := len(c.firsts[0].Words())
	counts := make([]int, 64*words)
	for _, v := range c.firsts {
		if v.Len() != nbits {
			return CrossResult{}, fmt.Errorf("stream: cross pattern has %d bits, want %d", v.Len(), nbits)
		}
		for wi, w := range v.Words() {
			base := wi << 6
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				counts[base+b]++
			}
		}
	}
	var disagree float64
	for _, cnt := range counts[:nbits] {
		disagree += float64(cnt) * float64(n-cnt)
	}
	pairs := float64(n) * float64(n-1) / 2
	mean := disagree / (pairs * float64(nbits))

	min, max := 1.0, 0.0
	for i := 0; i+1 < n; i++ {
		f, err := c.firsts[i].FractionalHammingDistance(c.firsts[i+1])
		if err != nil {
			return CrossResult{}, fmt.Errorf("stream: cross pair (%d,%d): %w", i, i+1, err)
		}
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}

	// PUF min-entropy's probability estimate is c/n per position — reuse
	// the counts instead of re-walking the patterns.
	var hmin float64
	for _, cnt := range counts[:nbits] {
		p := float64(cnt) / float64(n)
		m := p
		if 1-p > m {
			m = 1 - p
		}
		if m < 1 {
			hmin += -math.Log2(m)
		}
	}
	hmin /= float64(nbits)
	return CrossResult{BCHDMean: mean, BCHDMin: min, BCHDMax: max, PUFHmin: hmin}, nil
}
