package ecc

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

func randMsg(src *rng.Source, k int) *bitvec.Vector {
	v := bitvec.New(k)
	for i := 0; i < k; i++ {
		v.Set(i, src.Bernoulli(0.5))
	}
	return v
}

func flipBits(src *rng.Source, v *bitvec.Vector, count int) *bitvec.Vector {
	out := v.Clone()
	perm := src.Perm(v.Len())
	for i := 0; i < count; i++ {
		out.Set(perm[i], !out.Get(perm[i]))
	}
	return out
}

// roundTrip checks Encode->corrupt->Decode over many random messages.
func roundTrip(t *testing.T, c Code, maxErrors int, trials int, seed uint64) {
	t.Helper()
	src := rng.New(seed)
	for trial := 0; trial < trials; trial++ {
		msg := randMsg(src, c.K())
		cw, err := c.Encode(msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.Name(), err)
		}
		if cw.Len() != c.N() {
			t.Fatalf("%s: codeword length %d, want %d", c.Name(), cw.Len(), c.N())
		}
		errs := src.Intn(maxErrors + 1)
		corrupted := flipBits(src, cw, errs)
		dec, err := c.Decode(corrupted)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.Name(), err)
		}
		if !dec.Equal(msg) {
			t.Fatalf("%s: trial %d with %d errors: decoded wrong message", c.Name(), trial, errs)
		}
	}
}

func TestRepetitionBasics(t *testing.T) {
	if _, err := NewRepetition(0); err == nil {
		t.Error("length 0 accepted")
	}
	if _, err := NewRepetition(4); err == nil {
		t.Error("even length accepted")
	}
	r, err := NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "repetition(5)" || r.K() != 1 || r.N() != 5 {
		t.Fatalf("metadata: %s %d/%d", r.Name(), r.K(), r.N())
	}
	if rate(r) != 0.2 {
		t.Fatalf("rate = %v", rate(r))
	}
	roundTrip(t, r, 2, 200, 1)
}

func TestRepetitionMajorityBoundary(t *testing.T) {
	r, _ := NewRepetition(5)
	w := bitvec.New(5)
	w.Set(0, true)
	w.Set(1, true) // weight 2 of 5 -> decide 0
	d, err := r.Decode(w)
	if err != nil {
		t.Fatal(err)
	}
	if d.Get(0) {
		t.Fatal("weight 2/5 decoded as 1")
	}
	w.Set(2, true) // weight 3 of 5 -> decide 1
	d, _ = r.Decode(w)
	if !d.Get(0) {
		t.Fatal("weight 3/5 decoded as 0")
	}
}

func TestRepetitionLengthChecks(t *testing.T) {
	r, _ := NewRepetition(3)
	if _, err := r.Encode(bitvec.New(2)); err == nil {
		t.Error("wrong message length accepted")
	}
	if _, err := r.Decode(bitvec.New(2)); err == nil {
		t.Error("wrong word length accepted")
	}
	if _, err := r.Encode(nil); err == nil {
		t.Error("nil message accepted")
	}
}

// TestGolayTable checks the internal consistency of the syndrome table:
// every entry's pattern has that syndrome and no pattern repeats.
func TestGolayTable(t *testing.T) {
	g := NewGolay()
	seen := make(map[uint32]bool, len(g.syndromeTable))
	for s, pattern := range g.syndromeTable {
		if golaySyndrome(pattern) != uint32(s) {
			t.Fatalf("syndrome table entry %#x maps to pattern with syndrome %#x", s, golaySyndrome(pattern))
		}
		if seen[pattern] && pattern != 0 {
			t.Fatalf("duplicate pattern %#x in syndrome table", pattern)
		}
		seen[pattern] = true
	}
}

func TestGolayCorrectsThreeErrors(t *testing.T) {
	g := NewGolay()
	if g.K() != 12 || g.N() != 23 || golayT != 3 {
		t.Fatalf("golay metadata %d/%d/%d", g.K(), g.N(), golayT)
	}
	roundTrip(t, g, 3, 500, 2)
}

func TestGolayFourErrorsMiscorrects(t *testing.T) {
	// A perfect code decodes EVERY word to some codeword within distance
	// 3; with 4 errors the result must be a codeword, but a wrong one.
	g := NewGolay()
	src := rng.New(3)
	wrong := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		msg := randMsg(src, 12)
		cw, err := g.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := g.Decode(flipBits(src, cw, 4))
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Equal(msg) {
			wrong++
		}
	}
	if wrong == 0 {
		t.Fatal("4-error patterns never miscorrected — table is suspect")
	}
}

func TestGolayCodewordDistance(t *testing.T) {
	// Minimum distance of the (23,12) Golay code is 7.
	g := NewGolay()
	zero, err := g.Encode(bitvec.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if zero.HammingWeight() != 0 {
		t.Fatal("zero message must encode to zero codeword (systematic linear code)")
	}
	src := rng.New(4)
	minW := 23
	for i := 0; i < 2000; i++ {
		m := randMsg(src, 12)
		if m.HammingWeight() == 0 {
			continue
		}
		cw, err := g.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if w := cw.HammingWeight(); w < minW {
			minW = w
		}
	}
	if minW < 7 {
		t.Fatalf("found codeword of weight %d < 7", minW)
	}
}

func TestBlocked(t *testing.T) {
	g := NewGolay()
	b, err := NewBlocked(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.K() != 48 || b.N() != 92 {
		t.Fatalf("blocked metadata %d/%d", b.K(), b.N())
	}
	// Each block independently corrects up to 3 errors; spread 3 per block.
	src := rng.New(9)
	msg := randMsg(src, 48)
	cw, err := b.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := cw.Clone()
	for blk := 0; blk < 4; blk++ {
		for e := 0; e < 3; e++ {
			pos := blk*23 + src.Intn(23)
			corrupted.Set(pos, !corrupted.Get(pos))
		}
	}
	dec, err := b.Decode(corrupted)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(msg) {
		t.Fatal("blocked golay failed with 3 errors per block")
	}
	if _, err := NewBlocked(nil, 2); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewBlocked(g, 0); err == nil {
		t.Error("zero blocks accepted")
	}
}

func TestConcatenated(t *testing.T) {
	g := NewGolay()
	rep, _ := NewRepetition(5)
	c, err := NewConcatenated(g, rep)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 12 || c.N() != 115 {
		t.Fatalf("concatenated metadata %d/%d", c.K(), c.N())
	}
	// At 10% random BER the inner repetition-5 brings the effective outer
	// BER below 1%, well within Golay's reach.
	src := rng.New(10)
	failures := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		msg := randMsg(src, 12)
		cw, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		corrupted := cw.Clone()
		for i := 0; i < corrupted.Len(); i++ {
			if src.Bernoulli(0.10) {
				corrupted.Set(i, !corrupted.Get(i))
			}
		}
		dec, err := c.Decode(corrupted)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Equal(msg) {
			failures++
		}
	}
	if failures > 1 {
		t.Fatalf("concatenated code failed %d/%d trials at 10%% BER", failures, trials)
	}
	if _, err := NewConcatenated(g, g); err == nil {
		t.Error("inner code with K>1 accepted")
	}
	if _, err := NewConcatenated(nil, rep); err == nil {
		t.Error("nil outer accepted")
	}
}

func TestConcatenatedName(t *testing.T) {
	g := NewGolay()
	rep, _ := NewRepetition(3)
	c, _ := NewConcatenated(g, rep)
	if c.Name() == "" || rate(c) >= rate(g) {
		t.Fatalf("name=%q rate=%v", c.Name(), rate(c))
	}
}

// TestKeyGenerationBERBudget documents the design point used by the fuzzy
// extractor: at the paper's end-of-life worst-case BER (3.3%), the
// golay ∘ repetition(5) construction has a per-block failure probability
// below 1e-9 (computed analytically, verified loosely by simulation).
func TestKeyGenerationBERBudget(t *testing.T) {
	const ber = 0.033
	// Inner repetition-5 failure: >= 3 of 5 bits flipped.
	pInner := 0.0
	for k := 3; k <= 5; k++ {
		pInner += float64(choose(5, k)) * math.Pow(ber, float64(k)) * math.Pow(1-ber, float64(5-k))
	}
	// Outer golay failure: >= 4 of 23 inner decisions wrong.
	pOuter := 0.0
	for k := 4; k <= 23; k++ {
		pOuter += float64(choose(23, k)) * math.Pow(pInner, float64(k)) * math.Pow(1-pInner, float64(23-k))
	}
	if pOuter > 1e-9 {
		t.Fatalf("block failure probability %v exceeds 1e-9 budget", pOuter)
	}
}

func choose(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	r := int64(1)
	for i := 0; i < k; i++ {
		r = r * int64(n-i) / int64(i+1)
	}
	return r
}

func BenchmarkGolayDecode(b *testing.B) {
	g := NewGolay()
	src := rng.New(1)
	msg := randMsg(src, 12)
	cw, err := g.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	corrupted := flipBits(src, cw, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Decode(corrupted); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMinDistanceAndRadius pins the analytic distances the key-lifecycle
// margin metric relies on, including the paper's standard scheme:
// 11 x (Golay(23,12) ∘ repetition(5)) has d = 7*5 = 35, t = 17 per block.
func TestMinDistanceAndRadius(t *testing.T) {
	rep5, err := NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	golay := NewGolay()
	concat, err := NewConcatenated(golay, rep5)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := NewBlocked(concat, 11)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		code Code
		d, t int
		ok   bool
	}{
		{rep5, 5, 2, true},
		{golay, 7, 3, true},
		{concat, 35, 17, true},
		{blocked, 35, 17, true},
		{unboundedCode{}, 0, 0, false},
	}
	for _, tc := range cases {
		d, ok := MinDistance(tc.code)
		if ok != tc.ok || d != tc.d {
			t.Errorf("%s: MinDistance = (%d,%v), want (%d,%v)", tc.code.Name(), d, ok, tc.d, tc.ok)
		}
		r, ok := CorrectionRadius(tc.code)
		if ok != tc.ok || r != tc.t {
			t.Errorf("%s: CorrectionRadius = (%d,%v), want (%d,%v)", tc.code.Name(), r, ok, tc.t, tc.ok)
		}
	}
	if blocked.Base() != concat || blocked.Blocks() != 11 {
		t.Error("Blocked accessors do not expose the construction")
	}
	if concat.outer != golay || concat.inner != rep5 {
		t.Error("Concatenated accessors do not expose the construction")
	}
}

// rate returns K/N for a code.
func rate(c Code) float64 { return float64(c.K()) / float64(c.N()) }

// unboundedCode is a Code implemented outside the package's known
// constructions, so it has no analytic distance.
type unboundedCode struct{}

func (unboundedCode) Name() string                                    { return "unbounded" }
func (unboundedCode) K() int                                          { return 1 }
func (unboundedCode) N() int                                          { return 2 }
func (unboundedCode) Encode(m *bitvec.Vector) (*bitvec.Vector, error) { return bitvec.New(2), nil }
func (unboundedCode) Decode(w *bitvec.Vector) (*bitvec.Vector, error) { return bitvec.New(1), nil }
