package fuzzy

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/rng"
)

func testExtractor(t *testing.T) *Extractor {
	t.Helper()
	golay := ecc.NewGolay()
	rep, err := ecc.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	concat, err := ecc.NewConcatenated(golay, rep)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := ecc.NewBlocked(concat, 11) // 132-bit secret over 1265 response bits
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(blocked)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randomResponse(src *rng.Source, n int, bias float64) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.Set(i, src.Bernoulli(bias))
	}
	return v
}

func noisyCopy(src *rng.Source, v *bitvec.Vector, ber float64) *bitvec.Vector {
	out := v.Clone()
	for i := 0; i < out.Len(); i++ {
		if src.Bernoulli(ber) {
			out.Set(i, !out.Get(i))
		}
	}
	return out
}

func TestEnrollReconstructClean(t *testing.T) {
	e := testExtractor(t)
	src := rng.New(1)
	resp := randomResponse(src, e.ResponseBits(), 0.627)
	key, helper, err := e.Enroll(resp, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != 32 {
		t.Fatalf("key length = %d", len(key))
	}
	back, err := e.Reconstruct(resp, helper)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(key, back) {
		t.Fatal("clean reconstruction returned different key")
	}
}

func TestReconstructAtPaperBER(t *testing.T) {
	// The paper's end-of-test worst case WCHD is 3.25%; reconstruction
	// must succeed with margin.
	e := testExtractor(t)
	src := rng.New(2)
	resp := randomResponse(src, e.ResponseBits(), 0.627)
	key, helper, err := e.Enroll(resp, src)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		noisy := noisyCopy(src, resp, 0.0325)
		back, err := e.Reconstruct(noisy, helper)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(key, back) {
			t.Fatalf("trial %d: wrong key", trial)
		}
	}
}

func TestReconstructFailsAtExtremeBER(t *testing.T) {
	e := testExtractor(t)
	src := rng.New(3)
	resp := randomResponse(src, e.ResponseBits(), 0.627)
	_, helper, err := e.Enroll(resp, src)
	if err != nil {
		t.Fatal(err)
	}
	// 40% BER is far beyond any code budget; the check must catch it.
	failures := 0
	for trial := 0; trial < 20; trial++ {
		noisy := noisyCopy(src, resp, 0.40)
		if _, err := e.Reconstruct(noisy, helper); errors.Is(err, ErrReconstructFailed) {
			failures++
		}
	}
	if failures < 19 {
		t.Fatalf("only %d/20 extreme-noise reconstructions failed the check", failures)
	}
}

func TestDistinctDevicesCannotReconstruct(t *testing.T) {
	// A different chip (BCHD ~ 47%) must not reconstruct the key.
	e := testExtractor(t)
	src := rng.New(4)
	respA := randomResponse(src, e.ResponseBits(), 0.627)
	respB := randomResponse(src, e.ResponseBits(), 0.627)
	_, helper, err := e.Enroll(respA, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Reconstruct(respB, helper); !errors.Is(err, ErrReconstructFailed) {
		t.Fatalf("foreign device reconstructed the key (err=%v)", err)
	}
}

func TestHelperDataMasksSecret(t *testing.T) {
	// Two enrollments of the same response with different randomness must
	// produce different keys and different helper data (the secret, not
	// the response, determines the key).
	e := testExtractor(t)
	src := rng.New(5)
	resp := randomResponse(src, e.ResponseBits(), 0.627)
	k1, h1, err := e.Enroll(resp, rng.New(100))
	if err != nil {
		t.Fatal(err)
	}
	k2, h2, err := e.Enroll(resp, rng.New(200))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k1, k2) {
		t.Fatal("independent enrollments produced the same key")
	}
	if h1.Offset.Equal(h2.Offset) {
		t.Fatal("independent enrollments produced the same helper data")
	}
}

func TestEnrollValidation(t *testing.T) {
	e := testExtractor(t)
	src := rng.New(6)
	if _, _, err := e.Enroll(bitvec.New(10), src); err == nil {
		t.Error("wrong response size accepted")
	}
	if _, _, err := e.Enroll(randomResponse(src, e.ResponseBits(), 0.5), nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := e.Reconstruct(bitvec.New(10), HelperData{}); err == nil {
		t.Error("wrong response size accepted in reconstruct")
	}
	if _, err := e.Reconstruct(randomResponse(src, e.ResponseBits(), 0.5), HelperData{}); err == nil {
		t.Error("empty helper accepted")
	}
	if _, err := New(nil); err == nil {
		t.Error("nil code accepted")
	}
}

func BenchmarkReconstruct(b *testing.B) {
	golay := ecc.NewGolay()
	rep, _ := ecc.NewRepetition(5)
	concat, _ := ecc.NewConcatenated(golay, rep)
	blocked, _ := ecc.NewBlocked(concat, 11)
	e, _ := New(blocked)
	src := rng.New(1)
	resp := randomResponse(src, e.ResponseBits(), 0.627)
	_, helper, err := e.Enroll(resp, src)
	if err != nil {
		b.Fatal(err)
	}
	noisy := noisyCopy(src, resp, 0.03)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Reconstruct(noisy, helper); err != nil {
			b.Fatal(err)
		}
	}
}
