package trng

import (
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/sram"
)

func sramSource(t testing.TB, seed uint64) PatternSource {
	t.Helper()
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	a, err := sram.New(profile, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return a.PowerUpWindow
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{BytesPerPattern: 0, MinFlipFraction: 0.01, MaxFlipFraction: 0.2},
		{BytesPerPattern: 16, MinFlipFraction: -0.1, MaxFlipFraction: 0.2},
		{BytesPerPattern: 16, MinFlipFraction: 0.3, MaxFlipFraction: 0.2},
		{BytesPerPattern: 16, MinFlipFraction: 0.01, MaxFlipFraction: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := New(sramSource(t, 1), Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestReadProducesBytes(t *testing.T) {
	g, err := New(sramSource(t, 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	n, err := io.ReadFull(g, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1024 {
		t.Fatalf("read %d bytes", n)
	}
	if g.Emitted() != 1024 {
		t.Fatalf("Emitted = %d", g.Emitted())
	}
	// 16 bytes per pattern -> 64 patterns consumed.
	if g.Patterns() != 64 {
		t.Fatalf("Patterns = %d, want 64", g.Patterns())
	}
	if g.failed != nil {
		t.Fatal("generator unhealthy after normal reads")
	}
}

func TestOutputIsBalanced(t *testing.T) {
	g, err := New(sramSource(t, 2), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 20000)
	if _, err := io.ReadFull(g, buf); err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, b := range buf {
		for i := 0; i < 8; i++ {
			ones += int(b >> uint(i) & 1)
		}
	}
	frac := float64(ones) / float64(len(buf)*8)
	if math.Abs(frac-0.5) > 0.005 {
		t.Fatalf("output bit balance = %v (SRAM bias must be conditioned away)", frac)
	}
}

func TestOutputsDifferAcrossDevices(t *testing.T) {
	g1, err := New(sramSource(t, 3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(sramSource(t, 4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b1 := make([]byte, 256)
	b2 := make([]byte, 256)
	if _, err := io.ReadFull(g1, b1); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(g2, b2); err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range b1 {
		if b1[i] == b2[i] {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("%d/256 identical bytes across devices", same)
	}
}

func TestStuckSourceTripsHealthTest(t *testing.T) {
	// A source that returns the identical pattern every time (e.g. a
	// non-volatile memory masquerading as SRAM) must be rejected.
	fixed := bitvec.New(8192)
	for i := 0; i < 8192; i += 3 {
		fixed.Set(i, true)
	}
	stuck := func() (*bitvec.Vector, error) { return fixed.Clone(), nil }
	g, err := New(stuck, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	_, err = io.ReadFull(g, buf)
	if !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("stuck source not detected: %v", err)
	}
	if g.failed == nil {
		t.Fatal("generator still healthy after failure")
	}
	// Failure latches.
	if _, err := g.Read(buf); !errors.Is(err, ErrUnhealthy) {
		t.Fatal("latched failure did not persist")
	}
}

func TestExcessiveNoiseTripsHealthTest(t *testing.T) {
	// A source with 50% flip rate (pure noise, no PUF structure) is also
	// out of band.
	src := rng.New(5)
	noise := func() (*bitvec.Vector, error) {
		v := bitvec.New(8192)
		for i := 0; i < 8192; i++ {
			v.Set(i, src.Bernoulli(0.5))
		}
		return v, nil
	}
	g, err := New(noise, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := io.ReadFull(g, buf); !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("pure-noise source not detected: %v", err)
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	bad := func() (*bitvec.Vector, error) { return nil, boom }
	g, err := New(bad, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Read(make([]byte, 8)); !errors.Is(err, boom) {
		t.Fatalf("source error not propagated: %v", err)
	}
}

func TestLargeBytesPerPatternStretch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BytesPerPattern = 48 // > one SHA-256 block, exercises stretching
	g, err := New(sramSource(t, 6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 96)
	if _, err := io.ReadFull(g, buf); err != nil {
		t.Fatal(err)
	}
	if g.Patterns() != 2 {
		t.Fatalf("Patterns = %d, want 2", g.Patterns())
	}
}

func BenchmarkTRNGThroughput(b *testing.B) {
	g, err := New(sramSource(b, 1), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := io.ReadFull(g, buf); err != nil {
			b.Fatal(err)
		}
	}
}
