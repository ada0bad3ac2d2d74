package stream

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/entropy"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/sram"
)

// The memory/throughput claim of the streaming refactor, machine-checked:
// evaluating one device-window by streaming costs O(array size) heap —
// one scratch vector plus the accumulator state — while the historical
// collect-then-evaluate flow allocates every one of the WindowSize
// patterns plus per-measurement metric series. Run with -benchmem and
// compare B/op across the two and across window sizes: streaming B/op is
// flat in WindowSize, batch B/op scales linearly with it.

func benchArray(b *testing.B) *sram.Array {
	b.Helper()
	profile, err := silicon.ATmega32u4()
	if err != nil {
		b.Fatal(err)
	}
	a, err := sram.New(profile, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func benchStreaming(b *testing.B, window int) {
	a := benchArray(b)
	bits := a.Profile().ReadWindowBits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev := NewDevice(nil)
		scratch := bitvec.New(bits)
		for k := 0; k < window; k++ {
			if err := a.PowerUpWindowInto(scratch); err != nil {
				b.Fatal(err)
			}
			if err := dev.Add(scratch); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := dev.Result(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBatch(b *testing.B, window int) {
	a := benchArray(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := make([]*bitvec.Vector, window)
		for k := range ws {
			w, err := a.PowerUpWindow()
			if err != nil {
				b.Fatal(err)
			}
			ws[k] = w
		}
		ref := ws[0].Clone()
		if _, err := metrics.WithinClassHD(ref, ws); err != nil {
			b.Fatal(err)
		}
		if _, err := metrics.FractionalHW(ws); err != nil {
			b.Fatal(err)
		}
		counts, n, err := entropy.OneCounts(ws)
		if err != nil {
			b.Fatal(err)
		}
		probs, err := entropy.ProbabilitiesFromCounts(counts, n)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := entropy.NoiseMinEntropy(probs); err != nil {
			b.Fatal(err)
		}
		if _, err := entropy.StableCellRatio(counts, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceWindowStreaming250(b *testing.B)  { benchStreaming(b, 250) }
func BenchmarkDeviceWindowStreaming1000(b *testing.B) { benchStreaming(b, 1000) }
func BenchmarkDeviceWindowBatch250(b *testing.B)      { benchBatch(b, 250) }
func BenchmarkDeviceWindowBatch1000(b *testing.B)     { benchBatch(b, 1000) }
