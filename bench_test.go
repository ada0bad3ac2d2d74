// Benchmarks regenerating every table and figure of the paper, plus the
// ablation benches listed in DESIGN.md §11. Each Benchmark* function is the
// machine-checked counterpart of one experiment id in DESIGN.md §10;
// campaign-scale benches run a reduced configuration per iteration (the
// full 16-device / 24-month / 1,000-window campaign is produced by
// cmd/agingtest and recorded in EXPERIMENTS.md).
package sramaging

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/debias"
	"repro/internal/ecc"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/sram"
	"repro/internal/store"
)

// Shape of the reduced per-iteration campaign the table/figure benches
// run: the paper's board and seed, fewer devices, months and reads.
const benchDevices, benchMonths = 4, 3

// runBenchCampaign runs the reduced campaign on the direct path.
func runBenchCampaign(b *testing.B) *core.Results {
	b.Helper()
	profile, err := silicon.ATmega32u4()
	if err != nil {
		b.Fatal(err)
	}
	src, err := core.OpenSim(core.SimSpec{Profile: profile, Devices: benchDevices, Seed: 20170208})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewAssessment(core.AssessmentConfig{Source: src, WindowSize: 100, Months: core.MonthRange(benchMonths)})
	if err != nil {
		b.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTableI regenerates the Table I pipeline (experiment T1).
func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := runBenchCampaign(b)
		if out := report.RenderTableI(res.Table); !strings.Contains(out, "WCHD") {
			b.Fatal("table rendering failed")
		}
	}
}

// BenchmarkFig3Waveform regenerates the power-cycle waveform trace
// (experiment F3).
func BenchmarkFig3Waveform(b *testing.B) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hcfg := harness.DefaultConfig(profile, 3)
		hcfg.SlavesPerLayer = 2
		rig, err := harness.New(hcfg)
		if err != nil {
			b.Fatal(err)
		}
		rig.Switch().SetTracing(true)
		if err := rig.StreamWindow(4, store.Epoch, func(store.Record) error { return nil }); err != nil {
			b.Fatal(err)
		}
		out := report.RenderWaveforms(rig.Switch().Trace(), []int{0, 1, 2, 3}, rig.Sim().Now(), 108)
		if len(out) == 0 {
			b.Fatal("no waveform output")
		}
	}
}

// BenchmarkFig4Pattern regenerates the start-up pattern bitmap
// (experiment F4).
func BenchmarkFig4Pattern(b *testing.B) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		b.Fatal(err)
	}
	chip, err := sram.New(profile, rng.New(0))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := chip.PowerUpWindow()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := report.RenderPattern(w, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Histograms regenerates the start-of-test WCHD/BCHD/FHW
// distributions (experiment F5).
func BenchmarkFig5Histograms(b *testing.B) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		b.Fatal(err)
	}
	root := rng.New(42)
	const devices = 4
	const windows = 50
	refs := make([]*bitvec.Vector, devices)
	sets := make([][]*bitvec.Vector, devices)
	for d := 0; d < devices; d++ {
		chip, err := sram.New(profile, root.Derive(uint64(d)+1))
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < windows; k++ {
			w, err := chip.PowerUpWindow()
			if err != nil {
				b.Fatal(err)
			}
			if k == 0 {
				refs[d] = w
			}
			sets[d] = append(sets[d], w)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := metrics.NewHistograms(100)
		if err != nil {
			b.Fatal(err)
		}
		for d := 0; d < devices; d++ {
			wc, err := metrics.WithinClassHD(refs[d], sets[d])
			if err != nil {
				b.Fatal(err)
			}
			fw, err := metrics.FractionalHW(sets[d])
			if err != nil {
				b.Fatal(err)
			}
			h.AddDevice(wc, fw)
		}
		bc, err := metrics.BetweenClassHD(refs)
		if err != nil {
			b.Fatal(err)
		}
		h.AddBetweenClass(bc)
	}
}

// BenchmarkFig6Series regenerates the monthly metric time series
// (experiments F6a-F6d).
func BenchmarkFig6Series(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := runBenchCampaign(b)
		if s := res.Series(func(d core.DeviceMonth) float64 { return d.WCHD }); len(s) != benchDevices {
			b.Fatal("series extraction failed")
		}
		if s := res.PUFEntropySeries(); len(s) != benchMonths+1 {
			b.Fatal("PUF series extraction failed")
		}
	}
}

// BenchmarkAccelComparison regenerates the nominal-vs-accelerated WCHD
// trajectories (experiment X1).
func BenchmarkAccelComparison(b *testing.B) {
	nom, err := silicon.ATmega32u4()
	if err != nil {
		b.Fatal(err)
	}
	acc, err := silicon.CMOS65nmAccelerated()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PredictedWCHDTrajectory(nom, 24); err != nil {
			b.Fatal(err)
		}
		if _, err := core.PredictedWCHDTrajectory(acc, 24); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeyReconstruction measures the key-generation pipeline at the
// paper's end-of-life BER (experiment X2).
func BenchmarkKeyReconstruction(b *testing.B) {
	e, err := NewKeyExtractor()
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	resp := bitvec.New(e.ResponseBits())
	for i := 0; i < resp.Len(); i++ {
		resp.Set(i, src.Bernoulli(0.627))
	}
	_, helper, err := e.Enroll(resp, src)
	if err != nil {
		b.Fatal(err)
	}
	noisy := resp.Clone()
	for i := 0; i < noisy.Len(); i++ {
		if src.Bernoulli(0.0325) {
			noisy.Set(i, !noisy.Get(i))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Reconstruct(noisy, helper); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTRNG measures the SRAM-PUF TRNG throughput (experiment X3).
func BenchmarkTRNG(b *testing.B) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		b.Fatal(err)
	}
	chip, err := sram.New(profile, rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	gen, err := NewTRNG(chip)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1024)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := io.ReadFull(gen, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §11) ---

// BenchmarkAblationAgingExponent sweeps the BTI power-law exponent: the
// kinetics shape changes the per-step work only marginally but the drift
// magnitude substantially.
func BenchmarkAblationAgingExponent(b *testing.B) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		b.Fatal(err)
	}
	for _, beta := range []float64{0.20, 0.35, 0.50} {
		b.Run(fmt.Sprintf("beta=%.2f", beta), func(b *testing.B) {
			p := profile
			p.Kinetics.Exponent = beta
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chip, err := sram.New(p, rng.New(1))
				if err != nil {
					b.Fatal(err)
				}
				if err := chip.AgeTo(24); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNoisePath compares the Bernoulli fast path against the
// physically literal full-Gaussian-noise power-up.
func BenchmarkAblationNoisePath(b *testing.B) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		b.Fatal(err)
	}
	chip, err := sram.New(profile, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	dst := bitvec.New(chip.Cells())
	b.Run("bernoulli", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := chip.PowerUp(dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-noise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := chip.PowerUpFullNoise(dst, 1.0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationECC compares decoder costs of the implemented codes at
// the paper's BER.
func BenchmarkAblationECC(b *testing.B) {
	src := rng.New(3)
	codes := []ecc.Code{}
	rep5, err := ecc.NewRepetition(5)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := ecc.NewBlocked(rep5, 64)
	if err != nil {
		b.Fatal(err)
	}
	codes = append(codes, rep)
	golayRep, err := ecc.NewConcatenated(ecc.NewGolay(), rep5)
	if err != nil {
		b.Fatal(err)
	}
	golayBlocked, err := ecc.NewBlocked(golayRep, 6)
	if err != nil {
		b.Fatal(err)
	}
	codes = append(codes, golayBlocked)
	polar, err := ecc.NewPolar(512, 64, 0.03)
	if err != nil {
		b.Fatal(err)
	}
	codes = append(codes, polar)
	for _, code := range codes {
		code := code
		b.Run(code.Name(), func(b *testing.B) {
			msg := bitvec.New(code.K())
			for i := 0; i < msg.Len(); i++ {
				msg.Set(i, src.Bernoulli(0.5))
			}
			cw, err := code.Encode(msg)
			if err != nil {
				b.Fatal(err)
			}
			noisy := cw.Clone()
			for i := 0; i < noisy.Len(); i++ {
				if src.Bernoulli(0.03) {
					noisy.Set(i, !noisy.Get(i))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := code.Decode(noisy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDebias compares the debiasing schemes on the paper's
// 62.7%-biased source.
func BenchmarkAblationDebias(b *testing.B) {
	src := rng.New(4)
	in := bitvec.New(8192)
	for i := 0; i < in.Len(); i++ {
		in.Set(i, src.Bernoulli(0.627))
	}
	b.Run("cvn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := debias.ClassicVonNeumann(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("peres-depth3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := debias.Peres(in, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("index-selection", func(b *testing.B) {
		sel, err := debias.NewIndexSelection(in, 1024)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sel.Apply(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRamp sweeps the effective noise sigma, the knob the
// voltage-ramp-time adaptation of Cortez et al. (paper ref [17]) turns:
// slower ramps reduce noise (fewer flips), faster ramps increase it.
func BenchmarkAblationRamp(b *testing.B) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		b.Fatal(err)
	}
	chip, err := sram.New(profile, rng.New(6))
	if err != nil {
		b.Fatal(err)
	}
	dst := bitvec.New(chip.Cells())
	for _, sigma := range []float64{0.5, 1.0, 2.0} {
		b.Run(fmt.Sprintf("sigma=%.1f", sigma), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := chip.PowerUpFullNoise(dst, sigma); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
