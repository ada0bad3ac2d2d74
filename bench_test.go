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
	"repro/internal/desim"
	"repro/internal/ecc"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/sram"
	"repro/internal/stats"
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
		if err := rig.StreamWindow(4, 0, func(store.Record) error { return nil }); err != nil {
			b.Fatal(err)
		}
		out := report.RenderWaveforms(rig.Switch().Trace(), []int{0, 1, 2, 3}, desim.FromSeconds(21.6), 108)
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
// distributions (experiment F5) the way `figures -fig 5` does: month-0
// results binned with stats.NewHistogram and drawn with
// report.HistogramPlot.
func BenchmarkFig5Histograms(b *testing.B) {
	m0 := runBenchCampaign(b).Monthly[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wchd, err := stats.NewHistogram(0, 1, 200)
		if err != nil {
			b.Fatal(err)
		}
		fhw, _ := stats.NewHistogram(0, 1, 200)
		bchd, _ := stats.NewHistogram(0, 1, 200)
		for _, d := range m0.Devices {
			wchd.Add(d.WCHD)
			fhw.Add(d.FHW)
		}
		bchd.Add(m0.BCHDMean)
		bchd.Add(m0.BCHDMin)
		bchd.Add(m0.BCHDMax)
		for _, h := range []*stats.Histogram{wchd, bchd, fhw} {
			if report.HistogramPlot("F5", h, 40) == "" {
				b.Fatal("empty histogram plot")
			}
		}
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

// BenchmarkAblationDebias times index-based debiasing, the scheme the
// key-lifecycle campaigns use, on the paper's 62.7%-biased source.
func BenchmarkAblationDebias(b *testing.B) {
	src := rng.New(4)
	in := bitvec.New(8192)
	for i := 0; i < in.Len(); i++ {
		in.Set(i, src.Bernoulli(0.627))
	}
	b.Run("index-selection", func(b *testing.B) {
		sel, err := debias.NewIndexSelectionMasked(in, nil, 1024)
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
