// Command figures regenerates every figure of the paper from the
// simulator:
//
//	-fig 3    power-cycle waveforms of boards S3, S4, S19, S20
//	-fig 4    start-up pattern bitmap of board 0 (ASCII; PGM with -outdir)
//	-fig 5    WCHD / BCHD / FHW histograms at the start of the test
//	-fig 6a   WCHD development over the campaign (per device)
//	-fig 6b   Hamming-weight development
//	-fig 6c   noise-entropy development
//	-fig 6d   PUF-entropy development
//	-fig accel  nominal vs accelerated WCHD trajectories (§IV-D/§V)
//	-fig corners  cross-condition corner-comparison table (sweep)
//	-fig all  everything above
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	sramaging "repro"
	"repro/internal/desim"
	"repro/internal/device"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/silicon"
	"repro/internal/stats"
	"repro/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run() error {
	fig := flag.String("fig", "all", "figure to regenerate: 3, 4, 5, 6a, 6b, 6c, 6d, accel, corners, all")
	devices := flag.Int("devices", 4, "boards for campaign figures (paper: 16)")
	months := flag.Int("months", 6, "months for campaign figures (paper: 24)")
	window := flag.Int("window", 200, "measurements per window (paper: 1000)")
	seed := flag.Uint64("seed", 20170208, "simulation seed")
	outdir := flag.String("outdir", "", "directory for CSV/PGM outputs (optional)")
	flag.Parse()

	profile, err := silicon.ATmega32u4()
	if err != nil {
		return err
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}

	needCampaign := map[string]bool{"5": true, "6a": true, "6b": true, "6c": true, "6d": true, "all": true}
	var res *sramaging.Results
	if needCampaign[*fig] {
		a, err := sramaging.NewAssessment(
			sramaging.WithProfile(profile),
			sramaging.WithDevices(*devices),
			sramaging.WithMonths(*months),
			sramaging.WithWindowSize(*window),
			sramaging.WithSeed(*seed))
		if err != nil {
			return err
		}
		fmt.Printf("running campaign for figures: %d devices, %d months, %d-measurement windows...\n\n",
			*devices, *months, *window)
		if res, err = a.Run(context.Background()); err != nil {
			return err
		}
	}

	want := func(name string) bool { return *fig == name || *fig == "all" }
	if want("3") {
		if err := fig3(profile, *seed); err != nil {
			return err
		}
	}
	if want("4") {
		if err := fig4(profile, *seed, *outdir); err != nil {
			return err
		}
	}
	if want("5") {
		if err := fig5(res); err != nil {
			return err
		}
	}
	for _, sub := range []struct {
		name, title string
		get         func(sramaging.DeviceMonth) float64
	}{
		{"6a", "Fig. 6a — Average within-class Hamming distance", func(d sramaging.DeviceMonth) float64 { return d.WCHD }},
		{"6b", "Fig. 6b — Average Hamming weight", func(d sramaging.DeviceMonth) float64 { return d.FHW }},
		{"6c", "Fig. 6c — Noise entropy", func(d sramaging.DeviceMonth) float64 { return d.NoiseHmin }},
	} {
		if want(sub.name) {
			plot, err := report.LinePlot(sub.title, res.Series(sub.get), res.MonthLabels(), 14)
			if err != nil {
				return err
			}
			fmt.Println(plot)
		}
	}
	if want("6d") {
		plot, err := report.LinePlot("Fig. 6d — PUF entropy (across devices)",
			[][]float64{res.PUFEntropySeries()}, res.MonthLabels(), 10)
		if err != nil {
			return err
		}
		fmt.Println(plot)
	}
	if want("accel") {
		if err := accelComparison(profile, *months); err != nil {
			return err
		}
	}
	if want("corners") {
		if err := cornerTable(*devices, *months, *window, *seed); err != nil {
			return err
		}
	}
	return nil
}

// cornerTable sweeps a reduced campaign across the screening corners and
// prints the cross-condition comparison — the operating-corner companion
// of Table I (worst-corner WCHD/FHW, stable-cell intersection,
// temperature-sensitivity slopes).
func cornerTable(devices, months, window int, seed uint64) error {
	a, err := sramaging.NewAssessment(
		sramaging.WithDevices(devices),
		sramaging.WithMonths(months),
		sramaging.WithWindowSize(window),
		sramaging.WithSeed(seed),
		sramaging.WithConditions(
			sramaging.ColdCorner,
			sramaging.NominalRoomTemp,
			sramaging.HotCorner,
			sramaging.HotHighVoltage,
		),
	)
	if err != nil {
		return err
	}
	fmt.Printf("running corner sweep: 4 corners, %d devices, %d months, %d-measurement windows...\n\n",
		devices, months, window)
	res, err := a.RunSweep(context.Background())
	if err != nil {
		return err
	}
	fmt.Println(sramaging.RenderCornerTable(res.Comparison))
	return nil
}

// fig3 runs a short rig window with waveform tracing and renders the
// power curves of S3, S4 (layer 0) and S19, S20 (layer 1) — the paper's
// oscilloscope channels.
func fig3(profile silicon.DeviceProfile, seed uint64) error {
	hcfg := harness.DefaultConfig(profile, seed)
	rig, err := harness.New(hcfg)
	if err != nil {
		return err
	}
	rig.Switch().SetTracing(true)
	// Only the power-switch trace is drawn; the read-outs are discarded.
	if err := rig.StreamWindow(4, store.Epoch, func(store.Record) error { return nil }); err != nil {
		return err
	}
	trace := rig.Switch().Trace()
	// Paper boards S3/S4 are global 3/4 on layer 0; S19/S20 map to
	// global 11/12 on layer 1 of the 16-slave rig.
	channels := []int{3, 4, 11, 12}
	fmt.Println("Fig. 3 — power waveforms (5.4 s period: 3.8 s on '-', 1.6 s off '_'; layers out of phase)")
	fmt.Print(report.RenderWaveforms(trace, channels, desim.FromSeconds(21.6), 108))
	for _, ch := range channels {
		period, err := device.CyclePeriod(trace, ch)
		if err != nil {
			return err
		}
		on, err := device.OnTime(trace, ch)
		if err != nil {
			return err
		}
		fmt.Printf("  S%-2d measured period: %.2f s, on-time: %.2f s\n", ch, period.Seconds(), on.Seconds())
	}
	fmt.Println()
	return nil
}

// fig4 renders the first power-up pattern of board 0 as a 128-wide bitmap.
func fig4(profile silicon.DeviceProfile, seed uint64, outdir string) error {
	src, err := sramaging.NewSimulatedSource(profile, 1, seed)
	if err != nil {
		return err
	}
	chip := src.Arrays()[0] // board 0's stream
	w, err := chip.PowerUpWindow()
	if err != nil {
		return err
	}
	fmt.Printf("Fig. 4 — start-up pattern of board 0 (1 KByte, FHW %.1f%%)\n", 100*w.FractionalHammingWeight())
	ascii, err := report.RenderPattern(w, 128)
	if err != nil {
		return err
	}
	fmt.Println(ascii)
	if outdir != "" {
		f, err := os.Create(filepath.Join(outdir, "fig4_pattern.pgm"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := report.WritePGM(f, w, 128); err != nil {
			return err
		}
		fmt.Println("PGM written to", f.Name())
	}
	return nil
}

// fig5 renders the month-0 WCHD/BCHD/FHW histograms.
func fig5(res *sramaging.Results) error {
	m0 := res.Monthly[0]
	wchd, _ := stats.NewHistogram(0, 1, 200)
	fhw, _ := stats.NewHistogram(0, 1, 200)
	bchd, _ := stats.NewHistogram(0, 1, 200)
	for _, d := range m0.Devices {
		wchd.Add(d.WCHD)
		fhw.Add(d.FHW)
	}
	bchd.Add(m0.BCHDMean)
	bchd.Add(m0.BCHDMin)
	bchd.Add(m0.BCHDMax)
	fmt.Println("Fig. 5 — distributions at the beginning of the test")
	fmt.Println(report.HistogramPlot("Within-class HD (per-device means)", wchd, 40))
	fmt.Println(report.HistogramPlot("Between-class HD (mean/min/max)", bchd, 40))
	fmt.Println(report.HistogramPlot("Fractional HW (per-device means)", fhw, 40))
	return nil
}

// accelComparison prints the nominal vs accelerated WCHD trajectories.
func accelComparison(nominal silicon.DeviceProfile, months int) error {
	accel, err := silicon.CMOS65nmAccelerated()
	if err != nil {
		return err
	}
	tn, err := sramaging.PredictedWCHDTrajectory(nominal, months)
	if err != nil {
		return err
	}
	ta, err := sramaging.PredictedWCHDTrajectory(accel, months)
	if err != nil {
		return err
	}
	labels := make([]string, months+1)
	for m := range labels {
		labels[m] = store.MonthLabel(m)
	}
	plot, err := report.LinePlot("Nominal (*) vs accelerated (+) WCHD trajectories",
		[][]float64{tn, ta}, labels, 14)
	if err != nil {
		return err
	}
	fmt.Println(plot)
	rn := stats.MonthlyChange(tn[0], tn[len(tn)-1], months)
	ra := stats.MonthlyChange(ta[0], ta[len(ta)-1], months)
	fmt.Printf("monthly WCHD change: nominal %+.2f%%/month, accelerated %+.2f%%/month\n", 100*rn, 100*ra)
	fmt.Printf("(paper: +0.74%%/month nominal vs +1.28%%/month accelerated)\n\n")
	return nil
}
