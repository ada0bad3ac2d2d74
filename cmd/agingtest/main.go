// Command agingtest runs the long-term SRAM PUF assessment campaign — the
// simulated counterpart of the paper's two-year measurement — and prints
// Table I plus the monthly metric series, through the composable
// Source/Assessment API.
//
// The default configuration is a quick demonstration (4 devices, 6
// months, 200-measurement windows, direct sampling). The paper's full
// campaign is:
//
//	agingtest -devices 16 -months 24 -window 1000
//
// With -harness the campaign runs through the full rig simulation
// (masters, power switch, I2C); with -archive FILE it additionally
// streams every measurement record to an archive as it is captured —
// the format cmd/evaluate replays — while the same pass evaluates the
// campaign. The archive format follows the extension: `.bin` streams
// the indexed binary record codec (half the bytes, no per-record JSON
// churn, and a trailer index written at the end of collection so
// evaluate replays any month with an O(1) seek),
// anything else streams JSON lines. -workers bounds evaluation
// parallelism, on the rig path too: how many boards' power-up captures
// and aging run at once. It never changes the output.
//
// With -shards N the device population is partitioned across N shard
// workers (subprocesses running the -shardworker binary, or in-process
// goroutines when no binary is given) and the merged campaign is
// bit-identical to the single-process run:
//
//	agingtest -shards 4 -shardworker ./shardworker -devices 16 -months 24 -window 1000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	sramaging "repro"
	"repro/internal/core"
	"repro/internal/store"
)

// recordTapper is a source whose record stream can be archived: the rig,
// in process or sharded.
type recordTapper interface {
	sramaging.Source
	SetTap(func(sramaging.Record) error)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "agingtest:", err)
		os.Exit(1)
	}
}

func run() error {
	devices := flag.Int("devices", 4, "boards under test (paper: 16)")
	profileName := flag.String("profile", "", "registered device profile name (default atmega32u4, the paper's chip; see sramaging.RegisteredProfiles)")
	fleetNames := flag.String("fleet", "", "comma-separated registered profile names: run a heterogeneous fleet campaign with per-profile breakdowns (exclusive with -profile, -harness, -archive, -keylife)")
	screenFloor := flag.Float64("screen-floor", 0, "corner-screening stability floor in [0, 1): prune devices whose stable-cell ratio falls below it between months (0: off)")
	lazy := flag.Bool("lazy", false, "derive each chip on demand inside its worker slot, holding O(workers) arrays instead of the whole population (default on for -fleet; bits identical either way)")
	months := flag.Int("months", 6, "campaign length in months (paper: 24)")
	window := flag.Int("window", 200, "measurements per monthly window (paper: 1000)")
	seed := flag.Uint64("seed", 20170208, "campaign seed")
	useHarness := flag.Bool("harness", false, "route windows through the full rig simulation")
	i2cErr := flag.Float64("i2c-error", 0, "I2C byte corruption rate (harness path)")
	workers := flag.Int("workers", 0, "evaluation parallelism: sampling slots, or with -harness the rig's capture and aging workers (0: one per CPU; with -shards: total budget split across shards)")
	shards := flag.Int("shards", 0, "fan the campaign across N shard workers (0: single process)")
	shardWorker := flag.String("shardworker", "", "shardworker binary for -shards (default: in-process workers)")
	csvDir := flag.String("csv", "", "directory for Fig. 6 series CSV export")
	archive := flag.String("archive", "", "stream a measurement archive (forces -harness); a .bin path streams the binary codec, anything else JSON lines")
	keylife := flag.Bool("keylife", false, "run the key-lifecycle workload: burn-in screening + enrollment at month 0, streamed reconstruction metrics after")
	remote := flag.String("remote", "", "submit the campaign to an assessd service at this base URL instead of running locally")
	remoteDetach := flag.Bool("remote-detach", false, "with -remote: submit and print the campaign ID without waiting")
	remoteWatch := flag.String("remote-watch", "", "with -remote: stream an existing campaign ID instead of submitting")
	remoteStatus := flag.String("remote-status", "", "with -remote: print a campaign's status and exit")
	remoteCancel := flag.String("remote-cancel", "", "with -remote: cancel a campaign and exit")
	flag.Parse()

	var fleet []string
	if *fleetNames != "" {
		fleet = strings.Split(*fleetNames, ",")
		if !flagWasSet("lazy") {
			// Fleets are where populations get large; lazy construction is
			// bit-identical, so it is the fleet default.
			*lazy = true
		}
		switch {
		case *profileName != "":
			return errors.New("-fleet and -profile are exclusive (the fleet lists its profiles)")
		case *useHarness || *archive != "":
			return errors.New("-fleet campaigns sample the sim source directly; -harness/-archive are single-profile")
		case *keylife:
			return errors.New("the key-lifecycle workload is single-profile; -fleet and -keylife are exclusive")
		}
	}

	if *remote != "" {
		return runRemote(remoteFlags{
			base:   *remote,
			detach: *remoteDetach,
			watch:  *remoteWatch,
			status: *remoteStatus,
			cancel: *remoteCancel,
			spec: sramaging.ServeSpec{
				Profile:     *profileName,
				Fleet:       fleet,
				Devices:     *devices,
				Months:      *months,
				Window:      *window,
				Seed:        *seed,
				I2CError:    *i2cErr,
				Workers:     *workers,
				Shards:      *shards,
				KeyLife:     *keylife,
				ScreenFloor: *screenFloor,
				Lazy:        *lazy && len(fleet) > 0,
			},
		})
	}

	opts := []sramaging.Option{
		sramaging.WithMonths(*months),
		sramaging.WithWindowSize(*window),
		sramaging.WithWorkers(*workers),
	}
	var profile sramaging.DeviceProfile
	if len(fleet) > 0 {
		profiles := make([]sramaging.DeviceProfile, len(fleet))
		for i, name := range fleet {
			p, err := resolveProfile(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			profiles[i] = p
		}
		fl, err := sramaging.NewFleet(profiles...)
		if err != nil {
			return err
		}
		opts = append(opts, sramaging.WithFleet(fl), sramaging.WithDevices(*devices), sramaging.WithSeed(*seed))
	} else {
		var err error
		if profile, err = resolveProfile(*profileName); err != nil {
			return err
		}
	}
	if *screenFloor > 0 {
		opts = append(opts, sramaging.WithScreening(*screenFloor))
	}
	if *lazy {
		opts = append(opts, sramaging.WithLazy())
	}
	if *keylife {
		// ScreenSeed pins the screening round to the CLI seed even on the
		// -archive path, where the assessment sees only a WithSource rig.
		opts = append(opts, sramaging.WithKeyLifecycle(sramaging.KeyLifeConfig{ScreenSeed: *seed}))
	}
	harnessPath := *useHarness || *archive != ""
	var transport sramaging.ShardTransport
	if *shardWorker != "" {
		transport = sramaging.ExecShardTransport(*shardWorker)
	}

	var jw store.RecordWriter
	var archiveFile *os.File
	var archived int
	// rig is the record-tappable source of the -archive collection path:
	// the rig simulation, optionally sharded across workers.
	var rig recordTapper
	if *archive != "" {
		// The rig is built (and validated) here; its record tap and the
		// output file are only wired up after the whole assessment has
		// validated, so a bad configuration cannot truncate an existing
		// archive.
		src, err := core.OpenSim(core.SimSpec{Profile: profile, Devices: *devices, Seed: *seed,
			Rig: true, I2CErrorRate: *i2cErr, Shards: *shards, Transport: transport})
		if err != nil {
			return err
		}
		if c, ok := src.(io.Closer); ok {
			defer c.Close()
		}
		rig = src.(recordTapper)
		opts = append(opts, sramaging.WithSource(rig))
	} else {
		if len(fleet) == 0 {
			opts = append(opts,
				sramaging.WithProfile(profile),
				sramaging.WithDevices(*devices),
				sramaging.WithSeed(*seed))
			if harnessPath {
				opts = append(opts,
					sramaging.WithHarness(),
					sramaging.WithI2CErrorRate(*i2cErr))
			}
		}
		if *shards > 0 {
			opts = append(opts, sramaging.WithShards(*shards))
			if transport != nil {
				opts = append(opts, sramaging.WithShardTransport(transport))
			}
		}
	}
	prevArchived := 0
	opts = append(opts, sramaging.WithProgress(func(ev sramaging.MonthEval) {
		line := fmt.Sprintf("month %2d (%s): WCHD %.3f%%", ev.Month, ev.Label,
			100*ev.Avg(func(d sramaging.DeviceMonth) float64 { return d.WCHD }))
		if *screenFloor > 0 {
			line += fmt.Sprintf(", %d survivors", ev.Survivors)
			if len(ev.Pruned) > 0 {
				line += fmt.Sprintf(" (pruned %v)", ev.Pruned)
			}
		}
		if jw != nil {
			line += fmt.Sprintf(", %d records archived", archived-prevArchived)
			prevArchived = archived
		}
		fmt.Println(line)
	}))

	a, err := sramaging.NewAssessment(opts...)
	if err != nil {
		return err
	}
	if rig != nil {
		// Every configuration knob has validated: now it is safe to
		// create (or truncate) the archive file and install the tap.
		f, err := os.Create(*archive)
		if err != nil {
			return err
		}
		defer f.Close()
		archiveFile = f
		jw = store.NewWriterForPath(*archive, f)
		rig.SetTap(func(rec sramaging.Record) error {
			archived++
			return jw.Write(rec)
		})
	}
	fmt.Printf("running campaign: %d devices, %d months, %d-measurement windows (harness=%v, workers=%d, shards=%d)\n",
		*devices, *months, *window, harnessPath, *workers, *shards)
	res, err := a.Run(context.Background())
	if err != nil {
		return err
	}
	if jw != nil {
		if err := jw.Flush(); err != nil {
			return err
		}
		if err := archiveFile.Close(); err != nil {
			return err
		}
		fmt.Println("archive written to", *archive)
	}
	fmt.Println()
	fmt.Print(sramaging.RenderTableI(res.Table))
	fmt.Println()
	if kt := sramaging.RenderKeyLifeTable(res); kt != "" {
		fmt.Print(kt)
		fmt.Println()
	}
	if *screenFloor > 0 {
		printScreeningSummary(res, *devices)
	}

	wchd := res.Series(func(d sramaging.DeviceMonth) float64 { return d.WCHD })
	plot, err := sramaging.RenderLinePlot("Fig. 6a — WCHD development (one line per device)",
		wchd, res.MonthLabels(), 12)
	if err != nil {
		return err
	}
	fmt.Println(plot)

	if *csvDir != "" {
		if err := exportCSVs(res, *csvDir); err != nil {
			return err
		}
		fmt.Println("series CSVs written to", *csvDir)
	}
	return nil
}

// resolveProfile maps the -profile flag through the profile registry;
// empty keeps the paper's chip.
func resolveProfile(name string) (sramaging.DeviceProfile, error) {
	if name == "" {
		return sramaging.ATmega32u4()
	}
	return sramaging.ProfileByName(name)
}

// flagWasSet reports whether a flag was given explicitly on the command
// line (as opposed to holding its default).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// printScreeningSummary renders the corner-screening outcome: survivor
// count and the month-by-month attrition, per profile where the campaign
// knows one.
func printScreeningSummary(res *sramaging.Results, devices int) {
	last := res.Monthly[len(res.Monthly)-1]
	fmt.Printf("screening: %d of %d devices survive\n", last.Survivors, devices)
	for _, ev := range res.Monthly {
		if len(ev.Pruned) == 0 {
			continue
		}
		names := make([]string, 0, len(ev.Attrition))
		for name := range ev.Attrition {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, name := range names {
			if name == "" {
				parts = append(parts, fmt.Sprintf("%d", ev.Attrition[name]))
			} else {
				parts = append(parts, fmt.Sprintf("%s: %d", name, ev.Attrition[name]))
			}
		}
		fmt.Printf("  after %s: pruned %s\n", ev.Label, strings.Join(parts, ", "))
	}
	fmt.Println()
}

// remoteFlags bundles the -remote client mode's inputs.
type remoteFlags struct {
	base, watch, status, cancel string
	detach                      bool
	spec                        sramaging.ServeSpec
}

// runRemote drives an assessd service: submit (or attach to) a campaign,
// stream its months as they finalise, and render the final table from
// the streamed results — byte-identical to the local run of the same
// parameters, since the service's rig path and the local sim path
// produce the same measurement streams.
func runRemote(rf remoteFlags) error {
	ctx := context.Background()
	client := &sramaging.ServeClient{Base: rf.base}
	switch {
	case rf.status != "":
		st, err := client.Status(ctx, rf.status)
		if err != nil {
			return err
		}
		fmt.Printf("campaign %s: %s, %d months done", st.ID, st.Status, st.MonthsDone)
		if st.Error != "" {
			fmt.Printf(" (%s: %s)", st.ErrKind, st.Error)
		}
		fmt.Println()
		return nil
	case rf.cancel != "":
		st, err := client.Cancel(ctx, rf.cancel)
		if err != nil {
			return err
		}
		fmt.Printf("campaign %s: %s\n", st.ID, st.Status)
		return nil
	}

	onMonth := func(ev sramaging.MonthEval) {
		fmt.Printf("month %2d (%s): WCHD %.3f%%\n", ev.Month, ev.Label,
			100*ev.Avg(func(d sramaging.DeviceMonth) float64 { return d.WCHD }))
	}
	var (
		id  string
		res *sramaging.Results
		err error
	)
	if rf.watch != "" {
		id = rf.watch
		fmt.Printf("streaming campaign %s from %s\n", id, rf.base)
		res, err = client.Watch(ctx, id, onMonth)
	} else {
		if rf.detach {
			st, err := client.Submit(ctx, rf.spec)
			if err != nil {
				return err
			}
			fmt.Println(st.ID)
			return nil
		}
		fmt.Printf("submitting campaign to %s: %d devices, %d months, %d-measurement windows (shards=%d)\n",
			rf.base, rf.spec.Devices, rf.spec.Months, rf.spec.Window, rf.spec.Shards)
		id, res, err = client.Run(ctx, rf.spec, onMonth)
	}
	if err != nil {
		return err
	}
	fmt.Printf("campaign %s done\n", id)
	fmt.Println()
	fmt.Print(sramaging.RenderTableI(res.Table))
	fmt.Println()
	if kt := sramaging.RenderKeyLifeTable(res); kt != "" {
		fmt.Print(kt)
		fmt.Println()
	}
	wchd := res.Series(func(d sramaging.DeviceMonth) float64 { return d.WCHD })
	plot, err := sramaging.RenderLinePlot("Fig. 6a — WCHD development (one line per device)",
		wchd, res.MonthLabels(), 12)
	if err != nil {
		return err
	}
	fmt.Println(plot)
	return nil
}

func exportCSVs(res *sramaging.Results, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	labels := res.MonthLabels()
	headers := make([]string, len(res.Monthly[0].Devices))
	for d := range headers {
		headers[d] = fmt.Sprintf("board%d", d)
	}
	series := map[string][][]float64{
		"fig6a_wchd.csv":          res.Series(func(d sramaging.DeviceMonth) float64 { return d.WCHD }),
		"fig6b_hw.csv":            res.Series(func(d sramaging.DeviceMonth) float64 { return d.FHW }),
		"fig6c_noise_entropy.csv": res.Series(func(d sramaging.DeviceMonth) float64 { return d.NoiseHmin }),
		"stable_cells.csv":        res.Series(func(d sramaging.DeviceMonth) float64 { return d.StableRatio }),
	}
	for name, s := range series {
		if err := writeCSV(filepath.Join(dir, name), labels, headers, s); err != nil {
			return err
		}
	}
	return writeCSV(filepath.Join(dir, "fig6d_puf_entropy.csv"), labels,
		[]string{"puf_entropy"}, [][]float64{res.PUFEntropySeries()})
}

func writeCSV(path string, labels, headers []string, series [][]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sramaging.WriteSeriesCSV(f, "month", labels, headers, series); err != nil {
		return err
	}
	return f.Close()
}
