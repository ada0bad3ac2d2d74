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
// (masters, power switch, I2C). With -archive FILE every measurement
// record streams to an archive as it is captured — the format
// cmd/evaluate replays — while the same pass evaluates the campaign.
// Every layout (direct, -harness, -fleet, -shards) frames the same
// records, so the archive does not depend on the layout. The archive
// format follows the extension: `.bin` streams the indexed binary record
// codec (half the bytes, no per-record JSON churn, and a trailer index
// written at the end of collection so evaluate replays any month with an
// O(1) seek); anything else streams JSON lines, an export format that
// evaluate -index converts to binary once before replaying it. -workers
// bounds evaluation parallelism, on the rig path too: how many boards'
// power-up captures and aging run at once. It never changes the output.
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

// recordTapper is a source whose record stream can be archived: every
// simulated source, direct or rig, in process or sharded.
type recordTapper interface {
	SetTap(func(sramaging.Record) error)
}

// errFlags marks a command line the flag parser refused; the parser has
// already printed the error and the usage.
var errFlags = errors.New("bad command line")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errFlags):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "agingtest:", err)
		os.Exit(1)
	}
}

// run parses args (the command line without the program name) and
// writes the campaign's report to stdout.
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("agingtest", flag.ContinueOnError)
	devices := flags.Int("devices", 4, "boards under test (paper: 16)")
	profileName := flags.String("profile", "", "registered device profile name (default atmega32u4, the paper's chip; see sramaging.RegisteredProfiles)")
	fleetNames := flags.String("fleet", "", "comma-separated registered profile names: run a heterogeneous fleet campaign with per-profile breakdowns (exclusive with -profile, -harness, -keylife)")
	screenFloor := flags.Float64("screen-floor", 0, "corner-screening stability floor in [0, 1): prune devices whose stable-cell ratio falls below it between months (0: off)")
	lazy := flags.Bool("lazy", false, "derive each chip on demand inside its worker slot, holding O(workers) arrays instead of the whole population (default on for -fleet; bits identical either way)")
	months := flags.Int("months", 6, "campaign length in months (paper: 24)")
	window := flags.Int("window", 200, "measurements per monthly window (paper: 1000)")
	seed := flags.Uint64("seed", 20170208, "campaign seed")
	useHarness := flags.Bool("harness", false, "route windows through the full rig simulation")
	i2cErr := flags.Float64("i2c-error", 0, "I2C byte corruption rate (needs -harness, or -remote)")
	workers := flags.Int("workers", 0, "evaluation parallelism: sampling slots, or with -harness the rig's capture and aging workers (0: one per CPU; with -shards: total budget split across shards)")
	shards := flags.Int("shards", 0, "fan the campaign across N shard workers (0: single process)")
	shardWorker := flags.String("shardworker", "", "shardworker binary for -shards (default: in-process workers)")
	csvDir := flags.String("csv", "", "directory for Fig. 6 series CSV export")
	archive := flags.String("archive", "", "stream the campaign's measurement records to an archive, on any layout; a .bin path streams the binary codec, anything else JSON lines (replay converts those once: evaluate -index)")
	keylife := flags.Bool("keylife", false, "run the key-lifecycle workload: burn-in screening + enrollment at month 0, streamed reconstruction metrics after")
	remote := flags.String("remote", "", "submit the campaign to an assessd service at this base URL instead of running locally")
	remoteDetach := flags.Bool("remote-detach", false, "with -remote: submit and print the campaign ID without waiting")
	remoteWatch := flags.String("remote-watch", "", "with -remote: stream an existing campaign ID instead of submitting")
	remoteStatus := flags.String("remote-status", "", "with -remote: print a campaign's status and exit")
	remoteCancel := flags.String("remote-cancel", "", "with -remote: cancel a campaign and exit")
	if err := flags.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errFlags, err)
	}

	var fleet []string
	if *fleetNames != "" {
		fleet = strings.Split(*fleetNames, ",")
		if !flagWasSet(flags, "lazy") {
			// Fleets are where populations get large; lazy construction is
			// bit-identical, so it is the fleet default.
			*lazy = true
		}
		if *profileName != "" {
			return errors.New("-fleet and -profile are exclusive (the fleet lists its profiles)")
		}
	}

	if *remote != "" {
		return runRemote(stdout, remoteFlags{
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

	if *i2cErr != 0 && !*useHarness {
		// Only the rig models the bus; a direct run would drop the rate.
		return errors.New("-i2c-error needs -harness (only the rig simulation has an I2C bus)")
	}
	opts := []sramaging.Option{
		sramaging.WithMonths(*months),
		sramaging.WithWindowSize(*window),
		sramaging.WithWorkers(*workers),
	}
	// The silicon: a fleet, or one profile.
	var profile sramaging.DeviceProfile
	var fl *sramaging.Fleet
	if len(fleet) > 0 {
		profiles := make([]sramaging.DeviceProfile, len(fleet))
		for i, name := range fleet {
			p, err := resolveProfile(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			profiles[i] = p
		}
		var err error
		if fl, err = sramaging.NewFleet(profiles...); err != nil {
			return err
		}
	} else {
		var err error
		if profile, err = resolveProfile(*profileName); err != nil {
			return err
		}
	}
	if *screenFloor != 0 {
		opts = append(opts, sramaging.WithScreening(*screenFloor))
	}
	if *keylife {
		// ScreenProfile and ScreenSeed pin the screening round to the CLI
		// silicon: the assessment sees only the WithSource source.
		opts = append(opts, sramaging.WithKeyLifecycle(sramaging.KeyLifeConfig{ScreenProfile: profile, ScreenSeed: *seed}))
	}
	var transport sramaging.ShardTransport
	if *shardWorker != "" {
		transport = sramaging.ExecShardTransport(*shardWorker)
	}

	// The source is built (and validated) here, the same way whether or
	// not the campaign is archived: every layout frames the same records.
	// Its record tap and the archive file are only wired up after the
	// whole assessment has validated, so a bad configuration cannot
	// truncate an existing archive.
	spec := core.SimSpec{Profile: profile, Fleet: fl, Devices: *devices, Seed: *seed, Rig: *useHarness,
		I2CErrorRate: *i2cErr, Lazy: *lazy, Shards: *shards, Transport: transport}
	if err := (core.CampaignSpec{Sim: &spec, Window: *window, KeyLife: *keylife}).Validate(); err != nil {
		return err
	}
	src, err := core.OpenSim(spec)
	if err != nil {
		return err
	}
	if c, ok := src.(io.Closer); ok {
		defer c.Close()
	}
	opts = append(opts, sramaging.WithSource(src))
	var jw store.RecordWriter
	var archiveFile *os.File
	var archived int
	prevArchived := 0
	opts = append(opts, sramaging.WithProgress(func(ev sramaging.MonthEval) {
		line := monthLine(ev)
		if jw != nil {
			line += fmt.Sprintf(", %d records archived", archived-prevArchived)
			prevArchived = archived
		}
		fmt.Fprintln(stdout, line)
	}))

	a, err := sramaging.NewAssessment(opts...)
	if err != nil {
		return err
	}
	if *archive != "" {
		// Every configuration knob has validated: now it is safe to
		// create (or truncate) the archive file and install the tap.
		f, err := os.Create(*archive)
		if err != nil {
			return err
		}
		defer f.Close()
		archiveFile = f
		jw = store.NewWriterForPath(*archive, f)
		src.(recordTapper).SetTap(func(rec sramaging.Record) error {
			archived++
			return jw.Write(rec)
		})
	}
	fmt.Fprintf(stdout, "running campaign: %d devices, %d months, %d-measurement windows (harness=%v, workers=%d, shards=%d)\n",
		*devices, *months, *window, *useHarness, *workers, *shards)
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
		fmt.Fprintln(stdout, "archive written to", *archive)
	}
	if err := report(stdout, res); err != nil {
		return err
	}

	if *csvDir != "" {
		if err := exportCSVs(res, *csvDir); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "series CSVs written to", *csvDir)
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
func flagWasSet(flags *flag.FlagSet, name string) bool {
	set := false
	flags.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// monthLine renders one streamed month: the average WCHD, and for a
// screened campaign the survivors and the devices pruned after it.
func monthLine(ev sramaging.MonthEval) string {
	line := fmt.Sprintf("month %2d (%s): WCHD %.3f%%", ev.Month, ev.Label,
		100*ev.Avg(func(d sramaging.DeviceMonth) float64 { return d.WCHD }))
	if ev.Survivors > 0 {
		line += fmt.Sprintf(", %d survivors", ev.Survivors)
		if len(ev.Pruned) > 0 {
			line += fmt.Sprintf(" (pruned %v)", ev.Pruned)
		}
	}
	return line
}

// report renders a finished campaign, local or remote: Table I, the
// key-lifecycle table, the screening summary of a screened campaign and
// the Fig. 6a WCHD plot.
func report(stdout io.Writer, res *sramaging.Results) error {
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, sramaging.RenderTableI(res.Table))
	fmt.Fprintln(stdout)
	if kt := sramaging.RenderKeyLifeTable(res); kt != "" {
		fmt.Fprint(stdout, kt)
		fmt.Fprintln(stdout)
	}
	if res.Monthly[0].Survivors > 0 {
		printScreeningSummary(stdout, res)
	}
	wchd := res.Series(func(d sramaging.DeviceMonth) float64 { return d.WCHD })
	plot, err := sramaging.RenderLinePlot("Fig. 6a — WCHD development (one line per device)",
		wchd, res.MonthLabels(), 12)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, plot)
	return nil
}

// printScreeningSummary renders the corner-screening outcome: survivor
// count and the month-by-month attrition, per profile where the campaign
// knows one.
func printScreeningSummary(stdout io.Writer, res *sramaging.Results) {
	first, last := res.Monthly[0], res.Monthly[len(res.Monthly)-1]
	fmt.Fprintf(stdout, "screening: %d of %d devices survive\n", last.Survivors, len(first.Devices))
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
		fmt.Fprintf(stdout, "  after %s: pruned %s\n", ev.Label, strings.Join(parts, ", "))
	}
	fmt.Fprintln(stdout)
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
func runRemote(stdout io.Writer, rf remoteFlags) error {
	ctx := context.Background()
	client := &sramaging.ServeClient{Base: rf.base}
	switch {
	case rf.status != "":
		st, err := client.Status(ctx, rf.status)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "campaign %s: %s, %d months done", st.ID, st.Status, st.MonthsDone)
		if st.Error != "" {
			fmt.Fprintf(stdout, " (%s: %s)", st.ErrKind, st.Error)
		}
		fmt.Fprintln(stdout)
		return nil
	case rf.cancel != "":
		st, err := client.Cancel(ctx, rf.cancel)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "campaign %s: %s\n", st.ID, st.Status)
		return nil
	}

	onMonth := func(ev sramaging.MonthEval) { fmt.Fprintln(stdout, monthLine(ev)) }
	var (
		id  string
		res *sramaging.Results
		err error
	)
	if rf.watch != "" {
		id = rf.watch
		fmt.Fprintf(stdout, "streaming campaign %s from %s\n", id, rf.base)
		res, err = client.Watch(ctx, id, onMonth)
	} else {
		if rf.detach {
			st, err := client.Submit(ctx, rf.spec)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, st.ID)
			return nil
		}
		fmt.Fprintf(stdout, "submitting campaign to %s: %d devices, %d months, %d-measurement windows (shards=%d)\n",
			rf.base, rf.spec.Devices, rf.spec.Months, rf.spec.Window, rf.spec.Shards)
		id, res, err = client.Run(ctx, rf.spec, onMonth)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "campaign %s done\n", id)
	return report(stdout, res)
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
