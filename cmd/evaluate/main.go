// Command evaluate replays the paper's offline analysis: it reads a
// measurement archive (as produced by agingtest -archive, or by a real
// Raspberry-Pi-backed rig using the same schema) and runs the exact
// same Assessment the live campaign runs — archive replay is a
// first-class Source, so the monthly window selection, the streaming
// accumulators and the Table I assembly are one code path. Replay reads
// the binary format, both versions detected by their magic: indexed (v2)
// archives replay seek-based, each month's windows streaming straight
// from the file, and a v1 archive is scanned once. -index upgrades an
// older archive in place — a v1 archive, or a JSON-lines one, which
// replay refuses until it is converted. Every format replays to
// bit-identical tables.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	sramaging "repro"
)

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
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}

// archive is what evaluate needs of a replay source, plain or sharded:
// the source itself and the archive's description for the banner.
type archive interface {
	sramaging.Source
	Boards() []int
	Info() sramaging.ArchiveInfo
	Close() error
}

// indexedNote annotates the archive banner when replay is seek-based.
func indexedNote(info sramaging.ArchiveInfo) string {
	if info.Indexed {
		return ", indexed"
	}
	return ""
}

// run parses args (the command line without the program name) and
// writes the replay's report to stdout.
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("evaluate", flag.ContinueOnError)
	path := flags.String("archive", "", "binary measurement archive (required); a JSONL archive needs -index once to convert it")
	window := flags.Int("window", 200, "measurements per monthly evaluation window")
	shards := flags.Int("shards", 0, "fan the replay across N shard workers (0: single process)")
	shardWorker := flags.String("shardworker", "", "shardworker binary for -shards (default: in-process workers)")
	index := flags.Bool("index", false, "upgrade the archive (JSONL or v1 binary) in place to the indexed binary format (v2) before replaying")
	keylife := flags.Bool("keylife", false, "replay the key-lifecycle workload: screening + enrollment re-derived from -seed, reconstruction from the archived measurements")
	seed := flags.Uint64("seed", 20170208, "campaign seed of the recorded campaign (screens the population for -keylife)")
	profileName := flags.String("profile", "", "registered profile name of the recorded campaign (screens the population for -keylife; default atmega32u4)")
	if err := flags.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errFlags, err)
	}
	if *path == "" {
		flags.Usage()
		return fmt.Errorf("missing -archive")
	}
	if *index {
		upgraded, err := sramaging.UpgradeArchive(*path)
		if err != nil {
			return err
		}
		if upgraded {
			fmt.Fprintf(stdout, "indexed %s\n", *path)
		} else {
			fmt.Fprintf(stdout, "%s already indexed\n", *path)
		}
	}
	var (
		src    archive
		err    error
		across string
	)
	if *shards > 0 {
		var transport sramaging.ShardTransport
		if *shardWorker != "" {
			transport = sramaging.ExecShardTransport(*shardWorker)
		}
		src, err = sramaging.NewShardedArchiveSource(*path, *shards, transport)
		across = fmt.Sprintf(" across %d shards", *shards)
	} else {
		src, err = sramaging.OpenArchiveSource(*path)
	}
	if err != nil {
		return err
	}
	defer src.Close()
	info := src.Info()
	fmt.Fprintf(stdout, "archive: %d boards %v (%s%s, %d records)%s\n\n",
		src.Devices(), src.Boards(), info.Format, indexedNote(info), info.Records, across)

	// No WithMonths: the archive source lists the months it holds
	// complete windows for, and the assessment evaluates exactly those.
	opts := []sramaging.Option{
		sramaging.WithSource(src),
		sramaging.WithWindowSize(*window),
	}
	if *keylife {
		// The replay's screening must re-derive the recorded population's
		// masks: ScreenSeed (and, for a non-default device family,
		// ScreenProfile) carry the original campaign parameters past the
		// WithSource path (which never sets them).
		cfg := sramaging.KeyLifeConfig{ScreenSeed: *seed}
		if *profileName != "" {
			p, err := sramaging.ProfileByName(*profileName)
			if err != nil {
				return err
			}
			cfg.ScreenProfile = p
		}
		opts = append(opts, sramaging.WithKeyLifecycle(cfg))
	} else if *profileName != "" {
		return fmt.Errorf("-profile only steers the -keylife screening round; a plain replay takes its bits from the archive")
	}
	opts = append(opts,
		sramaging.WithProgress(func(ev sramaging.MonthEval) {
			fmt.Fprintf(stdout, "%s: WCHD %.3f%%  HW %.2f%%  stable %.2f%%  Hnoise %.3f%%  BCHD %.2f%%  Hpuf %.2f%%\n",
				ev.Label,
				100*ev.Avg(func(d sramaging.DeviceMonth) float64 { return d.WCHD }),
				100*ev.Avg(func(d sramaging.DeviceMonth) float64 { return d.FHW }),
				100*ev.Avg(func(d sramaging.DeviceMonth) float64 { return d.StableRatio }),
				100*ev.Avg(func(d sramaging.DeviceMonth) float64 { return d.NoiseHmin }),
				100*ev.BCHDMean, 100*ev.PUFHmin)
		}))
	a, err := sramaging.NewAssessment(opts...)
	if err != nil {
		return err
	}
	res, err := a.Run(context.Background())
	if err != nil {
		return err
	}

	if len(res.Monthly) >= 2 {
		first, last := res.Monthly[0], res.Monthly[len(res.Monthly)-1]
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "Table I summary over months %d..%d:\n\n", first.Month, last.Month)
		fmt.Fprint(stdout, sramaging.RenderTableI(res.Table))
	}
	if kt := sramaging.RenderKeyLifeTable(res); kt != "" {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, kt)
	}
	return nil
}
