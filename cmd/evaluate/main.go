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
	"flag"
	"fmt"
	"os"

	sramaging "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}

// indexedNote annotates the archive banner when replay is seek-based.
func indexedNote(info sramaging.ArchiveInfo) string {
	if info.Indexed {
		return ", indexed"
	}
	return ""
}

func run() error {
	path := flag.String("archive", "", "binary measurement archive (required); a JSONL archive needs -index once to convert it")
	window := flag.Int("window", 200, "measurements per monthly evaluation window")
	shards := flag.Int("shards", 0, "fan the replay across N shard workers (0: single process)")
	shardWorker := flag.String("shardworker", "", "shardworker binary for -shards (default: in-process workers)")
	index := flag.Bool("index", false, "upgrade the archive (JSONL or v1 binary) in place to the indexed binary format (v2) before replaying")
	keylife := flag.Bool("keylife", false, "replay the key-lifecycle workload: screening + enrollment re-derived from -seed, reconstruction from the archived measurements")
	seed := flag.Uint64("seed", 20170208, "campaign seed of the recorded campaign (screens the population for -keylife)")
	profileName := flag.String("profile", "", "registered profile name of the recorded campaign (screens the population for -keylife; default atmega32u4)")
	flag.Parse()
	if *path == "" {
		flag.Usage()
		return fmt.Errorf("missing -archive")
	}
	if *index {
		upgraded, err := sramaging.UpgradeArchive(*path)
		if err != nil {
			return err
		}
		if upgraded {
			fmt.Printf("indexed %s\n", *path)
		} else {
			fmt.Printf("%s already indexed\n", *path)
		}
	}
	var src sramaging.Source
	if *shards > 0 {
		var transport sramaging.ShardTransport
		if *shardWorker != "" {
			transport = sramaging.ExecShardTransport(*shardWorker)
		}
		sharded, err := sramaging.NewShardedArchiveSource(*path, *shards, transport)
		if err != nil {
			return err
		}
		defer sharded.Close()
		src = sharded
		fmt.Printf("archive: %d boards across %d shards\n\n", sharded.Devices(), *shards)
	} else {
		plain, err := sramaging.OpenArchiveSource(*path)
		if err != nil {
			return err
		}
		defer plain.Close()
		src = plain
		info := plain.Info()
		fmt.Printf("archive: %d boards %v (%s%s, %d records)\n\n",
			plain.Devices(), plain.Boards(), info.Format, indexedNote(info), info.Records)
	}

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
			fmt.Printf("%s: WCHD %.3f%%  HW %.2f%%  stable %.2f%%  Hnoise %.3f%%  BCHD %.2f%%  Hpuf %.2f%%\n",
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
		fmt.Println()
		fmt.Printf("Table I summary over months %d..%d:\n\n", first.Month, last.Month)
		fmt.Print(sramaging.RenderTableI(res.Table))
	}
	if kt := sramaging.RenderKeyLifeTable(res); kt != "" {
		fmt.Println()
		fmt.Print(kt)
	}
	return nil
}
