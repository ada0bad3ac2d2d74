package sramaging_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"

	sramaging "repro"
)

// ExampleNewChip demonstrates the basic measurement flow: instantiate a
// calibrated chip and read its power-up pattern, as the paper's rig does
// ~11 million times per board.
func ExampleNewChip() {
	profile, err := sramaging.ATmega32u4()
	if err != nil {
		log.Fatal(err)
	}
	chip, err := sramaging.NewChip(profile, 1)
	if err != nil {
		log.Fatal(err)
	}
	w, err := chip.PowerUpWindow()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("read window bits:", w.Len())
	fmt.Println("cells on chip:", chip.Profile().Cells())
	// Output:
	// read window bits: 8192
	// cells on chip: 20480
}

// ExampleNewAssessment runs a miniature campaign on the composable API:
// functional options, incremental per-month emission through
// WithProgress, and a cancellable Run.
func ExampleNewAssessment() {
	a, err := sramaging.NewAssessment(
		sramaging.WithDevices(2),
		sramaging.WithMonths(3),
		sramaging.WithWindowSize(60),
		sramaging.WithProgress(func(ev sramaging.MonthEval) {
			fmt.Println("evaluated", ev.Label)
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := a.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if res.Table.WCHD.Avg.End > res.Table.WCHD.Avg.Start {
		fmt.Println("reliability degrades with aging: WCHD increased")
	}
	// Output:
	// evaluated 17-Feb
	// evaluated 17-Mar
	// evaluated 17-Apr
	// evaluated 17-May
	// reliability degrades with aging: WCHD increased
}

// ExampleAssessment_RunSweep screens the same chips across operating
// corners: one full assessment per condition over a temperature grid,
// with the cross-condition comparison answering what a corner-aware
// deployment needs — the worst corner's reliability and the cells stable
// at every corner.
func ExampleAssessment_RunSweep() {
	a, err := sramaging.NewAssessment(
		sramaging.WithDevices(2),
		sramaging.WithMonths(2),
		sramaging.WithWindowSize(40),
		sramaging.WithConditions(
			sramaging.NominalRoomTemp,
			sramaging.HotCorner,
		),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := a.RunSweep(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	c := res.Comparison
	end := len(c.Months) - 1
	fmt.Println("corners swept:", len(res.Points))
	fmt.Println("worst corner at end of test:", c.WorstWCHDCorner[end])
	if c.StableIntersect[end] < res.Points[0].Results.Monthly[end].Avg(
		func(d sramaging.DeviceMonth) float64 { return d.StableRatio }) {
		fmt.Println("fewer cells are stable across all corners than at nominal alone")
	}
	// Output:
	// corners swept: 2
	// worst corner at end of test: hot-corner
	// fewer cells are stable across all corners than at nominal alone
}

// ExampleAssessment_shards fans the same campaign across shard workers:
// the device population is partitioned, each shard measures its slice
// (in-process here; subprocesses with ExecShardTransport and the
// cmd/shardworker binary), and the merged Results are bit-identical to
// the single-process run — sharding changes where the work happens, not
// a single bit of the outcome.
func ExampleAssessment_shards() {
	run := func(opts ...sramaging.Option) *sramaging.Results {
		a, err := sramaging.NewAssessment(append([]sramaging.Option{
			sramaging.WithDevices(4),
			sramaging.WithMonths(2),
			sramaging.WithWindowSize(40),
		}, opts...)...)
		if err != nil {
			log.Fatal(err)
		}
		res, err := a.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	single := run()
	sharded := run(sramaging.WithShards(2))
	if reflect.DeepEqual(single.Monthly, sharded.Monthly) {
		fmt.Println("2-shard campaign is bit-identical to the single-process run")
	}
	// Output:
	// 2-shard campaign is bit-identical to the single-process run
}

// ExampleAssessment_binaryArchive collects a campaign into a BINARY
// archive through the rig's record tap, then replays it: the binary
// codec (fixed header + raw pattern words, detected by its leading
// magic) carries exactly the records the JSONL schema carries, at
// roughly half the bytes — so the replayed assessment is bit-identical
// to the live one. Use a `.bin` path with agingtest -archive for the
// same flow on the command line; keep JSONL when the archive is meant
// for human eyes (grep, jq).
func ExampleAssessment_binaryArchive() {
	profile, err := sramaging.ATmega32u4()
	if err != nil {
		log.Fatal(err)
	}
	rig, err := sramaging.NewRigSource(profile, 2, 7, 0)
	if err != nil {
		log.Fatal(err)
	}
	var archive bytes.Buffer
	bw := sramaging.NewBinaryRecordWriter(&archive)
	rig.SetTap(bw.Write)

	run := func(src sramaging.Source) *sramaging.Results {
		a, err := sramaging.NewAssessment(
			sramaging.WithSource(src),
			sramaging.WithMonths(2),
			sramaging.WithWindowSize(40),
		)
		if err != nil {
			log.Fatal(err)
		}
		res, err := a.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	live := run(rig)
	if err := bw.Flush(); err != nil {
		log.Fatal(err)
	}

	replaySrc, err := sramaging.NewArchiveSource(&archive)
	if err != nil {
		log.Fatal(err)
	}
	replay := run(replaySrc)
	if reflect.DeepEqual(live.Monthly, replay.Monthly) {
		fmt.Println("binary-archive replay is bit-identical to the live campaign")
	}
	// Output:
	// binary-archive replay is bit-identical to the live campaign
}

// ExampleAssessment_indexedArchive collects a campaign into an INDEXED
// binary archive file (a `.bin` path selects the v2 codec, whose Flush
// appends a trailer index mapping every board/month segment), inspects
// it without reading the records, and replays it with OpenArchiveSource:
// month windows stream straight from disk through O(1) index seeks —
// the archive is never materialised in memory — and the replayed
// assessment is bit-identical to the live one. UpgradeArchive is a
// no-op here because collection already indexed the file; point it at a
// v1 or JSONL archive to rewrite it in place into this format.
func ExampleAssessment_indexedArchive() {
	profile, err := sramaging.ATmega32u4()
	if err != nil {
		log.Fatal(err)
	}
	rig, err := sramaging.NewRigSource(profile, 2, 7, 0)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "indexed-archive")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "campaign.bin")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	bw := sramaging.NewRecordWriterForPath(path, f)
	rig.SetTap(bw.Write)

	run := func(src sramaging.Source) *sramaging.Results {
		a, err := sramaging.NewAssessment(
			sramaging.WithSource(src),
			sramaging.WithMonths(2),
			sramaging.WithWindowSize(40),
		)
		if err != nil {
			log.Fatal(err)
		}
		res, err := a.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	live := run(rig)
	if err := bw.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	info, err := sramaging.InspectArchive(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archive: %s, indexed: %v\n", info.Format, info.Indexed)
	upgraded, err := sramaging.UpgradeArchive(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rewrite needed to index:", upgraded)

	src, err := sramaging.OpenArchiveSource(path)
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()
	replay := run(src)
	if reflect.DeepEqual(live.Monthly, replay.Monthly) {
		fmt.Println("seek-based replay is bit-identical to the live campaign")
	}
	// Output:
	// archive: binary-v2, indexed: true
	// rewrite needed to index: false
	// seek-based replay is bit-identical to the live campaign
}

// ExamplePredictedWCHDTrajectory reproduces the paper's §V conclusion
// numerically: nominal-condition aging degrades reliability much more
// slowly than an accelerated test would suggest.
func ExamplePredictedWCHDTrajectory() {
	nominal, err := sramaging.ATmega32u4()
	if err != nil {
		log.Fatal(err)
	}
	traj, err := sramaging.PredictedWCHDTrajectory(nominal, 24)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WCHD month 0:  %.2f%%\n", 100*traj[0])
	fmt.Printf("WCHD month 24: %.2f%%\n", 100*traj[24])
	// Output:
	// WCHD month 0:  2.49%
	// WCHD month 24: 2.97%
}

// ExampleAssessment_service runs a campaign through the long-lived
// assessment service: an in-process assessd manager behind its HTTP API,
// a spec submitted with the typed client, months streamed as they
// finalise, and the assembled results — identical to running the same
// campaign locally, but submitted, streamed and checkpointed by a
// service that survives restarts.
func ExampleAssessment_service() {
	dir, err := os.MkdirTemp("", "assessd-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	mgr, err := sramaging.NewServeManager(sramaging.ServeConfig{DataDir: dir, Workers: 2, MaxActive: 2})
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(sramaging.ServeHandler(mgr))
	defer srv.Close()

	client := &sramaging.ServeClient{Base: srv.URL}
	ctx := context.Background()
	id, res, err := client.Run(ctx,
		sramaging.ServeSpec{Devices: 2, Months: 3, Window: 60},
		func(ev sramaging.MonthEval) { fmt.Println("streamed", ev.Label) },
	)
	if err != nil {
		log.Fatal(err)
	}
	st, err := client.Status(ctx, id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("campaign", st.Status, "after", len(res.Monthly), "months")
	if res.Table.WCHD.Avg.End > res.Table.WCHD.Avg.Start {
		fmt.Println("reliability degrades with aging: WCHD increased")
	}
	if err := mgr.Close(ctx); err != nil {
		log.Fatal(err)
	}
	// Output:
	// streamed 17-Feb
	// streamed 17-Mar
	// streamed 17-Apr
	// streamed 17-May
	// campaign done after 4 months
	// reliability degrades with aging: WCHD increased
}
