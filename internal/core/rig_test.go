package core

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/silicon"
	"repro/internal/store"
	"repro/internal/stream"
)

// rigRun is one rig campaign's output: its Results and the v1 archive
// its record tap wrote, byte for byte.
type rigRun struct {
	res     *Results
	archive []byte
}

// pooled is runRig's width for a pump on a shared pool, capturing inline.
const pooled = -1

// rigCampaign is the set-up of one rig campaign over months 0 and 2:
// its board count, seed, I2C error rate and screening floor (0:
// unscreened).
type rigCampaign struct {
	boards int
	seed   uint64
	i2cErr float64
	floor  float64
}

// runRig measures a rig campaign with the given capture width, tapping
// every record into a v1 archive.
func runRig(ctx context.Context, c rigCampaign, width int) (rigRun, error) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		return rigRun{}, err
	}
	src, err := NewRigSource(profile, c.boards, c.seed, c.i2cErr)
	if err != nil {
		return rigRun{}, err
	}
	if width == pooled {
		src.SetPool(stream.NewPool(2))
	} else {
		src.SetWorkers(width)
	}
	var buf bytes.Buffer
	w := store.NewBinaryWriterV1(&buf)
	src.SetTap(w.Write)
	cfg := AssessmentConfig{Source: src, WindowSize: 25, Months: []int{0, 2}}
	if c.floor > 0 {
		cfg.Screening = &ScreeningConfig{Floor: c.floor}
	}
	eng, err := NewAssessment(cfg)
	if err != nil {
		return rigRun{}, err
	}
	res, err := eng.Run(ctx)
	if err != nil {
		return rigRun{}, err
	}
	if err := w.Flush(); err != nil {
		return rigRun{}, err
	}
	return rigRun{res: res, archive: buf.Bytes()}, nil
}

// TestRigWidthsByteIdentical: the rig's records and Table I do not
// depend on how many workers capture and age its boards — width 1 (every
// capture on the event loop), 2, GOMAXPROCS, more workers than CPUs, the
// default and a pooled pump — with and without I2C error injection.
func TestRigWidthsByteIdentical(t *testing.T) {
	for _, i2cErr := range []float64{0, 0.002} {
		want, err := runRig(context.Background(), rigCampaign{boards: 8, seed: 31, i2cErr: i2cErr}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{2, runtime.GOMAXPROCS(0), 5, 0, pooled} {
			got, err := runRig(context.Background(), rigCampaign{boards: 8, seed: 31, i2cErr: i2cErr}, width)
			if err != nil {
				t.Fatalf("i2c %v, width %d: %v", i2cErr, width, err)
			}
			if !bytes.Equal(got.archive, want.archive) {
				t.Errorf("i2c %v, width %d: tapped archive differs from width 1", i2cErr, width)
			}
			assertResultsBitIdentical(t, want.res, got.res)
		}
	}
}

// TestRigGroupedCapturesMatchWidthOne: a capture worker, or the event
// loop at a join, samples up to four queued boards in one lane call. Over
// rig sizes that leave groups of one to four boards, and with a board
// screened out between the months, every width records segment by
// segment what width 1 (no queue, so no grouping) records, and its
// Results are bit-identical.
func TestRigGroupedCapturesMatchWidthOne(t *testing.T) {
	cases := []rigCampaign{
		{boards: 2, seed: 41},
		{boards: 4, seed: 42},
		{boards: 6, seed: 43, i2cErr: 0.002},
		{boards: 10, seed: 44},
		{boards: 16, seed: 45},
	}
	// The screened case: the floor sits just above the lowest month-0
	// stable ratio of an unscreened run, so that board is muted in
	// month 2 while its neighbours keep sampling.
	screened := rigCampaign{boards: 6, seed: 46, i2cErr: 0.002}
	base, err := runRig(context.Background(), screened, 1)
	if err != nil {
		t.Fatal(err)
	}
	devs := base.res.Monthly[0].Devices
	low := 0
	for d := range devs {
		if devs[d].StableRatio < devs[low].StableRatio {
			low = d
		}
	}
	if low == 0 || low == len(devs)-1 {
		t.Fatalf("seed %d screens out board %d, not one in the middle", screened.seed, low)
	}
	screened.floor = math.Nextafter(devs[low].StableRatio, 1)
	cases = append(cases, screened)
	for _, c := range cases {
		want, err := runRig(context.Background(), c, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c.floor > 0 && !slices.Equal(want.res.Monthly[0].Pruned, []int{low}) {
			t.Fatalf("screened rig pruned %v, want [%d]", want.res.Monthly[0].Pruned, low)
		}
		wantSegs := tappedSegments(t, want.archive)
		for _, width := range []int{2, 3, 5, 0, pooled} {
			got, err := runRig(context.Background(), c, width)
			if err != nil {
				t.Fatalf("%d boards, width %d: %v", c.boards, width, err)
			}
			gotSegs := tappedSegments(t, got.archive)
			if len(gotSegs) != len(wantSegs) {
				t.Fatalf("%d boards, width %d: %d (board, month) segments, want %d", c.boards, width, len(gotSegs), len(wantSegs))
			}
			for seg, recs := range wantSegs {
				if !slices.Equal(gotSegs[seg], recs) {
					t.Fatalf("%d boards, width %d: board %d month %d records differ from width 1", c.boards, width, seg[0], seg[1])
				}
			}
			assertResultsBitIdentical(t, want.res, got.res)
		}
	}
}

// TestRigCampaignsRunConcurrently: two rig campaigns measuring at once,
// each on its own capture workers, produce what each produces alone —
// the race detector's view of the capture hand-off between the event
// loop and the workers.
func TestRigCampaignsRunConcurrently(t *testing.T) {
	seeds := []uint64{5, 6}
	runs := make([]rigRun, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], errs[i] = runRig(context.Background(), rigCampaign{boards: 8, seed: seed, i2cErr: 0.001}, 2)
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		alone, err := runRig(context.Background(), rigCampaign{boards: 8, seed: seed, i2cErr: 0.001}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(runs[i].archive, alone.archive) {
			t.Errorf("seed %d: concurrent campaign's archive differs from its run alone", seed)
		}
		assertResultsBitIdentical(t, alone.res, runs[i].res)
	}
	if bytes.Equal(runs[0].archive, runs[1].archive) {
		t.Fatal("campaigns with different seeds recorded the same archive")
	}
}

// TestRigPruneMutesBoards: a pruned rig board stops being sampled — its
// chip is released and no record of it reaches the tap — while every
// other board records exactly what the unpruned rig records, with I2C
// error injection on (the muted board still draws its bytes' errors).
func TestRigPruneMutesBoards(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	tapped := func(prune []int) map[int][]envelope {
		src, err := NewRigSource(profile, 4, 12, 0.003)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.PruneDevices(prune); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w := store.NewBinaryWriterV1(&buf)
		src.SetTap(w.Write)
		if err := src.Measure(context.Background(), 0, 20, discardSink); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if src.Devices() != 4 {
			t.Fatalf("Devices() = %d after pruning, want 4", src.Devices())
		}
		for _, d := range prune {
			if src.rig.Arrays()[d] != nil || !src.rig.Boards()[d].Muted() {
				t.Fatalf("pruned board %d still holds its chip", d)
			}
		}
		return tappedBoards(t, buf.Bytes())
	}
	all, pruned := tapped(nil), tapped([]int{1, 2})
	for _, b := range []int{1, 2} {
		if len(pruned[b]) != 0 {
			t.Fatalf("pruned board %d tapped %d records", b, len(pruned[b]))
		}
	}
	for _, b := range []int{0, 3} {
		if len(pruned[b]) != 20 || !slices.Equal(pruned[b], all[b]) {
			t.Fatalf("board %d: records differ once boards 1 and 2 are muted", b)
		}
	}
	src, err := NewRigSource(profile, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.PruneDevices([]int{4}); err == nil {
		t.Fatal("out-of-range prune accepted")
	}
}

// BenchmarkRigWindow times one 250-measurement evaluation window of the
// paper's 16-board rig at the default capture width: the rig capture
// stage, where the capture workers and the event loop sample the
// boards' power-ups.
func BenchmarkRigWindow(b *testing.B) {
	src, err := NewRigSource(benchProfile(b), 16, 7, 0)
	if err != nil {
		b.Fatal(err)
	}
	const window = 250
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := src.Measure(context.Background(), 0, window, discardSink); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*16*window)/b.Elapsed().Seconds(), "meas/s")
}
