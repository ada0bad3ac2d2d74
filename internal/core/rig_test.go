package core

import (
	"bytes"
	"context"
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

// runRig measures an 8-board rig campaign over months 0 and 2 with the
// given seed, I2C error rate and capture width, tapping every record
// into a v1 archive.
func runRig(ctx context.Context, seed uint64, i2cErr float64, width int) (rigRun, error) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		return rigRun{}, err
	}
	src, err := NewRigSource(profile, 8, seed, i2cErr)
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
	eng, err := NewAssessment(AssessmentConfig{Source: src, WindowSize: 25, Months: []int{0, 2}})
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
		want, err := runRig(context.Background(), 31, i2cErr, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{2, runtime.GOMAXPROCS(0), 5, 0, pooled} {
			got, err := runRig(context.Background(), 31, i2cErr, width)
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
			runs[i], errs[i] = runRig(context.Background(), seed, 0.001, 2)
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		alone, err := runRig(context.Background(), seed, 0.001, 1)
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
