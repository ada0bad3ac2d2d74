package sramaging

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// assertSameResults compares two assessment Results bit for bit.
func assertSameResults(t *testing.T, want, got *Results) {
	t.Helper()
	if !reflect.DeepEqual(want.Monthly, got.Monthly) {
		t.Fatal("monthly series differ between single-process and sharded runs")
	}
	if !reflect.DeepEqual(want.Table, got.Table) {
		t.Fatal("Table I differs between single-process and sharded runs")
	}
}

// TestWithShardsBitIdentical: the facade's sharded execution produces
// bit-identical Results to the plain assessment for shard counts 1, 2
// and 7, on the sim and harness paths.
func TestWithShardsBitIdentical(t *testing.T) {
	base := []Option{WithDevices(8), WithMonths(3), WithWindowSize(40)}
	for _, harness := range []bool{false, true} {
		opts := append([]Option{}, base...)
		if harness {
			opts = append(opts, WithHarness())
		}
		plain, err := NewAssessment(opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 7} {
			a, err := NewAssessment(append(append([]Option{}, opts...), WithShards(shards))...)
			if err != nil {
				t.Fatalf("harness=%v shards=%d: %v", harness, shards, err)
			}
			got, err := a.Run(context.Background())
			if err != nil {
				t.Fatalf("harness=%v shards=%d: %v", harness, shards, err)
			}
			assertSameResults(t, want, got)
		}
	}
}

// TestWithShardsWorkersBitIdentical: the -workers budget split across
// shard processes does not change a bit.
func TestWithShardsWorkersBitIdentical(t *testing.T) {
	want, err := runSmall(t, WithWorkers(1), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := runSmall(t, WithWorkers(8), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, want, got)
}

func runSmall(t *testing.T, extra ...Option) (*Results, error) {
	t.Helper()
	a, err := NewAssessment(smallOpts(extra...)...)
	if err != nil {
		return nil, err
	}
	return a.Run(context.Background())
}

// TestWithShardsExclusiveWithSource: sharding builds the sources, so it
// cannot be combined with an explicit one.
func TestWithShardsExclusiveWithSource(t *testing.T) {
	profile, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSimulatedSource(profile, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAssessment(WithSource(src), WithShards(2)); !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v, want ErrConfig", err)
	}
	if _, err := NewAssessment(WithShards(0)); !errors.Is(err, ErrConfig) {
		t.Fatalf("WithShards(0): err = %v, want ErrConfig", err)
	}
	if _, err := NewAssessment(WithShardTransport(nil)); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil transport: err = %v, want ErrConfig", err)
	}
	// A replay needs a shard count too, checked on a valid archive.
	path := filepath.Join(t.TempDir(), "a.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := NewBinaryRecordWriter(f)
	src.SetTap(w.Write)
	if err := runFacade(WithSource(src), WithMonths(1), WithWindowSize(4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedArchiveSource(path, 0, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("archive replay on 0 shards: err = %v, want ErrConfig", err)
	}
}

// TestRunSweepShardedBitIdentical: a sweep whose per-corner sources are
// sharded produces bit-identical per-point Results and cross-condition
// Comparison to the in-process sweep.
func TestRunSweepShardedBitIdentical(t *testing.T) {
	opts := func(extra ...Option) []Option {
		return append([]Option{
			WithDevices(4),
			WithMonths(2),
			WithWindowSize(30),
			WithConditions(NominalRoomTemp, HotCorner, ColdCorner),
		}, extra...)
	}
	plain, err := NewAssessment(opts()...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.RunSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewAssessment(opts(WithShards(2))...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.RunSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Points) != len(got.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(want.Points), len(got.Points))
	}
	for i := range want.Points {
		if !reflect.DeepEqual(want.Points[i].Results.Monthly, got.Points[i].Results.Monthly) {
			t.Fatalf("point %q differs between in-process and sharded sweeps", want.Points[i].Scenario.Name)
		}
	}
	if !reflect.DeepEqual(want.Comparison, got.Comparison) {
		t.Fatal("cross-condition comparison differs between in-process and sharded sweeps")
	}
}

// TestWithShardsNoGoroutineLeak: the facade closes the sharded source it
// builds, so a completed (or failed) run leaves no worker goroutines.
func TestWithShardsNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := runSmall(t, WithShards(2)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}
