package sramaging

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/fuzzy"
	"repro/internal/store"
)

// keylifeOpts is the small key-lifecycle campaign the bit-identity tests
// share: big enough for screening to leave usable stable cells, small
// enough to run in milliseconds.
func keylifeOpts(extra ...Option) []Option {
	return append([]Option{
		WithDevices(8),
		WithMonths(3),
		WithWindowSize(40),
		WithKeyLifecycle(KeyLifeConfig{}),
	}, extra...)
}

// assertKeyLifeSeries sanity-checks that a Results actually carries the
// key-lifecycle series (a DeepEqual of two empty maps would vacuously
// pass the identity tests).
func assertKeyLifeSeries(t *testing.T, res *Results) {
	t.Helper()
	for _, name := range []string{KeyLifeSuccess, KeyLifeBitErrors, KeyLifeMargin, KeyLifeFailProb} {
		if res.CustomSeries(name) == nil {
			t.Fatalf("results carry no %q series", name)
		}
	}
	if res.CrossCustomSeries(KeyLifeLeakageBits) == nil {
		t.Fatalf("results carry no %q series", KeyLifeLeakageBits)
	}
}

// TestKeyLifecycleShardsBitIdentical: the key-lifecycle series (success,
// bit errors, margin, failure probability, leakage) are bit-identical
// between the direct run and sharded runs for shard counts 1, 2 and 7 —
// and so are the rendered key tables.
func TestKeyLifecycleShardsBitIdentical(t *testing.T) {
	plain, err := NewAssessment(keylifeOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertKeyLifeSeries(t, want)
	wantTable := RenderKeyLifeTable(want)
	if wantTable == "" {
		t.Fatal("empty key table for a key-lifecycle run")
	}
	for _, shards := range []int{1, 2, 7} {
		a, err := NewAssessment(keylifeOpts(WithShards(shards))...)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got, err := a.Run(context.Background())
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		assertSameResults(t, want, got)
		if gotTable := RenderKeyLifeTable(got); gotTable != wantTable {
			t.Fatalf("shards=%d: key table differs:\n%s\nvs\n%s", shards, gotTable, wantTable)
		}
	}
}

// TestKeyLifecycleArchiveReplayBitIdentical: a recorded campaign replayed
// from its archive re-derives the identical key-lifecycle series — the
// screening round depends only on (profile, devices, seed), never on the
// campaign's Source.
func TestKeyLifecycleArchiveReplayBitIdentical(t *testing.T) {
	plain, err := NewAssessment(keylifeOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertKeyLifeSeries(t, want)

	// Record the same campaign through the rig's archive tap. The rig
	// path is bit-identical to direct sampling by construction.
	profile, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	rig, err := NewRigSource(profile, 8, 20170208, 0)
	if err != nil {
		t.Fatal(err)
	}
	apath := filepath.Join(t.TempDir(), "campaign.bin")
	f, err := os.Create(apath)
	if err != nil {
		t.Fatal(err)
	}
	w := store.NewWriterForPath(apath, f)
	rig.SetTap(w.Write)
	rec, err := NewAssessment(
		WithSource(rig),
		WithMonths(3),
		WithWindowSize(40),
		WithKeyLifecycle(KeyLifeConfig{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	recRes, err := rec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, want, recRes)

	// Replay the archive and demand the same series again.
	arch, err := OpenArchiveSource(apath)
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	replay, err := NewAssessment(
		WithSource(arch),
		WithWindowSize(40),
		WithKeyLifecycle(KeyLifeConfig{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replay.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, want, got)
	if RenderKeyLifeTable(got) != RenderKeyLifeTable(want) {
		t.Fatal("key table differs between direct run and archive replay")
	}
}

// TestKeyLifecycleSweepBitIdentical: a key-lifecycle sweep is
// deterministic — the sharded sweep matches the in-process sweep per
// point, including the per-point key-lifecycle series built through the
// PointMetrics hook.
func TestKeyLifecycleSweepBitIdentical(t *testing.T) {
	opts := func(extra ...Option) []Option {
		return append([]Option{
			WithDevices(4),
			WithMonths(2),
			WithWindowSize(30),
			WithConditions(NominalRoomTemp, HotCorner),
			WithKeyLifecycle(KeyLifeConfig{}),
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
	for _, pt := range want.Points {
		assertKeyLifeSeries(t, pt.Results)
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
			t.Fatalf("point %q key-lifecycle series differ between in-process and sharded sweeps", want.Points[i].Scenario.Name)
		}
	}
}

// TestKeyLifecycleNominalTrajectory: over a 24-month nominal campaign the
// enrolled key reconstructs at EVERY evaluation on every device — the
// paper's headline claim that aging (WCHD growth toward ~3%) stays well
// inside the standard scheme's correction budget.
func TestKeyLifecycleNominalTrajectory(t *testing.T) {
	a, err := NewAssessment(
		WithDevices(4),
		WithMonths(24),
		WithWindowSize(60),
		WithKeyLifecycle(KeyLifeConfig{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertKeyLifeSeries(t, res)
	success := res.CustomSeries(KeyLifeSuccess)
	margins := res.CustomSeries(KeyLifeMargin)
	for d := range success {
		for m := range success[d] {
			if success[d][m] != 1 {
				t.Errorf("device %d month %d: reconstruction failed", d, m)
			}
			if margins[d][m] <= 0 {
				t.Errorf("device %d month %d: margin %v, want > 0", d, m, margins[d][m])
			}
		}
	}
	worst := res.CrossCustomSeries(KeyLifeWorstMargin)
	if len(worst) != 25 {
		t.Fatalf("worst-margin series has %d evaluations, want 25", len(worst))
	}
	table := RenderKeyLifeTable(res)
	if n := strings.Count(table, "4/4"); n != 25 {
		t.Fatalf("key table reports %d fully-reconstructed months, want 25:\n%s", n, table)
	}
}

// TestWithKeyLifecycleConfigErrors: invalid key-lifecycle configurations
// fail fast with ErrConfig — at option time where possible, before any
// measurement otherwise.
func TestWithKeyLifecycleConfigErrors(t *testing.T) {
	if _, err := NewAssessment(WithKeyLifecycle(KeyLifeConfig{BurnInWindow: -1})); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative burn-in window: err = %v, want ErrConfig", err)
	}
	if _, err := NewAssessment(WithKeyLifecycle(KeyLifeConfig{Corners: []Scenario{{Name: "abszero", TempC: -300, Voltage: 5}}})); !errors.Is(err, ErrConfig) {
		t.Fatalf("invalid corner: err = %v, want ErrConfig", err)
	}
	// A code without a known correction radius cannot define margins.
	ext, err := fuzzy.New(radiuslessCode{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssessment(
		WithDevices(2), WithMonths(1), WithWindowSize(20),
		WithKeyLifecycle(KeyLifeConfig{Extractor: ext}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(context.Background()); !errors.Is(err, ErrConfig) {
		t.Fatalf("radius-less extractor: err = %v, want ErrConfig", err)
	}
}

// radiuslessCode is a repetition(3) code implemented outside package
// ecc, so ecc.CorrectionRadius knows no radius for it.
type radiuslessCode struct{}

func (radiuslessCode) Name() string { return "radiusless" }
func (radiuslessCode) K() int       { return 1 }
func (radiuslessCode) N() int       { return 3 }

func (radiuslessCode) Encode(msg *bitvec.Vector) (*bitvec.Vector, error) {
	w := bitvec.New(3)
	w.SetAll(msg.Get(0))
	return w, nil
}

func (radiuslessCode) Decode(word *bitvec.Vector) (*bitvec.Vector, error) {
	m := bitvec.New(1)
	m.Set(0, word.HammingWeight() >= 2)
	return m, nil
}
