package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sramaging "repro"
)

// recordRigArchive runs a small rig campaign with its record tap writing
// an indexed archive at path, and returns the live run's Table I.
func recordRigArchive(t *testing.T, path string, window int) string {
	t.Helper()
	profile, err := sramaging.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	rig, err := sramaging.NewRigSource(profile, 4, 20170208, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := sramaging.NewBinaryRecordWriter(f)
	rig.SetTap(w.Write)
	a, err := sramaging.NewAssessment(
		sramaging.WithSource(rig),
		sramaging.WithMonths(2),
		sramaging.WithWindowSize(window),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return sramaging.RenderTableI(res.Table)
}

// tableOf returns the Table I block evaluate printed: everything
// between its "Table I summary" heading and the key-life table, if any.
func tableOf(t *testing.T, out string) string {
	t.Helper()
	const heading = "Table I summary over months 0..2:\n\n"
	i := strings.Index(out, heading)
	if i < 0 {
		t.Fatalf("no Table I in the output:\n%s", out)
	}
	table := out[i+len(heading):]
	if j := strings.Index(table, "\nKEY LIFECYCLE"); j >= 0 {
		table = table[:j]
	}
	return table
}

// TestEvaluateReplaysRigArchive: evaluate's plain, sharded and
// key-life replays of a recorded rig archive print the live campaign's
// Table I byte for byte, and -index leaves an already-indexed archive
// alone.
func TestEvaluateReplaysRigArchive(t *testing.T) {
	const window = 30
	path := filepath.Join(t.TempDir(), "rig.bin")
	want := recordRigArchive(t, path, window)
	for _, tc := range []struct {
		name   string
		args   []string
		banner string
	}{
		{"plain", []string{"-archive", path, "-window", "30"}, "archive: 4 boards [0 1 2 3] (binary-v2, indexed, 360 records)"},
		{"sharded", []string{"-archive", path, "-window", "30", "-shards", "2"}, "archive: 4 boards [0 1 2 3] (binary-v2, indexed, 360 records) across 2 shards"},
		{"index", []string{"-index", "-archive", path, "-window", "30"}, path + " already indexed"},
		{"keylife", []string{"-archive", path, "-window", "30", "-keylife", "-profile", "atmega32u4"}, "17-Feb     4/4               17"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), tc.banner) {
				t.Fatalf("output lacks %q:\n%s", tc.banner, out.String())
			}
			if got := tableOf(t, out.String()); got != want {
				t.Fatalf("replayed Table I differs from the live run's:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestEvaluateUsageErrors: configuration mistakes fail before any
// replay, with an error naming the fix.
func TestEvaluateUsageErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rig.bin")
	recordRigArchive(t, path, 10)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "missing -archive"},
		{[]string{"-no-such-flag"}, "no-such-flag"},
		{[]string{"-archive", path, "-profile", "atmega32u4"}, "-profile only steers the -keylife"},
		{[]string{"-archive", path, "-window", "11"}, "no evaluation months"},
		{[]string{"-archive", filepath.Join(t.TempDir(), "absent.bin")}, "absent.bin"},
		{[]string{"-archive", path, "-window", "10", "-shards", "-1"}, "need >= 1 shard, got -1"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q): err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
	if err := run([]string{"-no-such-flag"}, io.Discard); !errors.Is(err, errFlags) {
		t.Errorf("bad flag: err = %v, want errFlags (exit 2, no second print)", err)
	}
	if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: err = %v, want flag.ErrHelp (exit 0)", err)
	}
}
