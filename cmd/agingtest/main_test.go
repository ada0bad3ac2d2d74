package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"

	sramaging "repro"
)

const testSeed = 20170208

// tableOf runs an Assessment in process with the given source options
// and returns its rendered Table I.
func tableOf(t *testing.T, opts ...sramaging.Option) string {
	t.Helper()
	opts = append(opts, sramaging.WithMonths(2), sramaging.WithWindowSize(30))
	a, err := sramaging.NewAssessment(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sramaging.RenderTableI(res.Table)
}

// TestAgingtestPrintsAssessmentTable: agingtest's plain, sharded and
// archiving runs print the Table I of the same campaign run in process,
// byte for byte, and the archive the last one writes replays to that
// table too.
func TestAgingtestPrintsAssessmentTable(t *testing.T) {
	profile, err := sramaging.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	want := tableOf(t, sramaging.WithProfile(profile), sramaging.WithDevices(4), sramaging.WithSeed(testSeed))
	archive := filepath.Join(t.TempDir(), "x.bin")
	base := []string{"-devices", "4", "-months", "2", "-window", "30"}
	for _, tc := range []struct {
		name   string
		args   []string
		banner string
	}{
		{"plain", nil, "(harness=false, workers=0, shards=0)"},
		{"sharded", []string{"-shards", "2"}, "(harness=false, workers=0, shards=2)"},
		{"archive", []string{"-archive", archive}, "archive written to " + archive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(append(base, tc.args...), &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), tc.banner) {
				t.Fatalf("output lacks %q:\n%s", tc.banner, out.String())
			}
			if !strings.Contains(out.String(), "\n"+want+"\n") {
				t.Fatalf("printed Table I differs from the in-process Assessment's:\n%s\nwant:\n%s", out.String(), want)
			}
		})
	}
	src, err := sramaging.OpenArchiveSource(archive)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if got := tableOf(t, sramaging.WithSource(src)); got != want {
		t.Fatalf("replayed archive's Table I differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestAgingtestUsageErrors: bad command lines fail before any campaign
// runs, with the flag parser's exit classes.
func TestAgingtestUsageErrors(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard); !errors.Is(err, errFlags) {
		t.Errorf("bad flag: err = %v, want errFlags (exit 2, no second print)", err)
	}
	if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: err = %v, want flag.ErrHelp (exit 0)", err)
	}
	if err := run([]string{"-fleet", "atmega32u4", "-profile", "atmega32u4"}, io.Discard); err == nil || !strings.Contains(err.Error(), "exclusive") {
		t.Errorf("-fleet with -profile: err = %v, want an exclusivity error", err)
	}
}
