package rng

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fmaMnemonic matches the fused multiply-add families (VFMADD, VFMSUB,
// VFNMADD, VFNMSUB, with any suffix, VFMADDSUB and VFMSUBADD among them).
var fmaMnemonic = regexp.MustCompile(`(?i)\bVFN?M(ADD|SUB)`)

// TestKernelsIntegerOnly: the package's assembly uses no fused
// multiply-add, whose single rounding differs from a multiply then an
// add, so the kernels compute the same bits as the Go code on any host.
func TestKernelsIntegerOnly(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if m := fmaMnemonic.FindString(code); m != "" {
				t.Errorf("%s:%d: fused multiply-add %s", name, i+1, strings.TrimSpace(code))
			}
		}
	}
}
