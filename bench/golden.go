package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
)

// goldenSeed is the default workload seed — the paper's campaign seed. The
// golden digests hold for it alone; every other seed is checked by the
// cross-path equalities instead.
const goldenSeed = 20170208

//go:embed golden.json
var goldenJSON []byte

// goldenFile is bench/golden.json: digests of each workload's outputs at
// goldenSeed, keyed "<workload>.<output>".
type goldenFile struct {
	Seed   uint64            `json:"seed"`
	Values map[string]string `json:"values"`
}

// goldens checks outputs against the embedded golden file, or, when
// rewriting, collects them for writeGolden.
type goldens struct {
	seed    uint64
	rewrite bool
	want    goldenFile

	mu  sync.Mutex
	got map[string]string
}

func newGoldens(seed uint64, rewrite bool) (*goldens, error) {
	g := &goldens{seed: seed, rewrite: rewrite, got: map[string]string{}}
	if err := json.Unmarshal(goldenJSON, &g.want); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// check compares one output with its golden value at the golden seed.
func (g *goldens) check(r *outcome, key, got string) {
	if g.seed != goldenSeed {
		return
	}
	g.mu.Lock()
	g.got[key] = got
	g.mu.Unlock()
	if g.rewrite {
		return
	}
	want, ok := g.want.Values[key]
	switch {
	case !ok:
		r.fail("golden %s: no golden value (rerun with -golden to record %q)", key, got)
	case want != got:
		r.fail("golden %s: got %s, want %s", key, got, want)
	}
}

// write merges the collected values into the golden file at path.
func (g *goldens) write(path string) error {
	if g.seed != goldenSeed {
		return fmt.Errorf("golden values are recorded at seed %d, not %d", goldenSeed, g.seed)
	}
	f := goldenFile{Seed: goldenSeed, Values: map[string]string{}}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, v := range g.got {
		f.Values[k] = v
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// intList renders counts as a golden value, e.g. "1000,523,352".
func intList(v []int) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprint(x)
	}
	return strings.Join(s, ",")
}
