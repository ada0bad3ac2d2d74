package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/store"
)

// syntheticCheckpoint writes a v1 archive the way the service's record
// tap does: month by month, the boards' records interleaved within a
// month. counts[m][b] is board b's record count in month m.
func syntheticCheckpoint(t testing.TB, counts map[int][]int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := store.NewBinaryWriterV1(&buf)
	for m := 0; m <= 64; m++ {
		perBoard := counts[m]
		for i := 0; ; i++ {
			wrote := false
			for b, n := range perBoard {
				if i >= n {
					continue
				}
				v := bitvec.New(64)
				v.SetWord(0, uint64(b)<<32|uint64(m)<<16|uint64(i))
				rec := store.Record{Board: b, Seq: uint64(i), Wall: store.MonthlyWindowStart(m).Add(time.Duration(i) * time.Second), Data: v}
				if err := w.Write(rec); err != nil {
					t.Fatal(err)
				}
				wrote = true
			}
			if !wrote {
				break
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// listArchive lists the archive at path with the lister a spec's replay
// uses: surviving when the spec screens, strict otherwise. An archive
// without records lists nothing.
func listArchive(path string, spec Spec) ([]int, error) {
	if info, err := store.InspectFile(path); err == nil && info.Records == 0 {
		return nil, nil
	}
	src, err := core.OpenArchiveSource(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	cs, err := spec.campaign()
	if err != nil {
		return nil, err
	}
	if cs.Screening != nil {
		return src.AvailableMonthsSurviving(spec.Window)
	}
	return src.AvailableMonths(spec.Window)
}

// evalPrefix is the longest prefix of eval whose months all appear in
// listed: the done months a listing implies for a campaign.
func evalPrefix(eval, listed []int) []int {
	in := make(map[int]bool, len(listed))
	for _, m := range listed {
		in[m] = true
	}
	var out []int
	for _, m := range eval {
		if !in[m] {
			break
		}
		out = append(out, m)
	}
	return out
}

// TestRecoveryAgreesWithListers: checkpoint recovery and the archive
// listers apply one completeness rule. Over synthetic v1 checkpoints,
// recovery's done prefix must be the prefix of the campaign's months the
// matching lister (strict, or surviving for a screened campaign) lists
// on the same archive; where the lister reports lost records or the
// file is torn, the recovered file must list exactly the done months.
// Under screening the first month must be whole and a pruned board
// never returns.
func TestRecoveryAgreesWithListers(t *testing.T) {
	const window = 3
	full := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = window
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		spec     Spec
		counts   map[int][]int
		tail     int  // bytes of a further record appended (a torn write)
		listErr  bool // the lister reports records lost mid-archive
		wantDone []int
		cut      bool // recovery must rewrite the file
	}{
		{
			name:     "complete",
			spec:     Spec{Devices: 2, Window: window, Months: 2},
			counts:   map[int][]int{0: full(2), 1: full(2), 2: full(2)},
			wantDone: []int{0, 1, 2},
		},
		{
			name:     "torn tail",
			spec:     Spec{Devices: 2, Window: window, Months: 2},
			counts:   map[int][]int{0: full(2), 1: full(2), 2: {window, 2}},
			tail:     20,
			wantDone: []int{0, 1},
			cut:      true,
		},
		{
			name:     "short month followed by a complete one",
			spec:     Spec{Devices: 2, Window: window, Months: 2},
			counts:   map[int][]int{0: full(2), 1: {window, 1}, 2: full(2)},
			listErr:  true,
			wantDone: []int{0},
			cut:      true,
		},
		{
			name:     "board absent at the first month",
			spec:     Spec{Devices: 3, Window: window, Months: 2, ScreenFloor: 0.5},
			counts:   map[int][]int{0: {window, window, 0}, 1: full(3), 2: full(3)},
			listErr:  true,
			wantDone: nil,
			cut:      true,
		},
		{
			name:     "pruned board reappears",
			spec:     Spec{Devices: 3, Window: window, Months: 2, ScreenFloor: 0.5},
			counts:   map[int][]int{0: full(3), 1: {window, window, 0}, 2: full(3)},
			wantDone: []int{0, 1},
			cut:      true,
		},
		{
			name:     "screened, killed between months",
			spec:     Spec{Devices: 3, Window: window, Months: 3, ScreenFloor: 0.5},
			counts:   map[int][]int{0: full(3), 1: {window, window, 0}},
			wantDone: []int{0, 1},
		},
		{
			name:     "pruned board stays pruned",
			spec:     Spec{Devices: 3, Window: window, Months: 2, ScreenFloor: 0.5},
			counts:   map[int][]int{0: full(3), 1: {window, window, 0}, 2: {window, 0, 0}},
			wantDone: []int{0, 1, 2},
		},
		{
			name:     "sparse month list",
			spec:     Spec{Devices: 2, Window: window, MonthList: []int{0, 3, 5}},
			counts:   map[int][]int{0: full(2), 3: full(2), 5: full(2)},
			wantDone: []int{0, 3, 5},
		},
		{
			name:     "sparse month list, gap month unmeasured",
			spec:     Spec{Devices: 2, Window: window, MonthList: []int{0, 3, 5}},
			counts:   map[int][]int{0: full(2), 5: full(2)},
			wantDone: []int{0},
			cut:      true,
		},
		{
			name:     "over-full device-month",
			spec:     Spec{Devices: 2, Window: window, Months: 1},
			counts:   map[int][]int{0: {window + 2, window}, 1: full(2)},
			wantDone: []int{0, 1},
			cut:      true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := syntheticCheckpoint(t, tc.counts)
			torn := tc.tail > 0
			if torn {
				// A further record, cut short mid-write.
				data = append(data, data[len(store.BinaryMagic):len(store.BinaryMagic)+tc.tail]...)
			}
			path := filepath.Join(t.TempDir(), "c000001.bin")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			eval := tc.spec.EvalMonths()
			listed, listErr := listArchive(path, tc.spec)
			switch {
			case torn:
				if listErr == nil {
					t.Fatalf("torn archive listed %v; replay must refuse a torn file", listed)
				}
			case tc.listErr:
				if listErr == nil {
					t.Fatalf("lister listed %v, want an error for records lost mid-archive", listed)
				}
			case listErr != nil:
				t.Fatalf("lister: %v", listErr)
			}

			done, err := recoverCheckpoint(path, campaignOf(t, tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(done, tc.wantDone) {
				t.Fatalf("recovered months %v, want %v", done, tc.wantDone)
			}
			if listErr == nil {
				if want := evalPrefix(eval, listed); !reflect.DeepEqual(done, want) {
					t.Fatalf("recovery keeps %v, the lister's %v implies %v", done, listed, want)
				}
			}
			recovered, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if cut := !bytes.Equal(recovered, data); cut != tc.cut {
				t.Fatalf("recovery rewrote the file: %v, want %v", cut, tc.cut)
			}
			relisted, err := listArchive(path, tc.spec)
			if err != nil {
				t.Fatalf("listing the recovered archive: %v", err)
			}
			if !reflect.DeepEqual(relisted, done) {
				t.Fatalf("recovered archive lists %v, recovery returned %v", relisted, done)
			}
			again, err := recoverCheckpoint(path, campaignOf(t, tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, done) || !bytes.Equal(after, recovered) {
				t.Fatalf("second recovery returned %v and rewrote the file: %v", again, !bytes.Equal(after, recovered))
			}
		})
	}
}

// FuzzRecoverCheckpoint: a valid v1 checkpoint prefix followed by
// arbitrary bytes — a crash at any point, or garbage after one. Recovery
// must not fail or panic; the recovered file's listing (strict, or
// surviving when screened) must equal the months recovery returned; and
// a second recovery must return the same months and leave the file
// byte-identical.
func FuzzRecoverCheckpoint(f *testing.F) {
	const window = 2
	full := []int{window, window}
	valid := syntheticCheckpoint(f, map[int][]int{0: full, 1: full, 2: full, 3: {window, 1}})
	rec := (len(valid) - len(store.BinaryMagic)) / 15 // one 64-bit record
	f.Add(uint8(15), []byte{}, false)
	f.Add(uint8(12), valid[len(store.BinaryMagic):len(store.BinaryMagic)+rec/2], false)
	f.Add(uint8(8), valid[len(store.BinaryMagic):len(store.BinaryMagic)+rec], true)
	f.Add(uint8(4), []byte("garbage after a crash"), false)
	f.Add(uint8(0), valid[len(valid)-3*rec:], true)
	f.Fuzz(func(t *testing.T, records uint8, tail []byte, screened bool) {
		keep := len(store.BinaryMagic) + min(int(records), 15)*rec
		data := append(append([]byte(nil), valid[:keep]...), tail...)
		spec := Spec{Devices: 2, Window: window, Months: 3}
		if screened {
			spec.ScreenFloor = 0.5
		}
		path := filepath.Join(t.TempDir(), "c000001.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		done, err := recoverCheckpoint(path, campaignOf(t, spec))
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		listed, err := listArchive(path, spec)
		if err != nil {
			t.Fatalf("listing the recovered archive: %v", err)
		}
		if !reflect.DeepEqual(listed, done) {
			t.Fatalf("recovered archive lists %v, recovery returned %v", listed, done)
		}
		recovered, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		again, err := recoverCheckpoint(path, campaignOf(t, spec))
		if err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, done) || !bytes.Equal(after, recovered) {
			t.Fatalf("second recovery returned %v (first %v) and rewrote the file: %v", again, done, !bytes.Equal(after, recovered))
		}
	})
}
