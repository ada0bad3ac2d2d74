package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/silicon"
	"repro/internal/store"
	"repro/internal/stream"
)

// envelope is one tapped record with every field in comparable form.
type envelope struct {
	Board, Layer int
	Seq, Cycle   uint64
	Wall         int64 // UnixNano
	Bits         string
}

// tappedBoards decodes an archive into each board's record stream, in
// capture order: the board's segments month by month, each in capture
// order.
func tappedBoards(t *testing.T, archive []byte) map[int][]envelope {
	boards := map[int][]envelope{}
	eachTapped(t, archive, func(_ int, e envelope) { boards[e.Board] = append(boards[e.Board], e) })
	return boards
}

// tappedSegments decodes an archive into its (board, month) segments,
// each in capture order.
func tappedSegments(t *testing.T, archive []byte) map[[2]int][]envelope {
	segs := map[[2]int][]envelope{}
	eachTapped(t, archive, func(month int, e envelope) {
		segs[[2]int{e.Board, month}] = append(segs[[2]int{e.Board, month}], e)
	})
	return segs
}

// eachTapped hands every record of an archive to f with its month,
// segment by segment, each segment in capture order.
func eachTapped(t *testing.T, archive []byte, f func(month int, e envelope)) {
	t.Helper()
	r, err := store.OpenIndexedBytes(archive)
	if err != nil {
		t.Fatal(err)
	}
	var dec store.SegmentDecoder
	for _, seg := range r.Segments() {
		err := r.ReadSegment(&dec, seg.Board, seg.Month, 0, func(rec *store.Record) error {
			f(seg.Month, envelope{
				Board: rec.Board, Layer: rec.Layer, Seq: rec.Seq, Cycle: rec.Cycle,
				Wall: rec.Wall.UnixNano(), Bits: string(rec.Data.Bytes()),
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSimTapEnvelopesMatchAcrossLayouts: the direct sim sources' record
// tap frames every measurement exactly as a sharded sim source does. A
// two-profile fleet measured with 2 workers, two devices pruned
// after month 1, is tapped into a v1 archive on four layouts — eager
// direct, lazy direct, one shard and two shards — and every layout
// yields the identical per-board record stream: board, layer, sequence,
// cycle, wall clock and bits.
func TestSimTapEnvelopesMatchAcrossLayouts(t *testing.T) {
	fleet := screeningFleet(t)
	const devices, seed, window = 6, 99, 12
	months := []int{0, 1, 3}
	pruned := []int{1, 4}
	layouts := []struct {
		name string
		spec SimSpec
	}{
		{"1-shard", SimSpec{Shards: 1}}, // the reference the others are held to
		{"eager", SimSpec{}},
		{"lazy", SimSpec{Lazy: true}},
		{"2-shard", SimSpec{Shards: 2}},
	}
	var want map[int][]envelope
	for _, l := range layouts {
		spec := l.spec
		spec.Fleet, spec.Devices, spec.Seed = fleet, devices, seed
		src := mustOpen[interface {
			Source
			WorkerSetter
			DevicePruner
			SetTap(func(store.Record) error)
		}](t, spec) // every layout can tap, prune and take workers
		var buf bytes.Buffer
		w := store.NewBinaryWriterV1(&buf)
		src.SetTap(w.Write)
		src.SetWorkers(2)
		for i, month := range months {
			if i == 2 {
				if err := src.PruneDevices(pruned); err != nil {
					t.Fatal(err)
				}
			}
			if err := src.Measure(context.Background(), month, window, discardSink); err != nil {
				t.Fatalf("%s: month %d: %v", l.name, month, err)
			}
		}
		if c, ok := src.(io.Closer); ok {
			c.Close()
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		got := tappedBoards(t, buf.Bytes())
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: tapped record stream differs from the 1-shard oracle:\n%s", l.name, firstEnvelopeDiff(got, want))
		}
	}

	// The oracle itself: every device taps a full window per month, the
	// pruned ones stop after month 1, and the envelope is the rig's: the
	// i-th measurement of a month is cycle month·CyclesPerMonth + i, its
	// Seq the board's power-up count Cycle + 1, and its Wall the power-on
	// edge of that cycle, the layer's half-cycle offset (2.7 s) plus i
	// periods of 5.4 s after the month's window start.
	if len(want) != devices {
		t.Fatalf("oracle tapped %d boards, want %d", len(want), devices)
	}
	for g, recs := range want {
		n := window * len(months)
		if g == pruned[0] || g == pruned[1] {
			n = window * 2
		}
		if len(recs) != n {
			t.Fatalf("board %d tapped %d records, want %d", g, len(recs), n)
		}
		layer := g * 2 / devices
		for k, rec := range recs {
			month, i := months[k/window], k%window
			cycle := uint64(month)*harness.CyclesPerMonth + uint64(i)
			wall := store.MonthlyWindowStart(month).Add(time.Duration(layer)*2700*time.Millisecond + time.Duration(i)*5400*time.Millisecond)
			if rec.Board != g || rec.Layer != layer || rec.Cycle != cycle || rec.Seq != cycle+1 || rec.Wall != wall.UnixNano() {
				t.Fatalf("board %d record %d: envelope %+v, want layer %d cycle %d seq %d wall %v", g, k, rec, layer, cycle, cycle+1, wall)
			}
		}
	}
}

// firstEnvelopeDiff names the first board and record where two tapped
// streams part.
func firstEnvelopeDiff(got, want map[int][]envelope) string {
	for g := range max(len(got), len(want)) {
		a, b := got[g], want[g]
		for i := range max(len(a), len(b)) {
			switch {
			case i >= len(a) || i >= len(b):
				return fmt.Sprintf("board %d record %d: %d vs %d records", g, i, len(a), len(b))
			case a[i] != b[i]:
				x, y := a[i], b[i]
				x.Bits, y.Bits = fmt.Sprintf("%x…", x.Bits[:4]), fmt.Sprintf("%x…", y.Bits[:4])
				return fmt.Sprintf("board %d record %d: %+v vs %+v", g, i, x, y)
			}
		}
	}
	return "board sets differ"
}

// TestRecordEnvelopeSealsAcrossLayouts: every layout frames the same
// records, so one campaign's archive does not depend on the layout that
// recorded it. An ATmega32u4 campaign (4 and 6 boards, months 0, 1 and
// 3, 2 workers), plain and with one board pruned after month 1, is
// tapped into a v1 archive on the rig (width 1, default width, pooled),
// the rig on 2 shards, and the eager, lazy, 1-shard and 2-shard sim
// sources; each archive is sealed with store.UpgradeFile, and every
// sealed archive is byte-identical.
func TestRecordEnvelopeSealsAcrossLayouts(t *testing.T) {
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	const seed, window = 99, 20
	months := []int{0, 1, 3}
	layouts := []struct {
		name    string
		spec    SimSpec
		workers int // pooled: a pump on a shared pool of 2
	}{
		{"rig/width-1", SimSpec{Rig: true}, 1}, // the reference the others are held to
		{"rig/default-width", SimSpec{Rig: true}, 0},
		{"rig/pooled", SimSpec{Rig: true}, pooled},
		{"rig/2-shard", SimSpec{Rig: true, Shards: 2}, 2},
		{"eager", SimSpec{}, 2},
		{"lazy", SimSpec{Lazy: true}, 2},
		{"sim/1-shard", SimSpec{Shards: 1}, 2},
		{"sim/2-shard", SimSpec{Shards: 2}, 2},
	}
	for _, devices := range []int{4, 6} {
		for _, pruned := range [][]int{nil, {1}} {
			var want []byte
			for _, l := range layouts {
				name := fmt.Sprintf("%d boards, pruned %v, %s", devices, pruned, l.name)
				spec := l.spec
				spec.Profile, spec.Devices, spec.Seed = profile, devices, seed
				src := mustOpen[interface {
					Source
					WorkerSetter
					DevicePruner
					SetTap(func(store.Record) error)
				}](t, spec)
				if l.workers == pooled {
					src.(*RigSource).SetPool(stream.NewPool(2))
				} else {
					src.SetWorkers(l.workers)
				}
				var buf bytes.Buffer
				w := store.NewBinaryWriterV1(&buf)
				src.SetTap(w.Write)
				for i, month := range months {
					if i == 2 && pruned != nil {
						if err := src.PruneDevices(pruned); err != nil {
							t.Fatal(err)
						}
					}
					if err := src.Measure(context.Background(), month, window, discardSink); err != nil {
						t.Fatalf("%s: month %d: %v", name, month, err)
					}
				}
				if c, ok := src.(io.Closer); ok {
					c.Close()
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(t.TempDir(), "tap.bin")
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := store.UpgradeFile(path); err != nil {
					t.Fatal(err)
				}
				sealed, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = sealed
					continue
				}
				if !bytes.Equal(sealed, want) {
					t.Errorf("%s: sealed archive differs from the width-1 rig's:\n%s", name,
						firstEnvelopeDiff(tappedBoards(t, sealed), tappedBoards(t, want)))
				}
			}
		}
	}
}
