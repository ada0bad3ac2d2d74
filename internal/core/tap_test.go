package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/store"
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
	// pruned ones stop after month 1, and the envelope is the rig's.
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
		last := recs[len(recs)-1]
		month := months[n/window-1]
		wantSeq := uint64(month)*cyclesPerMonth + window - 1
		if last.Board != g || last.Layer != g*2/devices || last.Seq != wantSeq || last.Cycle != wantSeq {
			t.Fatalf("board %d: last envelope %+v, want board %d layer %d seq=cycle %d", g, last, g, g*2/devices, wantSeq)
		}
	}
}

// firstEnvelopeDiff names the first board and record where two tapped
// streams part.
func firstEnvelopeDiff(got, want map[int][]envelope) string {
	for g := range max(len(got), len(want)) {
		a, b := got[g], want[g]
		for i := range max(len(a), len(b)) {
			if i >= len(a) || i >= len(b) || a[i] != b[i] {
				return fmt.Sprintf("board %d record %d: %d vs %d records", g, i, len(a), len(b))
			}
		}
	}
	return "board sets differ"
}
