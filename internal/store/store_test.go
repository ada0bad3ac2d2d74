package store

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/bitvec"
)

func rec(board int, seq uint64, at time.Time) Record {
	v := bitvec.New(16)
	v.Set(int(seq)%16, true)
	return Record{Board: board, Layer: board / 8, Seq: seq, Cycle: seq, Wall: at, Data: v}
}

func TestEpochMatchesPaper(t *testing.T) {
	if Epoch.Year() != 2017 || Epoch.Month() != time.February || Epoch.Day() != 8 {
		t.Fatalf("Epoch = %v, want Feb 8 2017", Epoch)
	}
	if testEnd.Sub(Epoch) < 729*24*time.Hour || testEnd.Sub(Epoch) > 731*24*time.Hour {
		t.Fatalf("test span = %v, want ~2 years", testEnd.Sub(Epoch))
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	r := rec(3, 42, Epoch.Add(5*time.Hour))
	data, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"board":3`, `"seq":42`, `"bits":16`, `"data":`} {
		if !strings.Contains(string(data), field) {
			t.Errorf("JSON missing %s: %s", field, data)
		}
	}
	var back Record
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.Board != 3 || back.Seq != 42 || !back.Wall.Equal(r.Wall) || !back.Data.Equal(r.Data) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestRecordMarshalNilData(t *testing.T) {
	r := Record{Board: 1}
	if _, err := r.MarshalJSON(); err == nil {
		t.Fatal("nil data accepted")
	}
}

func TestRecordUnmarshalErrors(t *testing.T) {
	cases := []string{
		`{bad json`,
		`{"wall":"not-a-time","bits":8,"data":"00"}`,
		`{"wall":"2017-02-08T00:00:00Z","bits":8,"data":"zz"}`,
	}
	for _, c := range cases {
		var r Record
		if err := r.UnmarshalJSON([]byte(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestArchiveAppendAndQuery(t *testing.T) {
	a := NewArchive()
	for i := 0; i < 10; i++ {
		if err := a.Append(rec(0, uint64(i), Epoch.Add(time.Duration(i)*time.Minute))); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Append(rec(5, 0, Epoch)); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 11 {
		t.Fatalf("Len = %d", a.Len())
	}
	boards := a.Boards()
	if len(boards) != 2 || boards[0] != 0 || boards[1] != 5 {
		t.Fatalf("Boards = %v", boards)
	}
	if len(a.Records(0)) != 10 || len(a.Records(99)) != 0 {
		t.Fatalf("Records sizes wrong")
	}
}

func TestArchiveRejectsOutOfOrder(t *testing.T) {
	a := NewArchive()
	if err := a.Append(rec(0, 1, Epoch.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(rec(0, 2, Epoch)); err == nil {
		t.Fatal("out-of-order record accepted")
	}
	if err := a.Append(Record{Board: 0, Wall: Epoch}); err == nil {
		t.Fatal("record without data accepted")
	}
}

func TestMonthlyWindowStart(t *testing.T) {
	if got := MonthlyWindowStart(0); !got.Equal(Epoch) {
		t.Fatalf("month 0 = %v", got)
	}
	m1 := MonthlyWindowStart(1)
	if m1.Month() != time.March || m1.Day() != 8 || m1.Hour() != 0 {
		t.Fatalf("month 1 = %v, want Mar 8 midnight", m1)
	}
	m24 := MonthlyWindowStart(24)
	if !m24.Equal(testEnd) {
		t.Fatalf("month 24 = %v, want %v", m24, testEnd)
	}
}

func TestMonthLabel(t *testing.T) {
	if l := MonthLabel(0); l != "17-Feb" {
		t.Fatalf("label(0) = %q", l)
	}
	if l := MonthLabel(24); l != "19-Feb" {
		t.Fatalf("label(24) = %q", l)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	a := NewArchive()
	for b := 0; b < 3; b++ {
		for i := 0; i < 4; i++ {
			if err := a.Append(rec(b, uint64(i), Epoch.Add(time.Duration(i)*time.Second))); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := a.WriteArchiveJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 12 {
		t.Fatalf("JSONL lines = %d", lines)
	}
	back, err := convertJSONL(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 12 {
		t.Fatalf("restored Len = %d", back.Len())
	}
	for _, b := range back.Boards() {
		orig := a.Records(b)
		rest := back.Records(b)
		for i := range orig {
			if !orig[i].Data.Equal(rest[i].Data) || orig[i].Seq != rest[i].Seq {
				t.Fatalf("board %d record %d mismatch", b, i)
			}
		}
	}
}

// TestReadJSONLBadInput: the converter (the one JSONL reader) rejects
// malformed lines and out-of-order records, naming the line, and
// tolerates blank lines.
func TestReadJSONLBadInput(t *testing.T) {
	if _, err := convertJSONL([]byte("{broken\n")); err == nil {
		t.Fatal("broken JSONL accepted")
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []Record{rec(0, 1, Epoch.Add(time.Second)), rec(0, 0, Epoch)}); err != nil {
		t.Fatal(err)
	}
	if _, err := convertJSONL(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("out-of-order JSONL: err = %v, want an error naming line 2", err)
	}
	// Blank lines are tolerated.
	a, err := convertJSONL([]byte("\n\n"))
	if err != nil || a.Len() != 0 {
		t.Fatalf("blank lines: %v, len %d", err, a.Len())
	}
}

func TestJSONLWriterMatchesWriteJSONL(t *testing.T) {
	recs := []Record{rec(0, 0, Epoch), rec(1, 1, Epoch.Add(time.Second)), rec(0, 2, Epoch.Add(2*time.Second))}

	var batch bytes.Buffer
	if err := WriteJSONL(&batch, recs); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	jw := NewJSONLWriter(&streamed)
	for _, r := range recs {
		if err := jw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	if batch.String() != streamed.String() {
		t.Fatalf("record-at-a-time encoding differs from batch:\n%s\nvs\n%s", streamed.String(), batch.String())
	}
	a, err := convertJSONL(streamed.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != len(recs) {
		t.Fatalf("round trip kept %d of %d records", a.Len(), len(recs))
	}
}

// testEnd is the end of the campaign: February 8, 2019.
var testEnd = time.Date(2019, time.February, 8, 0, 0, 0, 0, time.UTC)
