package desim

import (
	"testing"
)

func TestTimeConversions(t *testing.T) {
	if Second != 1000000 || Millisecond != 1000 {
		t.Fatal("time unit constants wrong")
	}
	if FromSeconds(5.4) != 5400000 {
		t.Fatalf("FromSeconds(5.4) = %d", FromSeconds(5.4))
	}
	if got := Time(5400000).Seconds(); got != 5.4 {
		t.Fatalf("Seconds = %v", got)
	}
	if s := Time(1500000).String(); s != "1.500000s" {
		t.Fatalf("String = %q", s)
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	mustSchedule(t, s, 30*Millisecond, func() { order = append(order, 3) })
	mustSchedule(t, s, 10*Millisecond, func() { order = append(order, 1) })
	mustSchedule(t, s, 20*Millisecond, func() { order = append(order, 2) })
	runAll(s)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30*Millisecond {
		t.Fatalf("final time = %v", s.Now())
	}
}

func TestFIFOAtEqualTimes(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		mustSchedule(t, s, 5*Millisecond, func() { order = append(order, i) })
	}
	runAll(s)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestScheduleErrors(t *testing.T) {
	s := New()
	if err := s.Schedule(-1, func() {}); err == nil {
		t.Error("negative delay accepted")
	}
	if err := s.At(0, nil); err == nil {
		t.Error("nil function accepted")
	}
	mustSchedule(t, s, 10, func() {})
	s.Step()
	if err := s.At(5, func() {}); err == nil {
		t.Error("scheduling in the past accepted")
	}
}

func TestSelfScheduling(t *testing.T) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			if err := s.Schedule(Second, tick); err != nil {
				t.Error(err)
			}
		}
	}
	mustSchedule(t, s, 0, tick)
	runAll(s)
	if count != 100 {
		t.Fatalf("ticks = %d", count)
	}
	if s.Now() != 99*Second {
		t.Fatalf("final time = %v", s.Now())
	}
}

func TestProcessedCount(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		mustSchedule(t, s, Time(i), func() {})
	}
	if n := runAll(s); n != 7 {
		t.Fatalf("processed %d events, want 7", n)
	}
}

func TestNestedScheduling(t *testing.T) {
	// An event scheduling another event at the same timestamp runs it in
	// the same Run pass (FIFO after currently queued same-time events).
	s := New()
	var order []string
	mustSchedule(t, s, 10, func() {
		order = append(order, "outer")
		if err := s.Schedule(0, func() { order = append(order, "inner") }); err != nil {
			t.Error(err)
		}
	})
	mustSchedule(t, s, 10, func() { order = append(order, "sibling") })
	runAll(s)
	want := []string{"outer", "sibling", "inner"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// runAll steps the simulator until no event remains and returns the
// number of events executed.
func runAll(s *Simulator) int {
	n := 0
	for s.Step() {
		n++
	}
	return n
}

func mustSchedule(t *testing.T, s *Simulator, d Time, fn func()) {
	t.Helper()
	if err := s.Schedule(d, fn); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 100; j++ {
			_ = s.Schedule(Time(j), func() {})
		}
		runAll(s)
	}
}
