package device

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/desim"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/sram"
)

func newTestBoard(t *testing.T, sim *desim.Simulator, id int) *SlaveBoard {
	t.Helper()
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	array, err := sram.New(profile, rng.New(uint64(id)+1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSlaveBoard(sim, id, id/8, byte(0x10+id%8), array, desim.FromSeconds(0.5))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewSlaveBoardValidation(t *testing.T) {
	sim := desim.New()
	if _, err := NewSlaveBoard(nil, 0, 0, 0x10, nil, 0); err == nil {
		t.Error("nil simulator accepted")
	}
	b := newTestBoard(t, sim, 0)
	if _, err := NewSlaveBoard(sim, 0, 0, 0x10, b.Array, -1); err == nil {
		t.Error("negative boot delay accepted")
	}
}

func TestPowerCycleLifecycle(t *testing.T) {
	sim := desim.New()
	b := newTestBoard(t, sim, 0)
	if b.powered || b.booted {
		t.Fatal("new board should be off")
	}
	// Reads before power fail.
	if _, err := b.HandleRead(16); err == nil {
		t.Fatal("read from unpowered board succeeded")
	}
	if err := b.PowerOn(); err != nil {
		t.Fatal(err)
	}
	if !b.powered || b.booted {
		t.Fatal("board should be powered but not yet booted")
	}
	// Reads during boot fail.
	if _, err := b.HandleRead(16); err == nil {
		t.Fatal("read during boot succeeded")
	}
	// Double power-on rejected.
	if err := b.PowerOn(); err == nil {
		t.Fatal("double power-on accepted")
	}
	drain(sim)
	if !b.booted {
		t.Fatal("board did not boot")
	}
	data, err := b.HandleRead(1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 1024 {
		t.Fatalf("read %d bytes, want 1024", len(data))
	}
	if got := b.Array.PowerUps(); got != 1 {
		t.Fatalf("power-ups sampled = %d, want 1", got)
	}
	if err := b.PowerOff(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.HandleRead(16); err == nil {
		t.Fatal("pattern survived power-off (SRAM is volatile)")
	}
	if err := b.PowerOff(); err == nil {
		t.Fatal("double power-off accepted")
	}
}

func TestPowerOffDuringBoot(t *testing.T) {
	sim := desim.New()
	b := newTestBoard(t, sim, 0)
	if err := b.PowerOn(); err != nil {
		t.Fatal(err)
	}
	if err := b.PowerOff(); err != nil {
		t.Fatal(err)
	}
	// The boot-completion event fires but must not mark an off board booted.
	drain(sim)
	if b.booted {
		t.Fatal("board booted while off")
	}
}

func TestPowerSwitch(t *testing.T) {
	sim := desim.New()
	ps, err := NewPowerSwitch(sim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPowerSwitch(nil); err == nil {
		t.Error("nil sim accepted")
	}
	b := newTestBoard(t, sim, 3)
	if err := ps.Connect(b); err != nil {
		t.Fatal(err)
	}
	if err := ps.Connect(b); err == nil {
		t.Error("duplicate channel accepted")
	}
	if err := ps.Connect(nil); err == nil {
		t.Error("nil board accepted")
	}
	if err := ps.Set(99, true); err == nil {
		t.Error("unknown channel accepted")
	}
	ps.SetTracing(true)
	if err := ps.Set(3, true); err != nil {
		t.Fatal(err)
	}
	drain(sim)
	if err := ps.Set(3, false); err != nil {
		t.Fatal(err)
	}
	trace := ps.Trace()
	if len(trace) != 2 || !trace[0].On || trace[1].On {
		t.Fatalf("trace = %+v", trace)
	}
}

func TestWaveformSample(t *testing.T) {
	trace := []Transition{
		{Channel: 0, At: 0, On: true},
		{Channel: 0, At: desim.FromSeconds(3.8), On: false},
		{Channel: 0, At: desim.FromSeconds(5.4), On: true},
		{Channel: 1, At: desim.FromSeconds(2.7), On: true},
	}
	cases := []struct {
		ch   int
		at   float64
		want bool
	}{
		{0, 1.0, true},
		{0, 4.0, false},
		{0, 5.5, true},
		{1, 1.0, false},
		{1, 3.0, true},
	}
	for _, c := range cases {
		if got := WaveformSample(trace, c.ch, desim.FromSeconds(c.at)); got != c.want {
			t.Errorf("channel %d at %vs: %v, want %v", c.ch, c.at, got, c.want)
		}
	}
}

func TestCyclePeriodAndOnTime(t *testing.T) {
	var trace []Transition
	for k := 0; k < 5; k++ {
		t0 := desim.FromSeconds(5.4 * float64(k))
		trace = append(trace,
			Transition{Channel: 0, At: t0, On: true},
			Transition{Channel: 0, At: t0 + desim.FromSeconds(3.8), On: false})
	}
	period, err := CyclePeriod(trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if period != 5400*time.Millisecond {
		t.Fatalf("period = %v", period)
	}
	on, err := OnTime(trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if on != 3800*time.Millisecond {
		t.Fatalf("on-time = %v", on)
	}
	if _, err := CyclePeriod(trace, 9); err == nil {
		t.Error("missing channel accepted")
	}
	if _, err := OnTime(nil, 0); err == nil {
		t.Error("empty trace accepted")
	}
}

// readCycle powers b on, boots it, reads its window, lets precapture
// hand over the next cycle's capture, reads again and powers off,
// returning the first read.
func readCycle(t *testing.T, sim *desim.Simulator, b *SlaveBoard, precapture bool) []byte {
	t.Helper()
	if err := b.PowerOn(); err != nil {
		t.Fatal(err)
	}
	drain(sim)
	data, err := b.HandleRead(1024)
	if err != nil {
		t.Fatal(err)
	}
	data = append([]byte(nil), data...)
	if precapture {
		b.Precapture()
	}
	again, err := b.HandleRead(1024)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("a second read in the same power cycle served other bytes")
	}
	if err := b.PowerOff(); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCaptureQueueKeepsPatterns: a board whose captures run on queue
// workers, each next capture handed over early by Precapture, serves the
// same read-outs, cycle by cycle, as a board sampling at the read.
func TestCaptureQueueKeepsPatterns(t *testing.T) {
	simA, simB := desim.New(), desim.New()
	inline, queued := newTestBoard(t, simA, 2), newTestBoard(t, simB, 2)
	q := make(CaptureQueue, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.Serve()
	}()
	queued.SetCaptureQueue(q)
	for c := range 5 {
		want := readCycle(t, simA, inline, false)
		if got := readCycle(t, simB, queued, c < 4); string(got) != string(want) {
			t.Fatalf("cycle %d: queued board served other bytes", c)
		}
	}
	queued.SetCaptureQueue(nil)
	close(q)
	<-done
	if inline.Array.PowerUps() != 5 || queued.Array.PowerUps() != 5 {
		t.Fatalf("power-ups sampled: inline %d, queued %d, want 5 each",
			inline.Array.PowerUps(), queued.Array.PowerUps())
	}
}

// TestCaptureQueueGroupsCaptures: boards of two read-window sizes share
// one queue and start their captures together, so every claimant — a
// worker in Serve or the owner at a join — finds others queued and
// samples them with its own, the equal windows in one lane call. With 1
// to 3 workers, each board serves the bytes of an inline twin cycle by
// cycle and samples as many power-ups. A board muted between cycles
// leaves a stale entry behind, and the last cycle's queue is closed
// while it still holds that cycle's captures.
func TestCaptureQueueGroupsCaptures(t *testing.T) {
	for workers := 1; workers <= 3; workers++ {
		t.Run(fmt.Sprintf("%d workers", workers), func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- groupedCycles(workers) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("a join never returned: a claimant sampled a capture without signalling its board")
			}
		})
	}
}

// groupedCycles runs TestCaptureQueueGroupsCaptures with the given
// number of workers; it reports errors instead of failing the test, so
// a stalled hand-off can be caught by the caller's timeout.
func groupedCycles(workers int) error {
	const boards, cycles, muted = 8, 6, 2
	var profiles [2]silicon.DeviceProfile
	for i, name := range []string{"atmega32u4", "fleetnode-1kb"} {
		p, err := silicon.Lookup(name)
		if err != nil {
			return err
		}
		profiles[i] = p
	}
	if profiles[0].ReadWindowBits() == profiles[1].ReadWindowBits() {
		return errors.New("the two profiles share a read window")
	}
	simA, simB := desim.New(), desim.New()
	var twins, queued []*SlaveBoard
	var chips [2][]*sram.Array
	for id := range boards {
		for side, sim := range []*desim.Simulator{simA, simB} {
			array, err := sram.New(profiles[id%2], rng.New(uint64(id)+1))
			if err != nil {
				return err
			}
			b, err := NewSlaveBoard(sim, id, 0, byte(0x10+id), array, desim.FromSeconds(0.5))
			if err != nil {
				return err
			}
			chips[side] = append(chips[side], array)
			if side == 0 {
				twins = append(twins, b)
			} else {
				queued = append(queued, b)
			}
		}
	}
	q := make(CaptureQueue, 2*boards)
	for _, b := range queued {
		b.SetCaptureQueue(q)
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Serve()
		}()
	}
	for c := range cycles {
		last := c == cycles-1
		if last {
			twins[muted].Mute()
			queued[muted].Mute()
		}
		want := make([][]byte, boards)
		for i, b := range twins {
			if err := b.PowerOn(); err != nil {
				return err
			}
			drain(simA)
			data, err := b.HandleRead(1024)
			if err != nil {
				return err
			}
			want[i] = append([]byte(nil), data...)
			if err := b.PowerOff(); err != nil {
				return err
			}
		}
		for _, b := range queued {
			if err := b.PowerOn(); err != nil {
				return err
			}
		}
		if last {
			close(q)
		}
		drain(simB)
		for i, b := range queued {
			data, err := b.HandleRead(1024)
			if err != nil {
				return err
			}
			if string(data) != string(want[i]) {
				return fmt.Errorf("cycle %d, board %d: queued board served other bytes than its inline twin", c, i)
			}
			if c+2 < cycles {
				b.Precapture()
			}
		}
		for _, b := range queued {
			if err := b.PowerOff(); err != nil {
				return err
			}
		}
	}
	for _, b := range queued {
		b.SetCaptureQueue(nil)
	}
	wg.Wait()
	for i := range boards {
		want := uint64(cycles)
		if i == muted {
			want--
		}
		if chips[0][i].PowerUps() != want || chips[1][i].PowerUps() != want {
			return fmt.Errorf("board %d sampled %d power-ups, its twin %d, want %d",
				i, chips[1][i].PowerUps(), chips[0][i].PowerUps(), want)
		}
	}
	return nil
}

// TestMutedBoardServesBlankWindow: a muted board keeps its place on the
// bus with a blank window of the full length and samples nothing.
func TestMutedBoardServesBlankWindow(t *testing.T) {
	sim := desim.New()
	b := newTestBoard(t, sim, 0)
	b.Mute()
	if !b.Muted() || b.Array != nil {
		t.Fatal("muted board still holds its SRAM")
	}
	data := readCycle(t, sim, b, true)
	if len(data) != 1024 || string(data) != string(make([]byte, 1024)) {
		t.Fatalf("muted board served %d bytes, want 1024 zeros", len(data))
	}
}

// drain runs every scheduled event; the boards schedule no recurring
// ones.
func drain(sim *desim.Simulator) {
	for sim.Step() {
	}
}
