// Package device models the boards of the measurement rig (§III, Fig. 2):
// slave Arduino Leonardo boards that capture and serve their SRAM power-up
// pattern, and the power-switch board with its per-channel connections.
// The Raspberry Pi that collects the read-outs is the sink the rig's
// masters forward to (harness.Rig.StreamWindow), not a board here.
package device

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/desim"
	"repro/internal/rng"
	"repro/internal/sram"
)

// SlaveBoard is one Arduino Leonardo: an ATmega32u4 whose SRAM power-up
// pattern is the measured PUF. It implements i2c.Slave: after boot it
// serves the captured read-out window to its master.
//
// The power-up capture is latched at the PowerOn edge but sampled off the
// event loop: on a CaptureQueue, PowerOn hands it to the queue's workers,
// and HandleRead and PowerOff join it. Without a queue the board samples
// at that join, on the caller's goroutine. A master that knows the board
// powers on again before its chip changes can hand over the next cycle's
// capture early, with Precapture. Either way the chip's noise stream is
// drawn once per power cycle, in cycle order, so the patterns are the
// same bits.
type SlaveBoard struct {
	ID    int // global board index (paper: S0..S7 on layer 0, S16..S23 on layer 1)
	Layer int
	Addr  byte // I2C address on its layer bus

	Array *sram.Array // nil once muted

	BootDelay desim.Time // power-on to readout-ready

	sim     *desim.Simulator
	powered bool
	booted  bool
	served  bool           // buf holds this power cycle's read-out
	pattern *bitvec.Vector // capture buffer, reused every power cycle
	buf     []byte         // read-out buffer HandleRead serves from

	// The capture in flight. pending and armed are the owner's: a capture
	// was started and not yet joined, and it is the next PowerOn's
	// (Precapture). claimed is taken by whoever samples it, the owner or
	// a queue worker (CaptureQueue.claim); a claimant other than the
	// owner signals done when it has sampled.
	queue   CaptureQueue
	pending bool
	armed   bool
	claimed atomic.Bool
	done    chan struct{}
	capErr  error
}

// NewSlaveBoard wires a slave board to the simulation clock.
func NewSlaveBoard(sim *desim.Simulator, id, layer int, addr byte, array *sram.Array, bootDelay desim.Time) (*SlaveBoard, error) {
	if sim == nil || array == nil {
		return nil, errors.New("device: nil simulator or array")
	}
	if bootDelay < 0 {
		return nil, fmt.Errorf("device: negative boot delay %v", bootDelay)
	}
	return &SlaveBoard{ID: id, Layer: layer, Addr: addr, Array: array, BootDelay: bootDelay, sim: sim,
		pattern: bitvec.New(array.Cells()), buf: make([]byte, 0, (array.Cells()+7)/8), done: make(chan struct{}, 1)}, nil
}

// SetCaptureQueue joins the board's capture in flight, if any, and
// routes its later captures through q; nil samples them at the join.
func (s *SlaveBoard) SetCaptureQueue(q CaptureQueue) {
	s.join()
	s.queue = q
}

// Mute releases the board's SRAM: the board stays in the power sequence
// and answers reads with a blank window of the same length, so the bus
// timing and its error draws — per byte, independent of the data — are
// unchanged, but no chip is sampled. A rig mutes the boards whose
// read-outs nobody collects.
func (s *SlaveBoard) Mute() {
	s.join()
	s.Array, s.pattern, s.armed = nil, nil, false
	s.buf = s.buf[:cap(s.buf)]
	clear(s.buf)
}

// Muted reports whether the board has no SRAM to sample.
func (s *SlaveBoard) Muted() bool { return s.Array == nil }

// PowerOn latches the SRAM power-up state (the physical capture happens at
// the supply rise) and schedules boot completion after BootDelay.
func (s *SlaveBoard) PowerOn() error {
	if s.powered {
		return fmt.Errorf("device: board %d already powered", s.ID)
	}
	if s.armed {
		s.armed = false
	} else {
		s.startCapture()
	}
	s.powered = true
	s.booted = false
	s.served = false
	return s.sim.Schedule(s.BootDelay, func() {
		if s.powered {
			s.booted = true
		}
	})
}

// Precapture hands the next power cycle's capture to the board's queue
// now, once this cycle's read-out has been served, so a worker samples
// it while the event loop runs other boards; the next PowerOn adopts it.
// The caller guarantees that the board powers on again before its chip
// changes (aging, muting). Without a queue, or unpowered, it does
// nothing: the next PowerOn captures as usual.
func (s *SlaveBoard) Precapture() {
	if s.queue == nil || !s.powered || s.armed || s.Array == nil {
		return
	}
	if s.serve() != nil {
		return // the next read reports the failed capture
	}
	s.startCapture()
	s.armed = true
}

// startCapture starts sampling one power-up into the capture buffer.
func (s *SlaveBoard) startCapture() {
	if s.Array == nil {
		return
	}
	s.pending = true
	s.claimed.Store(false)
	if s.queue != nil {
		s.queue <- s
	}
}

// join waits for the capture in flight and returns its error: it samples
// the capture itself if nobody has claimed it, and while a queue worker
// samples it, it claims and samples other queued captures.
func (s *SlaveBoard) join() error {
	if !s.pending {
		return s.capErr
	}
	s.pending = false
	if s.queue.claim(s, s) {
		return s.capErr
	}
	q := s.queue
	for {
		select {
		case <-s.done:
			return s.capErr
		default:
		}
		select {
		case <-s.done:
			return s.capErr
		case b, ok := <-q:
			if !ok {
				q = nil // closed: the workers sample what it still held
				continue
			}
			q.claim(b, nil)
		}
	}
}

// serve fills the read-out buffer from this cycle's capture, once per
// power cycle.
func (s *SlaveBoard) serve() error {
	if s.served {
		return nil
	}
	if err := s.join(); err != nil {
		return fmt.Errorf("device: board %d: %w", s.ID, err)
	}
	if s.Array != nil {
		s.buf = s.pattern.AppendBytes(s.buf[:0])
	}
	s.served = true
	return nil
}

// PowerOff drops power; the captured pattern is lost (SRAM is volatile).
func (s *SlaveBoard) PowerOff() error {
	if !s.powered {
		return fmt.Errorf("device: board %d already off", s.ID)
	}
	if !s.armed {
		s.join() // a capture nobody read still draws its noise now
	}
	s.powered = false
	s.booted = false
	return nil
}

// HandleRead implements i2c.Slave: it serves the captured pattern bytes
// from the board's read-out buffer, valid until the board's next power
// cycle.
func (s *SlaveBoard) HandleRead(n int) ([]byte, error) {
	if !s.powered {
		return nil, fmt.Errorf("device: board %d is off", s.ID)
	}
	if !s.booted {
		return nil, fmt.Errorf("device: board %d still booting", s.ID)
	}
	if err := s.serve(); err != nil {
		return nil, err
	}
	data := s.buf
	if n < len(data) {
		data = data[:n]
	}
	return data, nil
}

// CaptureQueue carries slave boards' power-up captures to worker
// goroutines, each running Serve. A board on a queue enqueues itself
// when it starts a capture; whoever claims the capture first samples it,
// so an entry whose capture the board's owner already joined, or whose
// board was muted since, is skipped. A claimant samples up to
// rng.Lanes captures at once: the one it claimed and those it finds
// ready on the queue. The owner of the boards (the rig's event loop) is
// their only sender, and closes the queue when it sends no more; the
// workers still sample the captures a closed queue holds.
type CaptureQueue chan *SlaveBoard

// Serve runs queued captures until the queue is closed and drained.
func (q CaptureQueue) Serve() {
	for b := range q {
		q.claim(b, nil)
	}
}

// claim claims b's capture unless someone already has, then claims up to
// rng.Lanes-1 more queued captures and samples them all: the chips that
// share b's read window in one sram.PowerUpWindows call, any other
// window in its own. It signals done on every board it sampled but own,
// whose owner is the caller and joins without waiting. It reports
// whether it claimed b. A claimant holding claims never blocks — it
// takes more captures only while the queue has them ready — so an owner
// that waits in join for one of them cannot deadlock it.
func (q CaptureQueue) claim(b, own *SlaveBoard) bool {
	if !b.claimed.CompareAndSwap(false, true) {
		return false
	}
	batch := [rng.Lanes]*SlaveBoard{b}
	n := 1
more:
	for n < len(batch) {
		select {
		case c, ok := <-q:
			if !ok {
				break more
			}
			if c.claimed.CompareAndSwap(false, true) {
				batch[n] = c
				n++
			}
		default:
			break more
		}
	}
	for rest := batch[:n]; len(rest) > 0; {
		// Move the boards sharing rest[0]'s window to the front.
		k := 1
		for i := 1; i < len(rest); i++ {
			if rest[i].Array.Cells() == rest[0].Array.Cells() {
				rest[k], rest[i] = rest[i], rest[k]
				k++
			}
		}
		sampleGroup(rest[:k], own)
		rest = rest[k:]
	}
	return true
}

// sampleGroup samples the claimed captures of boards that share one read
// window and signals done on each but own. A signalled board belongs to
// its owner again, so it is not touched after its signal.
func sampleGroup(boards []*SlaveBoard, own *SlaveBoard) {
	var chips [rng.Lanes]*sram.Array
	var dst [rng.Lanes]*bitvec.Vector
	for i, b := range boards {
		chips[i], dst[i] = b.Array, b.pattern
	}
	err := sram.PowerUpWindows(chips[:len(boards)], dst[:len(boards)])
	for _, b := range boards {
		b.capErr = err
		if b != own {
			b.done <- struct{}{}
		}
	}
}

// Transition is one power-switch edge, the raw material of the Fig. 3
// waveforms.
type Transition struct {
	Channel int // board ID
	At      desim.Time
	On      bool
}

// PowerSwitch is the relay board: one independently switched channel per
// slave board ("separate connections between the power switch and each
// slave board avoid interference", §III).
type PowerSwitch struct {
	sim      *desim.Simulator
	channels map[int]*SlaveBoard
	trace    []Transition
	tracing  bool
}

// NewPowerSwitch creates a switch on the simulation clock.
func NewPowerSwitch(sim *desim.Simulator) (*PowerSwitch, error) {
	if sim == nil {
		return nil, errors.New("device: nil simulator")
	}
	return &PowerSwitch{sim: sim, channels: make(map[int]*SlaveBoard)}, nil
}

// Connect wires a board to its channel.
func (ps *PowerSwitch) Connect(board *SlaveBoard) error {
	if board == nil {
		return errors.New("device: nil board")
	}
	if _, dup := ps.channels[board.ID]; dup {
		return fmt.Errorf("device: channel %d already connected", board.ID)
	}
	ps.channels[board.ID] = board
	return nil
}

// SetTracing enables or disables waveform capture.
func (ps *PowerSwitch) SetTracing(on bool) { ps.tracing = on }

// Trace returns the captured transitions in chronological order.
func (ps *PowerSwitch) Trace() []Transition { return ps.trace }

// Set switches one channel.
func (ps *PowerSwitch) Set(channel int, on bool) error {
	b, ok := ps.channels[channel]
	if !ok {
		return fmt.Errorf("device: no board on channel %d", channel)
	}
	var err error
	if on {
		err = b.PowerOn()
	} else {
		err = b.PowerOff()
	}
	if err != nil {
		return err
	}
	if ps.tracing {
		ps.trace = append(ps.trace, Transition{Channel: channel, At: ps.sim.Now(), On: on})
	}
	return nil
}

// WaveformSample reconstructs the power state of one channel at a given
// time from a transition trace (false before the first edge).
func WaveformSample(trace []Transition, channel int, at desim.Time) bool {
	state := false
	for _, tr := range trace {
		if tr.Channel != channel {
			continue
		}
		if tr.At > at {
			break
		}
		state = tr.On
	}
	return state
}

// CyclePeriod estimates the power-cycle period of a channel from its
// trace: the mean spacing between consecutive rising edges.
func CyclePeriod(trace []Transition, channel int) (time.Duration, error) {
	var rises []desim.Time
	for _, tr := range trace {
		if tr.Channel == channel && tr.On {
			rises = append(rises, tr.At)
		}
	}
	if len(rises) < 2 {
		return 0, fmt.Errorf("device: channel %d has %d rising edges, need >= 2", channel, len(rises))
	}
	span := rises[len(rises)-1] - rises[0]
	mean := float64(span) / float64(len(rises)-1)
	return time.Duration(mean) * time.Microsecond, nil
}

// OnTime estimates the mean powered duration per cycle of a channel.
func OnTime(trace []Transition, channel int) (time.Duration, error) {
	var total desim.Time
	var count int
	var lastOn desim.Time
	on := false
	for _, tr := range trace {
		if tr.Channel != channel {
			continue
		}
		if tr.On && !on {
			lastOn = tr.At
			on = true
		} else if !tr.On && on {
			total += tr.At - lastOn
			count++
			on = false
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("device: channel %d has no complete on-phase", channel)
	}
	return time.Duration(float64(total)/float64(count)) * time.Microsecond, nil
}
