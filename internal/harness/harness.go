// Package harness assembles and drives the paper's measurement rig
// (§III, Fig. 2): two master Arduino boards, sixteen slave boards stacked
// in two layers, a power-switch board with one channel per slave, and I2C
// buses between masters and slaves. The masters forward every read-out
// to one sink, the Raspberry Pi's role in the paper: the caller of
// StreamWindow decides whether it is evaluated, archived or discarded.
//
// The control flow is Algorithm 1 of the paper: a layer powers its slaves,
// waits for them to boot, reads each slave's 1 KByte SRAM power-up window
// over I2C, forwards the data to the sink, powers the slaves off, and
// handshakes with the other layer so both produce the same number of
// measurements per period while their power curves stay unsynchronised
// (offset by half a cycle) to avoid interference.
//
// Time scales: a full campaign is ~11.7 million cycles per board; the
// harness is therefore run only for the evaluation windows (the paper
// analyses the first 1,000 measurements after midnight on the 8th of each
// month), while chip aging between windows is advanced analytically by the
// campaign driver in package core.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/desim"
	"repro/internal/device"
	"repro/internal/i2c"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/sram"
	"repro/internal/store"
	"repro/internal/stream"
)

// Config describes the rig layout and timing.
type Config struct {
	Profile        silicon.DeviceProfile
	Layers         int
	SlavesPerLayer int
	Seed           uint64

	BusClockHz   int
	I2CErrorRate float64 // probability of a corrupted byte on the wire

	Timing
}

// Timing is the rig's power-cycle schedule.
type Timing struct {
	BootDelay    desim.Time // slave power-on to readout-ready
	PowerOnTime  desim.Time // powered phase per cycle (3.8 s in the paper)
	PowerOffTime desim.Time // unpowered phase per cycle (1.6 s)
	LayerOffset  desim.Time // phase offset between layers (half a cycle)
}

// PaperTiming returns the paper's schedule: 0.5 s boot, 3.8 s on / 1.6 s
// off, layers offset by half a cycle.
func PaperTiming() Timing {
	return Timing{
		BootDelay:    desim.FromSeconds(0.5),
		PowerOnTime:  desim.FromSeconds(silicon.PowerOnSeconds),
		PowerOffTime: desim.FromSeconds(silicon.PowerOffSeconds),
		LayerOffset:  desim.FromSeconds((silicon.PowerOnSeconds + silicon.PowerOffSeconds) / 2),
	}
}

// DefaultConfig returns the paper's rig: 2 layers x 8 slaves, 400 kHz I2C,
// PaperTiming.
func DefaultConfig(profile silicon.DeviceProfile, seed uint64) Config {
	return Config{
		Profile:        profile,
		Layers:         2,
		SlavesPerLayer: 8,
		Seed:           seed,
		BusClockHz:     i2c.FastMode,
		Timing:         PaperTiming(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Layers < 1 || c.Layers > 2:
		return fmt.Errorf("harness: %d layers unsupported (rig has 1 or 2)", c.Layers)
	case c.SlavesPerLayer < 1:
		return fmt.Errorf("harness: need >= 1 slave per layer, got %d", c.SlavesPerLayer)
	case c.BusClockHz <= 0:
		return fmt.Errorf("harness: bus clock %d", c.BusClockHz)
	case c.BootDelay < 0 || c.PowerOnTime <= 0 || c.PowerOffTime <= 0:
		return errors.New("harness: non-positive phase durations")
	case c.I2CErrorRate < 0 || c.I2CErrorRate > 1:
		return fmt.Errorf("harness: I2C error rate %v", c.I2CErrorRate)
	}
	// The readout must fit inside the powered phase, counted from the
	// cycle start as startCycle schedules it.
	readout := c.BootDelay + readStartDelay + desim.Time(c.SlavesPerLayer)*readDuration(c)
	if readout >= c.PowerOnTime {
		return fmt.Errorf("harness: readout %v does not fit in powered phase %v", readout, c.PowerOnTime)
	}
	return c.Profile.Validate()
}

// readStartDelay is how long after boot a master starts reading its
// first slave.
const readStartDelay = desim.Millisecond

func readDuration(c Config) desim.Time {
	bits := 10 + c.Profile.ReadWindowBytes*9 + 1
	return desim.Time(float64(bits)/float64(c.BusClockHz)*1e6 + 1)
}

// CyclePeriod returns the rig's power-cycle period.
func (t Timing) CyclePeriod() desim.Time { return t.PowerOnTime + t.PowerOffTime }

// CyclesPerMonth approximates the power cycles a board accumulates per
// month at the rig's 5.4 s period.
const CyclesPerMonth = uint64(30.44 * 24 * 3600 / 5.4)

// Envelope frames the read-out of the i-th power cycle of a board on the
// given layer in the month's evaluation window: the one record envelope
// of every layout, the rig's and the direct sources'. Cycle is
// month·CyclesPerMonth + i, Seq = Cycle + 1 is the board's lifetime
// power-up count, and Wall is the power-on edge that latched the pattern:
// the month's window start plus the layer's phase offset and i cycle
// periods. The window's first cycle starts at the window start, as
// StreamWindow schedules it.
func (t Timing) Envelope(board, layer, month, i int, data *bitvec.Vector) store.Record {
	cycle := uint64(month)*CyclesPerMonth + uint64(i)
	edge := desim.Time(layer)*t.LayerOffset + desim.Time(i)*t.CyclePeriod()
	return store.Record{
		Board: board,
		Layer: layer,
		Seq:   cycle + 1,
		Cycle: cycle,
		Wall:  store.MonthlyWindowStart(month).Add(time.Duration(edge) * time.Microsecond),
		Data:  data,
	}
}

// Rig is the assembled measurement setup.
type Rig struct {
	cfg Config
	sim *desim.Simulator
	sw  *device.PowerSwitch

	masters []*master
	boards  []*device.SlaveBoard // all slaves, global ID order
	arrays  []*sram.Array

	month      int // the running window's campaign month
	readErrors uint64
	workers    int // capture and aging width; <= 0: one per logical CPU

	// sink receives every read-out record of the running window in
	// capture order; the rig buffers nothing. sinkErr records the first
	// sink failure.
	sink    func(store.Record) error
	sinkErr error
	// aborted poisons the rig after a window stopped mid-cycle (sink
	// failure, typically cancellation): stale simulator events from the
	// aborted cycle would fire into any later window, so further windows
	// are refused rather than silently corrupted.
	aborted bool
}

// master is one master Arduino board driving the slaves of its layer
// through Algorithm 1.
type master struct {
	rig    *Rig
	layer  int
	bus    *i2c.Bus
	slaves []*device.SlaveBoard

	completed uint64 // cycles completed in the current window
	target    uint64
	running   bool
	waiting   bool
	other     *master
}

// New assembles a rig.
func New(cfg Config) (*Rig, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim := desim.New()
	sw, err := device.NewPowerSwitch(sim)
	if err != nil {
		return nil, err
	}
	r := &Rig{cfg: cfg, sim: sim, sw: sw}
	root := rng.New(cfg.Seed)
	boardID := 0
	for layer := 0; layer < cfg.Layers; layer++ {
		bus, err := i2c.NewBus(fmt.Sprintf("layer%d", layer), cfg.BusClockHz)
		if err != nil {
			return nil, err
		}
		if cfg.I2CErrorRate > 0 {
			if err := bus.WithErrorInjection(cfg.I2CErrorRate, root.Derive(0xE44)); err != nil {
				return nil, err
			}
		}
		m := &master{rig: r, layer: layer, bus: bus}
		for s := 0; s < cfg.SlavesPerLayer; s++ {
			array, err := sram.New(cfg.Profile, root.Derive(uint64(boardID)+1))
			if err != nil {
				return nil, err
			}
			addr := byte(0x10 + s)
			slave, err := device.NewSlaveBoard(sim, boardID, layer, addr, array, cfg.BootDelay)
			if err != nil {
				return nil, err
			}
			if err := bus.Attach(addr, slave); err != nil {
				return nil, err
			}
			if err := sw.Connect(slave); err != nil {
				return nil, err
			}
			m.slaves = append(m.slaves, slave)
			r.boards = append(r.boards, slave)
			r.arrays = append(r.arrays, array)
			boardID++
		}
		r.masters = append(r.masters, m)
	}
	if cfg.Layers == 2 {
		r.masters[0].other = r.masters[1]
		r.masters[1].other = r.masters[0]
	}
	return r, nil
}

// Boards returns all slave boards in global ID order.
func (r *Rig) Boards() []*device.SlaveBoard { return r.boards }

// Arrays returns the SRAM arrays of all boards in global ID order; a
// muted board's entry is nil.
func (r *Rig) Arrays() []*sram.Array { return r.arrays }

// SetWorkers bounds how many power-up captures, and how many boards'
// aging, run at once: the event loop plus n-1 worker goroutines. n <= 0
// runs one per logical CPU; 1 samples every capture on the event loop.
// The width never changes the records.
func (r *Rig) SetWorkers(n int) { r.workers = n }

// width resolves SetWorkers' bound, capped at the board count.
func (r *Rig) width() int {
	n := r.workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return max(min(n, len(r.boards)), 1)
}

// Mute stops sampling the given boards (global IDs): each keeps its place
// in the power sequence and its bus timing and serves a blank window
// (device.SlaveBoard.Mute), so every other board's records are
// unchanged, but its read-outs are discarded at the master. Call it
// between windows.
func (r *Rig) Mute(boards ...int) error {
	for _, id := range boards {
		if id < 0 || id >= len(r.boards) {
			return fmt.Errorf("harness: mute board %d of %d", id, len(r.boards))
		}
		r.boards[id].Mute()
		r.arrays[id] = nil
	}
	return nil
}

// AgeTo advances every unmuted board's SRAM to the given age in months,
// the boards spread over the rig's worker width.
func (r *Rig) AgeTo(months float64) error {
	jobs := make([]func() error, 0, len(r.arrays))
	for _, a := range r.arrays {
		if a != nil {
			jobs = append(jobs, func() error { return a.AgeTo(months) })
		}
	}
	return stream.NewPool(r.width()).Run(jobs...)
}

// Switch returns the power-switch board (for waveform tracing).
func (r *Rig) Switch() *device.PowerSwitch { return r.sw }

// StreamWindow executes the evaluation window of a campaign month:
// `measurements` complete power cycles per board, the first starting at
// the month's window start. Every record goes to sink in capture order,
// framed by Timing.Envelope; the rig buffers nothing. A caller that wants
// only the power-switch trace passes a sink that discards.
// A sink failure aborts the window at the next event boundary (so a
// cancelled campaign returns promptly); the first sink error is returned
// and the rig is poisoned — it refuses further windows, since its event
// queue still holds the aborted cycle.
func (r *Rig) StreamWindow(measurements, month int, sink func(store.Record) error) error {
	switch {
	case sink == nil:
		return errors.New("harness: nil stream sink")
	case measurements <= 0:
		return fmt.Errorf("harness: non-positive window size %d", measurements)
	case month < 0:
		return fmt.Errorf("harness: negative campaign month %d", month)
	case r.aborted:
		return errors.New("harness: rig stopped mid-cycle by an earlier aborted window; build a fresh rig")
	}
	r.sink, r.sinkErr = sink, nil
	defer func() { r.sink, r.sinkErr = nil, nil }()
	r.month = month
	defer r.startCaptures()()
	for i, m := range r.masters {
		m.completed = 0
		m.target = uint64(measurements)
		m.running = true
		m.waiting = false
		offset := desim.Time(i) * r.cfg.LayerOffset
		mm := m
		if err := r.sim.Schedule(offset, func() { mm.startCycle() }); err != nil {
			return err
		}
	}
	for anyRunning(r.masters) {
		if r.sinkErr != nil {
			// The sink failed (typically campaign cancellation): stop
			// pumping events instead of completing the window, and poison
			// the rig — its event queue still holds this cycle.
			r.aborted = true
			return r.sinkErr
		}
		if !r.sim.Step() {
			return errors.New("harness: deadlock — masters running but no events pending")
		}
	}
	return r.sinkErr
}

// startCaptures puts the boards on a capture queue served by width-1
// worker goroutines for one window (none at width 1: the event loop
// samples every capture itself) and returns the window's teardown: join
// every pending capture — an aborted window leaves some — then close the
// queue and wait for the workers, so no goroutine outlives the window.
func (r *Rig) startCaptures() (stop func()) {
	helpers := r.width() - 1
	if helpers == 0 {
		return func() {}
	}
	// A board has at most one capture in flight, so one slot per board
	// rarely blocks the event loop on a send.
	q := make(device.CaptureQueue, len(r.boards))
	for _, b := range r.boards {
		b.SetCaptureQueue(q)
	}
	var wg sync.WaitGroup
	for range helpers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Serve()
		}()
	}
	return func() {
		for _, b := range r.boards {
			b.SetCaptureQueue(nil)
		}
		close(q)
		wg.Wait()
	}
}

func anyRunning(ms []*master) bool {
	for _, m := range ms {
		if m.running {
			return true
		}
	}
	return false
}

// startCycle begins one Algorithm 1 cycle for the layer, honouring the
// cross-layer synchronisation barrier (step 1/7 of Algorithm 1: a layer
// may not run ahead of the other by more than one cycle).
func (m *master) startCycle() {
	if m.completed >= m.target {
		m.running = false
		m.wakeOther()
		return
	}
	// With the half-cycle phase offset the leading layer is legitimately
	// one cycle ahead when it starts a new cycle; only a two-cycle lead
	// indicates the other layer has stalled and must be waited for.
	if m.other != nil && m.other.running && m.completed > m.other.completed+1 {
		m.waiting = true
		return
	}
	m.waiting = false
	t0 := m.rig.sim.Now()
	// Step 2: enable power to all slaves via the power switch.
	for _, s := range m.slaves {
		if err := m.rig.sw.Set(s.ID, true); err != nil {
			// A board that fails to power is skipped this cycle; the read
			// will NAK and be counted.
			m.rig.readErrors++
		}
	}
	// Steps 4-5 after boot: read the slaves sequentially.
	mm := m
	_ = m.rig.sim.Schedule(m.rig.cfg.BootDelay+readStartDelay, func() { mm.readSlave(0, t0) })
}

// readSlave reads slave i, forwards its pattern and chains to i+1; after
// the last slave it schedules power-off at the end of the powered phase.
func (m *master) readSlave(i int, t0 desim.Time) {
	if i >= len(m.slaves) {
		endOn := t0 + m.rig.cfg.PowerOnTime
		mm := m
		_ = m.rig.sim.At(endOn, func() { mm.powerOff(t0) })
		return
	}
	s := m.slaves[i]
	data, dur, err := m.bus.Read(s.Addr, m.rig.cfg.Profile.ReadWindowBytes)
	if m.completed+1 < m.target {
		// The board powers on again in this window, before any aging:
		// its next capture can run while the other boards are read.
		s.Precapture()
	}
	mm := m
	_ = m.rig.sim.Schedule(dur, func() {
		if err != nil {
			mm.rig.readErrors++
		} else {
			mm.forward(s, data)
		}
		mm.readSlave(i+1, t0)
	})
}

// forward hands one read-out to the window's sink (step 5). A muted
// board's read-out is discarded: nobody collects it.
func (m *master) forward(s *device.SlaveBoard, data []byte) {
	if s.Muted() {
		return
	}
	bits := m.rig.cfg.Profile.ReadWindowBits()
	v, err := bitvec.FromBytes(data, bits)
	if err != nil {
		// Corrupted framing; count and drop, like the real rig's checksum
		// layer would.
		m.rig.readErrors++
		return
	}
	rec := m.rig.cfg.Envelope(s.ID, s.Layer, m.rig.month, int(m.completed), v)
	if err := m.rig.sink(rec); err != nil && m.rig.sinkErr == nil {
		m.rig.sinkErr = err
	}
}

// powerOff ends the powered phase (step 6), completes the cycle and
// schedules the next one (steps 7-8).
func (m *master) powerOff(t0 desim.Time) {
	for _, s := range m.slaves {
		if err := m.rig.sw.Set(s.ID, false); err != nil {
			m.rig.readErrors++
		}
	}
	m.completed++
	m.wakeOther()
	next := t0 + m.rig.cfg.CyclePeriod()
	mm := m
	_ = m.rig.sim.At(next, func() { mm.startCycle() })
}

// wakeOther releases the other layer's barrier if it is waiting.
func (m *master) wakeOther() {
	if m.other != nil && m.other.waiting {
		other := m.other
		other.waiting = false
		_ = m.rig.sim.Schedule(0, func() { other.startCycle() })
	}
}
