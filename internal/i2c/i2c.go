// Package i2c models the inter-board I2C links of the measurement rig:
// each master board polls its eight slave boards over a shared two-wire
// bus (§III of the paper). The model is transaction-level: it computes
// wire-accurate transfer durations from the bus clock and frame overheads
// and simulates addressing, ACK/NAK and injectable bit errors, but does
// not toggle individual SDA/SCL edges.
package i2c

import (
	"errors"
	"fmt"

	"repro/internal/desim"
	"repro/internal/rng"
)

// FastMode is the 400 kHz bus clock of the rig's links.
const FastMode = 400000

// Frame constants: every byte on the wire costs 8 data bits plus 1 ACK
// bit; a transaction additionally pays START, address+R/W byte and STOP.
const (
	bitsPerByte      = 9
	addressFrameBits = 10 // START + 8 address/RW bits + ACK
	stopBits         = 1
)

// Slave is the device-side endpoint of a bus transaction.
type Slave interface {
	// HandleRead serves a master read of up to n bytes and returns the
	// payload. Returning an error models a NAK/abort from the device.
	HandleRead(n int) ([]byte, error)
}

// Bus is one I2C segment with a single master (the caller) and up to 112
// addressable slaves.
type Bus struct {
	name    string
	clockHz int
	slaves  map[byte]Slave

	// errRate is the probability that a transferred byte is corrupted
	// (detected by the payload checksum layer above); errSrc drives the
	// injection deterministically.
	errRate float64
	errSrc  *rng.Source
}

// NewBus creates a bus with the given human-readable name and clock.
func NewBus(name string, clockHz int) (*Bus, error) {
	if clockHz <= 0 {
		return nil, fmt.Errorf("i2c: non-positive clock %d", clockHz)
	}
	return &Bus{name: name, clockHz: clockHz, slaves: make(map[byte]Slave)}, nil
}

// WithErrorInjection enables random byte corruption at the given rate,
// driven by the supplied deterministic stream.
func (b *Bus) WithErrorInjection(rate float64, src *rng.Source) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("i2c: error rate %v outside [0,1]", rate)
	}
	if rate > 0 && src == nil {
		return errors.New("i2c: error injection needs a random source")
	}
	b.errRate = rate
	b.errSrc = src
	return nil
}

// Attach registers a slave at a 7-bit address.
func (b *Bus) Attach(addr byte, s Slave) error {
	if addr > 0x7f {
		return fmt.Errorf("i2c: address %#x exceeds 7 bits", addr)
	}
	if s == nil {
		return errors.New("i2c: nil slave")
	}
	if _, dup := b.slaves[addr]; dup {
		return fmt.Errorf("i2c: address %#x already attached", addr)
	}
	b.slaves[addr] = s
	return nil
}

// Duration returns the wire time for a transaction carrying the given
// payload size in bytes.
func (b *Bus) Duration(payloadBytes int) desim.Time {
	bits := addressFrameBits + payloadBytes*bitsPerByte + stopBits
	us := float64(bits) / float64(b.clockHz) * 1e6
	return desim.Time(us + 0.5)
}

// NakError reports an addressing failure (no device answered).
type NakError struct {
	Bus  string
	Addr byte
}

func (e *NakError) Error() string {
	return fmt.Sprintf("i2c: NAK on bus %s for address %#x", e.Bus, e.Addr)
}

// Read performs a master read of n bytes from addr. It returns the
// payload, the wire duration (to be consumed on the simulated clock by
// the caller) and an error for NAK or device-side aborts. Injected bit
// errors corrupt the payload without failing the transaction, as a real
// bus would.
func (b *Bus) Read(addr byte, n int) ([]byte, desim.Time, error) {
	s, ok := b.slaves[addr]
	if !ok {
		return nil, b.Duration(0), &NakError{Bus: b.name, Addr: addr}
	}
	data, err := s.HandleRead(n)
	if err != nil {
		return nil, b.Duration(0), fmt.Errorf("i2c: device %#x: %w", addr, err)
	}
	if len(data) > n {
		data = data[:n]
	}
	// Copy before corruption: the returned slice may alias device memory.
	out := append([]byte(nil), data...)
	b.corrupt(out)
	return out, b.Duration(len(out)), nil
}

// corrupt flips one random bit in each byte independently selected for
// corruption.
func (b *Bus) corrupt(data []byte) {
	if b.errRate <= 0 || b.errSrc == nil {
		return
	}
	for i := range data {
		if b.errSrc.Bernoulli(b.errRate) {
			data[i] ^= 1 << uint(b.errSrc.Intn(8))
		}
	}
}
