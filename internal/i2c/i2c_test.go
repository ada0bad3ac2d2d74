package i2c

import (
	"errors"
	"testing"

	"repro/internal/rng"
)

type echoSlave struct {
	payload []byte
	fail    bool
}

func (e *echoSlave) HandleRead(n int) ([]byte, error) {
	if e.fail {
		return nil, errors.New("busy")
	}
	if n > len(e.payload) {
		n = len(e.payload)
	}
	return e.payload[:n], nil
}

func TestNewBusValidation(t *testing.T) {
	if _, err := NewBus("b", 0); err == nil {
		t.Error("zero clock accepted")
	}
	b, err := NewBus("layer0", FastMode)
	if err != nil {
		t.Fatal(err)
	}
	if b.name != "layer0" || b.clockHz != 400000 {
		t.Fatalf("bus = %s @ %d", b.name, b.clockHz)
	}
}

func TestAttachErrors(t *testing.T) {
	b, _ := NewBus("b", FastMode)
	s := &echoSlave{}
	if err := b.Attach(0x90, s); err == nil {
		t.Error("8-bit address accepted")
	}
	if err := b.Attach(0x10, nil); err == nil {
		t.Error("nil slave accepted")
	}
	if err := b.Attach(0x10, s); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(0x10, s); err == nil {
		t.Error("duplicate address accepted")
	}
}

func TestReadHappyPath(t *testing.T) {
	b, _ := NewBus("b", FastMode)
	s := &echoSlave{payload: []byte{1, 2, 3, 4}}
	if err := b.Attach(0x20, s); err != nil {
		t.Fatal(err)
	}
	data, dur, err := b.Read(0x20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4 || data[0] != 1 || data[3] != 4 {
		t.Fatalf("data = %v", data)
	}
	// 10 + 4*9 + 1 = 47 bits @ 400 kHz = 117.5 us.
	if dur < 117 || dur > 118 {
		t.Fatalf("duration = %v us, want ~117.5", dur)
	}
}

func TestReadNak(t *testing.T) {
	b, _ := NewBus("b", FastMode)
	_, _, err := b.Read(0x55, 8)
	var nak *NakError
	if !errors.As(err, &nak) {
		t.Fatalf("expected NakError, got %v", err)
	}
	if nak.Addr != 0x55 {
		t.Fatalf("nak addr = %#x", nak.Addr)
	}
}

func TestDeviceAbort(t *testing.T) {
	b, _ := NewBus("b", FastMode)
	if err := b.Attach(0x20, &echoSlave{fail: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Read(0x20, 4); err == nil {
		t.Fatal("device abort not propagated")
	}
}

func TestDurationScalesWithPayloadAndClock(t *testing.T) {
	fast, _ := NewBus("f", FastMode)
	slow, _ := NewBus("s", 100000)
	if fast.Duration(1024) >= slow.Duration(1024) {
		t.Fatal("faster clock should give shorter duration")
	}
	if fast.Duration(2048) <= fast.Duration(1024) {
		t.Fatal("larger payload should take longer")
	}
	// 1 KByte frame @ 400 kHz: (10 + 1024*9 + 1) bits / 400 kHz ~ 23.07 ms.
	d := fast.Duration(1024)
	if d < 23000 || d > 23200 {
		t.Fatalf("1KB duration = %v us, want ~23070", d)
	}
}

func TestErrorInjection(t *testing.T) {
	b, _ := NewBus("b", FastMode)
	payload := make([]byte, 1024)
	if err := b.Attach(0x20, &echoSlave{payload: payload}); err != nil {
		t.Fatal(err)
	}
	if err := b.WithErrorInjection(1.5, rng.New(1)); err == nil {
		t.Error("rate > 1 accepted")
	}
	if err := b.WithErrorInjection(0.5, nil); err == nil {
		t.Error("nil source accepted with positive rate")
	}
	if err := b.WithErrorInjection(0.01, rng.New(7)); err != nil {
		t.Fatal(err)
	}
	data, _, err := b.Read(0x20, 1024)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, x := range data {
		if x != 0 {
			corrupted++
		}
	}
	// Expect ~10 corrupted bytes out of 1024 at 1%.
	if corrupted < 2 || corrupted > 30 {
		t.Fatalf("corrupted bytes = %d, want ~10", corrupted)
	}
	// The slave's own payload must not be mutated on reads.
	for _, x := range payload {
		if x != 0 {
			t.Fatal("error injection corrupted device memory on read")
		}
	}
}

func TestReadTruncatesToRequest(t *testing.T) {
	b, _ := NewBus("b", FastMode)
	if err := b.Attach(0x20, &echoSlave{payload: []byte{1, 2, 3, 4, 5}}); err != nil {
		t.Fatal(err)
	}
	data, _, err := b.Read(0x20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 2 {
		t.Fatalf("data length = %d, want 2", len(data))
	}
}
