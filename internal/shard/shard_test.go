package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/store"
)

// stubBackend is a deterministic measurement backend: device d's i-th
// record of month m carries a pattern derived from (d, m, i), so the
// test can verify content and per-device ordering end to end.
type stubBackend struct {
	devices int
	indices []int
	// measureErr, when non-nil, fails every Measure.
	measureErr error
}

func stubPattern(device, month, i int) *bitvec.Vector {
	v := bitvec.New(32)
	v.Set(device%32, true)
	v.Set((month+8)%32, true)
	v.Set((i+16)%32, true)
	return v
}

func (b *stubBackend) Devices() int { return b.devices }

func (b *stubBackend) Assign(indices []int) error {
	b.indices = indices
	return nil
}

// Prune drops the given devices from the measured set.
func (b *stubBackend) Prune(indices []int) error {
	b.indices = slices.DeleteFunc(b.indices, func(d int) bool { return slices.Contains(indices, d) })
	return nil
}

func (b *stubBackend) Measure(ctx context.Context, month, size, workers int, emit func(int, store.Record) error) error {
	if b.measureErr != nil {
		return b.measureErr
	}
	for _, d := range b.indices {
		for i := 0; i < size; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			rec := store.Record{
				Board: d,
				Seq:   uint64(i),
				Wall:  store.MonthlyWindowStart(month).Add(time.Duration(i) * time.Second),
				Data:  stubPattern(d, month, i),
			}
			if err := emit(d, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// pipeTransport runs Serve on a goroutine per shard over an io.Pipe
// pair, with a hook to adjust each shard's backend.
func pipeTransport(t *testing.T, make func(shard int) Backend) Transport {
	t.Helper()
	return func(i, n int) (io.ReadWriteCloser, error) {
		coordR, workerW := io.Pipe()
		workerR, coordW := io.Pipe()
		go func() {
			_ = Serve(context.Background(), testConn{workerR, workerW}, ServerConfig{
				Build: func(Spec) (Backend, error) { return make(i), nil },
			})
			workerW.Close()
			workerR.Close()
		}()
		return testConn{coordR, coordW}, nil
	}
}

type testConn struct {
	r *io.PipeReader
	w *io.PipeWriter
}

func (c testConn) Read(b []byte) (int, error)  { return c.r.Read(b) }
func (c testConn) Write(b []byte) (int, error) { return c.w.Write(b) }
func (c testConn) Close() error {
	c.w.Close()
	return c.r.Close()
}

// simSpec is a sim handshake for the stub backends, which never decode
// the payload.
func simSpec(devices int) Spec {
	return Spec{Sim: json.RawMessage(fmt.Sprintf(`{"devices":%d,"seed":1}`, devices))}
}

// TestCoordinatorMergesShards drives a full session across several shard
// counts and checks every device's stream arrives complete, in capture
// order, with the content the backend produced.
func TestCoordinatorMergesShards(t *testing.T) {
	const devices, size = 8, 5
	for _, shards := range []int{1, 2, 7} {
		transport := pipeTransport(t, func(int) Backend { return &stubBackend{devices: devices} })
		co, err := NewCoordinator(simSpec(devices), shards, transport)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if co.Devices() != devices || co.shards != shards {
			t.Fatalf("shards=%d: coordinator reports %d devices / %d shards", shards, co.Devices(), co.shards)
		}
		wantAssign, err := partition(devices, shards)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]int, co.shards)
		for i := range got {
			for d := co.lo[i]; d < co.hi[i]; d++ {
				got[i] = append(got[i], d)
			}
		}
		if !reflect.DeepEqual(got, wantAssign) {
			t.Fatalf("shards=%d: assignments %v, want %v", shards, got, wantAssign)
		}
		co.SetWorkers(shards + 1) // exercised below through the measure request
		for month := 0; month < 2; month++ {
			var mu sync.Mutex
			got := make([][]*bitvec.Vector, devices)
			sink := func(d int, rec store.Record) error {
				mu.Lock()
				defer mu.Unlock()
				// The record's payload storage is reused between a
				// device's deliveries (batch decoder scratch): retaining
				// it requires a clone, like any engine Sink.
				got[d] = append(got[d], rec.Data.Clone())
				return nil
			}
			if err := co.Measure(context.Background(), month, size, sink); err != nil {
				t.Fatalf("shards=%d month=%d: %v", shards, month, err)
			}
			for d := range got {
				if len(got[d]) != size {
					t.Fatalf("shards=%d: device %d got %d records, want %d", shards, d, len(got[d]), size)
				}
				for i, v := range got[d] {
					if !v.Equal(stubPattern(d, month, i)) {
						t.Fatalf("shards=%d: device %d record %d out of order or corrupted", shards, d, i)
					}
				}
			}
		}
		if err := co.Close(); err != nil {
			t.Fatalf("shards=%d: close: %v", shards, err)
		}
		if err := co.Measure(context.Background(), 0, 1, func(int, store.Record) error { return nil }); !errors.Is(err, ErrClosed) {
			t.Fatalf("shards=%d: measure after close: %v, want ErrClosed", shards, err)
		}
	}
}

// TestCoordinatorPrune: a prune reaches the owning shards before the
// next window, which then delivers only the surviving devices' records.
func TestCoordinatorPrune(t *testing.T) {
	const devices, size = 8, 3
	pruned := []int{1, 6}
	for _, shards := range []int{1, 2, 7} {
		transport := pipeTransport(t, func(int) Backend { return &stubBackend{devices: devices} })
		co, err := NewCoordinator(simSpec(devices), shards, transport)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := co.Prune(pruned); err != nil {
			t.Fatalf("shards=%d: prune: %v", shards, err)
		}
		var mu sync.Mutex
		got := make([]int, devices)
		err = co.Measure(context.Background(), 0, size, func(d int, _ store.Record) error {
			mu.Lock()
			defer mu.Unlock()
			got[d]++
			return nil
		})
		co.Close()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for d, n := range got {
			want := size
			if slices.Contains(pruned, d) {
				want = 0
			}
			if n != want {
				t.Fatalf("shards=%d: device %d delivered %d records, want %d", shards, d, n, want)
			}
		}
	}
}

// TestCoordinatorRemoteError: a worker-side failure travels back as a
// RemoteError with its code, and tears the session down.
func TestCoordinatorRemoteError(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("synthetic short window")
	transport := func(i, n int) (io.ReadWriteCloser, error) {
		coordR, workerW := io.Pipe()
		workerR, coordW := io.Pipe()
		go func() {
			_ = Serve(context.Background(), testConn{workerR, workerW}, ServerConfig{
				Build: func(Spec) (Backend, error) {
					b := &stubBackend{devices: 4}
					if i == 1 {
						b.measureErr = boom
					}
					return b, nil
				},
				ErrorCode: func(error) string { return CodeShortWindow },
			})
			workerW.Close()
			workerR.Close()
		}()
		return testConn{coordR, coordW}, nil
	}
	co, err := NewCoordinator(simSpec(4), 2, transport)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	err = co.Measure(context.Background(), 0, 3, func(int, store.Record) error { return nil })
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want a RemoteError", err)
	}
	if re.Shard != 1 || re.Code != CodeShortWindow {
		t.Fatalf("remote error = %+v, want shard 1, code %s", re, CodeShortWindow)
	}
	assertNoLeaks(t, before)
}

// TestCoordinatorWorkerCrash kills one worker's connection mid-window:
// the coordinator must surface ErrWorker and wind down every forwarding
// goroutine.
func TestCoordinatorWorkerCrash(t *testing.T) {
	before := runtime.NumGoroutine()
	var victim *crashConn
	transport := func(i, n int) (io.ReadWriteCloser, error) {
		coordR, workerW := io.Pipe()
		workerR, coordW := io.Pipe()
		go func() {
			_ = Serve(context.Background(), testConn{workerR, workerW}, ServerConfig{
				Build: func(Spec) (Backend, error) { return &stubBackend{devices: 8}, nil },
			})
			workerW.Close()
			workerR.Close()
		}()
		conn := testConn{coordR, coordW}
		if i == 1 {
			victim = &crashConn{ReadWriteCloser: conn}
			return victim, nil
		}
		return conn, nil
	}
	co, err := NewCoordinator(simSpec(8), 2, transport)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	victim.arm(3) // die after three more reads — mid-measure
	err = co.Measure(context.Background(), 0, 1000, func(int, store.Record) error { return nil })
	if !errors.Is(err, ErrWorker) {
		t.Fatalf("err = %v, want ErrWorker", err)
	}
	assertNoLeaks(t, before)
}

// crashConn fails (and closes the underlying pipe) after a configured
// number of reads — a worker process dying mid-stream.
type crashConn struct {
	io.ReadWriteCloser
	mu    sync.Mutex
	armed bool
	left  int
}

func (c *crashConn) arm(reads int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed, c.left = true, reads
}

func (c *crashConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	if c.armed {
		if c.left <= 0 {
			c.mu.Unlock()
			c.Close()
			return 0, fmt.Errorf("worker crashed")
		}
		c.left--
	}
	c.mu.Unlock()
	return c.ReadWriteCloser.Read(b)
}

// TestCoordinatorCancellation: cancelling the Measure context aborts the
// fan-out promptly and reports the context error, with no goroutine
// leaks.
func TestCoordinatorCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	transport := pipeTransport(t, func(int) Backend { return &stubBackend{devices: 4} })
	co, err := NewCoordinator(simSpec(4), 2, transport)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	err = co.Measure(ctx, 0, 100000, func(int, store.Record) error {
		if n.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	assertNoLeaks(t, before)
}

// scriptConn feeds a worker a fixed frame script and collects what it
// writes back.
type scriptConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *scriptConn) Read(b []byte) (int, error)  { return c.in.Read(b) }
func (c *scriptConn) Write(b []byte) (int, error) { return c.out.Write(b) }

// TestWorkerRefusesMonthsRequest: under the current protocol a v4
// coordinator's months request (frame type 8, retired in v5) is a
// protocol violation that ends the worker's session, not a frame it
// silently skips.
func TestWorkerRefusesMonthsRequest(t *testing.T) {
	var script bytes.Buffer
	spec := simSpec(2)
	spec.Protocol = Protocol
	for _, f := range []struct {
		typ byte
		v   any
	}{
		{frameHello, spec},
		{frameAssign, assignment{Lo: 0, Hi: 2}},
		{8, map[string]int{"window_size": 10}},
	} {
		if err := writeJSON(&script, f.typ, f.v); err != nil {
			t.Fatal(err)
		}
	}
	conn := &scriptConn{in: bytes.NewReader(script.Bytes())}
	err := Serve(context.Background(), conn, ServerConfig{
		Build: func(Spec) (Backend, error) { return &stubBackend{devices: 2}, nil },
	})
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
	typ, _, rerr := ReadFrame(&conn.out)
	if rerr != nil || typ != frameHelloAck {
		t.Fatalf("first reply: type %d, err %v; want the hello ack", typ, rerr)
	}
	if conn.out.Len() != 0 {
		t.Fatalf("worker answered the months request with %d more bytes", conn.out.Len())
	}
}

// TestCoordinatorDeviceCountMismatch: workers that disagree on the
// population size must be refused at handshake.
func TestCoordinatorDeviceCountMismatch(t *testing.T) {
	transport := pipeTransport(t, func(i int) Backend {
		return &stubBackend{devices: 4 + i}
	})
	_, err := NewCoordinator(simSpec(4), 2, transport)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func assertNoLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}
