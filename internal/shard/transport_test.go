package shard

import (
	"context"
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/silicon"
	"repro/internal/store"
)

// buildShardWorker compiles cmd/shardworker into a temp dir — the real
// subprocess the exec transport is for.
func buildShardWorker(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "shardworker")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/shardworker")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Skipf("cannot build shardworker (no toolchain?): %v\n%s", err, out)
	}
	return bin
}

// TestExecTransportRoundTrip drives a real shardworker subprocess fleet:
// handshake, one window, clean shutdown. This is the transport
// cmd/agingtest -shards -shardworker uses.
func TestExecTransportRoundTrip(t *testing.T) {
	bin := buildShardWorker(t)
	profile, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	const devices, size = 2, 3
	// The payload is the JSON form of the engine's sim spec, which this
	// package cannot import.
	sim, err := json.Marshal(struct {
		Profile silicon.DeviceProfile `json:"profile"`
		Devices int                   `json:"devices"`
		Seed    uint64                `json:"seed"`
	}{profile, devices, 1})
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCoordinator(Spec{Sim: sim}, 2, ExecTransport(bin))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	counts := map[int]int{}
	err = co.Measure(context.Background(), 0, size, func(d int, rec store.Record) error {
		mu.Lock()
		defer mu.Unlock()
		counts[d]++
		if rec.Data == nil || rec.Board != d {
			return errors.New("malformed record from subprocess")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < devices; d++ {
		if counts[d] != size {
			t.Fatalf("device %d delivered %d records, want %d", d, counts[d], size)
		}
	}
	if err := co.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestExecTransportSpawnFailure: a missing worker binary surfaces as a
// typed worker error at construction.
func TestExecTransportSpawnFailure(t *testing.T) {
	_, err := NewCoordinator(simSpec(2), 1, ExecTransport(filepath.Join(t.TempDir(), "no-such-binary")))
	if !errors.Is(err, ErrWorker) {
		t.Fatalf("err = %v, want ErrWorker", err)
	}
}
