package sramaging

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/shard"
)

// Re-exported sharded-execution types. A sharded campaign partitions the
// device population across worker processes — each running its slice
// through the same streaming engine — and merges the shard streams back
// into one Source, so Assessment.Run produces bit-identical Results to
// the single-process path for any shard count.
type (
	// ShardedSource fans a simulated or rig campaign across workers.
	ShardedSource = core.ShardedSource
	// ShardedArchiveSource fans archive replay across workers; it lists
	// months exactly as ArchiveSource does (MonthLister).
	ShardedArchiveSource = core.ShardedArchiveSource
	// ShardTransport opens the byte stream to one worker: subprocesses
	// (ExecShardTransport) or in-process goroutines
	// (InProcessShardTransport, the default).
	ShardTransport = shard.Transport
)

// ErrShardWorker reports a shard worker that died or became unreachable
// mid-campaign. Worker-reported failures instead keep their assessment
// error class (ErrConfig, ErrShortWindow, ...) across the process
// boundary.
var ErrShardWorker = core.ErrShardWorker

// WithShards fans the campaign across n worker processes (n >= 1): the
// device population is partitioned into n contiguous shards, each served
// by a worker running the campaign's source for its slice, and the
// merged results are bit-identical to the single-process run. Workers
// are in-process goroutines by default; use WithShardTransport
// (ExecShardTransport) for real worker processes. Exclusive with
// WithSource — sharding is a way of EXECUTING the simulation options.
func WithShards(n int) Option {
	return func(a *Assessment) error {
		if n < 1 {
			return fmt.Errorf("%w: need >= 1 shard, got %d", ErrConfig, n)
		}
		a.spec.Sim.Shards, a.simSet = n, true
		return nil
	}
}

// WithShardTransport sets how shard workers are reached (default:
// InProcessShardTransport). Implies nothing without WithShards.
func WithShardTransport(t ShardTransport) Option {
	return func(a *Assessment) error {
		if t == nil {
			return fmt.Errorf("%w: nil shard transport", ErrConfig)
		}
		a.spec.Sim.Transport = t
		return nil
	}
}

// ExecShardTransport spawns one shardworker subprocess per shard — the
// given binary (cmd/shardworker) with the shard protocol on its
// stdin/stdout and stderr passed through.
func ExecShardTransport(path string) ShardTransport { return shard.ExecTransport(path) }

// InProcessShardTransport runs each worker as a goroutine inside this
// process over an io.Pipe — the same wire protocol without the
// subprocess, used for tests and as the WithShards default.
func InProcessShardTransport() ShardTransport { return core.InProcessShardTransport() }

// NewShardedSimSource builds a direct-sampling source whose device
// population is partitioned across shards workers (nil transport: in
// process). Streams are bit-identical to NewSimulatedSource.
func NewShardedSimSource(profile DeviceProfile, devices int, seed uint64, shards int, t ShardTransport) (*ShardedSource, error) {
	if shards < 1 {
		// Zero shards would open the in-process source.
		return nil, fmt.Errorf("%w: need >= 1 shard, got %d", ErrConfig, shards)
	}
	src, err := core.OpenSim(core.SimSpec{Profile: profile, Devices: devices, Seed: seed, Shards: shards, Transport: t})
	if err != nil {
		return nil, err
	}
	return src.(*ShardedSource), nil
}

// NewShardedRigSource builds a full-rig source whose record stream is
// partitioned across shards workers; use (*ShardedSource).SetTap to
// archive the merged stream while the assessment runs, exactly like
// (*RigSource).SetTap.
func NewShardedRigSource(profile DeviceProfile, devices int, seed uint64, i2cErrorRate float64, shards int, t ShardTransport) (*ShardedSource, error) {
	return core.NewShardedRigSource(profile, devices, seed, i2cErrorRate, shards, t)
}

// NewShardedArchiveSource shards replay of the binary archive at path
// across workers; every worker must be able to read the path. A JSONL
// archive is refused: convert it once with UpgradeArchive. Without
// WithMonths an assessment over it evaluates the months
// OpenArchiveSource's source would list.
func NewShardedArchiveSource(path string, shards int, t ShardTransport) (*ShardedArchiveSource, error) {
	return core.NewShardedArchiveSource(path, shards, t)
}
