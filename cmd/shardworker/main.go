// Command shardworker serves one shard of a sharded assessment
// campaign. It is not run by hand: a coordinator (agingtest -shards,
// sweep -shards, or any ShardedSource with an exec transport) spawns one
// worker per shard and speaks the length-prefixed shard protocol
// (version-gated in the handshake; measurements travel as batched
// binary record frames) on the worker's stdin/stdout. The handshake
// carries the full configuration — the encoded simulated-source spec
// (sim or rig) or the archive to replay, then the shard assignment — so
// the command takes no flags; diagnostics go to stderr.
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

// stdio is the worker's end of the coordinator pipe.
type stdio struct {
	io.Reader
	io.Writer
}

func main() {
	if err := core.ServeShardWorker(context.Background(), stdio{os.Stdin, os.Stdout}); err != nil {
		fmt.Fprintln(os.Stderr, "shardworker:", err)
		os.Exit(1)
	}
}
