package core

import (
	"context"
	"io"
	"testing"

	"repro/internal/silicon"
)

// The sharded-execution benchmarks, gated in CI against
// BENCH_baseline.json: the coordinator/worker round trip must stay a
// small constant factor over the in-process source (the wire carries
// binary record batches, a memcpy per measurement), and must not regress
// as the protocol evolves. BenchmarkShardCampaignDirect is the same campaign
// without sharding — the denominator of the overhead ratio.

func benchCampaign(b *testing.B, src Source) {
	b.Helper()
	eng, err := NewAssessment(AssessmentConfig{Source: src, WindowSize: 50, Months: []int{0, 1}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
}

func benchProfile(b *testing.B) silicon.DeviceProfile {
	b.Helper()
	profile, err := silicon.ATmega32u4()
	if err != nil {
		b.Fatal(err)
	}
	return profile
}

// BenchmarkShardCampaignDirect is the single-process baseline.
func BenchmarkShardCampaignDirect(b *testing.B) { benchSharded(b, 0) }

// benchSharded runs the campaign over the given shard count (0: the
// in-process source).
func benchSharded(b *testing.B, shards int) {
	profile := benchProfile(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := OpenSim(SimSpec{Profile: profile, Devices: 4, Seed: 7, Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		benchCampaign(b, src)
		if c, ok := src.(io.Closer); ok {
			if err := c.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkShardCampaign1 measures pure protocol overhead (one worker,
// every record crossing the pipe).
func BenchmarkShardCampaign1(b *testing.B) { benchSharded(b, 1) }

// BenchmarkShardCampaign4 measures the fan-out shape the feature exists
// for.
func BenchmarkShardCampaign4(b *testing.B) { benchSharded(b, 4) }
