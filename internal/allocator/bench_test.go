package allocator

import (
	"fmt"
	"testing"

	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// BenchmarkRunFirstPlacement drives a fresh deployment's first allocation:
// nothing is placed, so every replica is an add, over 3 regions × 40 servers.
// evals/op is the solver's evaluation count summed over the run's stages, a
// deterministic work count (the seed is fixed) that reads the same on any
// host; ns/op is what that work cost here.
func BenchmarkRunFirstPlacement(b *testing.B) {
	for _, shards := range []int{3_000, 30_000} {
		b.Run(fmt.Sprintf("shards=%dk", shards/1000), func(b *testing.B) {
			in := Input{
				Servers: makeServers(120, []string{"r1", "r2", "r3"}, 100),
				Shards:  makeShards(shards, 2, 0.1),
				Current: map[shard.ID][]shard.ServerID{},
			}
			a := New(DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount), 1)
			b.ReportAllocs()
			evals := 0
			for i := 0; i < b.N; i++ {
				res := a.Run(in, Periodic)
				if len(res.Moves) != 2*shards {
					b.Fatalf("placed %d of %d replicas", len(res.Moves), 2*shards)
				}
				evals += res.Evaluated
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}
