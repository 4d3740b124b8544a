// queue: a FOQS-like primary-only priority queue on Shard Manager ([47],
// §2.5), demonstrating the paper's headline property: a full rolling
// software upgrade of every server while client traffic flows, with zero
// dropped requests — the TaskController drains each container before its
// restart and graceful primary migration forwards in-flight requests
// (§4.1, §4.3).
package main

import (
	"fmt"
	"log"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/cluster"
	"shardmanager/internal/experiments"
	"shardmanager/internal/metrics"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/taskcontroller"
	"shardmanager/internal/topology"
)

func main() {
	const (
		numShards  = 400
		numServers = 10
	)
	pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
	pol.SpreadWeight = 0
	cfg := orchestrator.Config{
		App:      "foqs",
		Strategy: shard.PrimaryOnly,
		Shards: experiments.UniformShardConfigs(numShards, 1, topology.Capacity{
			topology.ResourceCPU:        0.5,
			topology.ResourceShardCount: 1,
		}),
		Policy: pol,
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: numShards,
		},
		GracefulMigration:       true,
		FailoverGrace:           3 * time.Minute,
		MaxConcurrentMigrations: 20,
		ShardLoadTime:           3 * time.Second,
	}
	tp := taskcontroller.DefaultPolicy(2) // at most 2 concurrent restarts
	backing := apps.NewQueueBacking()
	opts := cluster.DefaultOptions()
	opts.RestartDuration = 60 * time.Second
	d := experiments.Build(experiments.DeploymentSpec{
		Regions:          []topology.RegionID{"region1"},
		ServersPerRegion: numServers,
		Orch:             cfg,
		TaskPolicy:       &tp,
		ClusterOpts:      opts,
		AppFactory: func(s *appserver.Server) appserver.Application {
			s.LoadTime = 3 * time.Second
			return apps.NewQueue(s, backing)
		},
		Seed: 11,
	})
	if err := d.Settle(10 * time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Println("settled:", d.Orch.Stats())

	// Continuous enqueue traffic. Give the client a few seconds to
	// receive the shard map before measuring.
	ks := experiments.KeyspaceFor(numShards)
	client := d.NewClient("region1", ks, routing.DefaultOptions())
	d.Loop.RunFor(5 * time.Second)
	rng := d.Loop.RNG().Fork()
	ratio := metrics.NewSuccessRatio(time.Minute)
	n := 0
	d.Loop.EveryL(50*time.Millisecond, 0, func() {
		n++
		key := experiments.KeyForShard(rng.Intn(numShards))
		client.Do(key, true, apps.QueueOpEnqueue, fmt.Sprintf("msg-%d", n), func(res routing.Result) {
			ratio.Observe(d.Loop.Now(), res.OK)
		})
	})
	d.Loop.RunFor(time.Minute)

	// Rolling upgrade of all servers while traffic flows.
	fmt.Println("starting rolling upgrade of all", numServers, "servers...")
	start := d.Loop.Now()
	done := time.Duration(0)
	d.Managers["region1"].RollingUpgrade(d.Jobs["region1"], 2, "upgrade", func() {
		done = d.Loop.Now()
	})
	for i := 0; i < 240 && done == 0; i++ {
		d.Loop.RunFor(15 * time.Second)
	}
	d.Loop.RunFor(time.Minute)

	ok, total := ratio.Totals()
	fmt.Printf("upgrade finished in %v\n", (done - start).Truncate(time.Second))
	fmt.Printf("requests during the run: %d, succeeded: %d (%.4f%%)\n",
		total, ok, 100*ratio.Rate())
	fmt.Printf("worst one-minute success rate: %.3f%%\n", 100*ratio.MinBucketRate())
	fmt.Printf("queue state: %d enqueued across all shards\n", backing.Enqueued)
	fmt.Printf("shard moves performed: %d, drains: %d, approvals: %d\n",
		d.Orch.ShardMoves.Value(), d.Ctrl.Drains.Value(), d.Ctrl.Approved.Value())
}
