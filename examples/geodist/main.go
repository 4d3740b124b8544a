// geodist: a geo-distributed deployment with per-shard regional placement
// preferences — the Fig 19 scenario in miniature. A secondary-only store
// spans three regions; "east-coast" shards prefer FRC for locality. When
// FRC fails, clients fail over to remote replicas (higher latency) and SM
// re-replicates across the surviving regions; when FRC recovers, SM
// migrates replicas back and latency returns to normal.
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
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

func main() {
	const (
		numShards = 120
		ecShards  = 48
	)
	pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
	pol.AffinityWeight = 300
	shards := experiments.UniformShardConfigs(numShards, 2, topology.Capacity{
		topology.ResourceCPU:        1,
		topology.ResourceShardCount: 1,
	})
	for i := 0; i < ecShards; i++ {
		shards[i].RegionPreference = "frc"
	}
	cfg := orchestrator.Config{
		App:      "geodist",
		Strategy: shard.SecondaryOnly,
		Shards:   shards,
		Policy:   pol,
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: numShards,
		},
		HomeRegion:              "prn",
		GracefulMigration:       true,
		FailoverGrace:           20 * time.Second,
		AllocInterval:           15 * time.Second,
		MaxConcurrentMigrations: 60,
	}
	backing := apps.NewKVBacking()
	d := experiments.Build(experiments.DeploymentSpec{
		Regions:          []topology.RegionID{"frc", "prn", "odn"},
		ServersPerRegion: 6,
		Latency: map[[2]topology.RegionID]time.Duration{
			{"frc", "prn"}: 35 * time.Millisecond,
			{"frc", "odn"}: 45 * time.Millisecond,
			{"prn", "odn"}: 80 * time.Millisecond,
		},
		Orch:        cfg,
		ClusterOpts: cluster.DefaultOptions(),
		AppFactory: func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, backing)
		},
		Seed: 19,
	})
	if err := d.Settle(10 * time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Println("settled:", d.Orch.Stats())

	ks := experiments.KeyspaceFor(numShards)
	client := d.NewClient("frc", ks, routing.DefaultOptions())
	d.Loop.RunFor(5 * time.Second) // receive the shard map
	rng := d.Loop.RNG().Fork()

	// Measure EC-shard read latency in each phase.
	measure := func(label string, dur time.Duration) {
		var sum time.Duration
		n := 0
		tick := d.Loop.EveryL(100*time.Millisecond, 0, func() {
			key := experiments.KeyForShard(rng.Intn(ecShards))
			client.Do(key, false, apps.KVOpScan, nil, func(res routing.Result) {
				if res.OK {
					sum += res.Latency
					n++
				}
			})
		})
		d.Loop.RunFor(dur)
		tick.Stop()
		if n > 0 {
			fmt.Printf("%-28s mean EC-read latency %v over %d reads\n",
				label, (sum / time.Duration(n)).Truncate(100*time.Microsecond), n)
		}
	}

	measure("steady state (local reads):", 30*time.Second)

	fmt.Println("\n>>> FRC region fails")
	d.Managers["frc"].FailRegion()
	d.Loop.RunFor(time.Minute) // retries + emergency reallocation
	measure("during FRC outage:", 30*time.Second)

	fmt.Println("\n>>> FRC region recovers")
	d.Managers["frc"].RecoverRegion()
	d.Loop.RunFor(3 * time.Minute) // shards migrate back per preference
	measure("after shards move back:", 30*time.Second)

	fmt.Printf("\nshard moves: %d, emergency allocations: %d\n",
		d.Orch.ShardMoves.Value(), d.Orch.EmergencyRuns.Value())
}
