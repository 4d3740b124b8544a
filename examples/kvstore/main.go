// kvstore: a ZippyDB-like geo-replicated key-value store on Shard Manager
// (§2.5). Each shard has one primary (handling writes) and two secondaries
// spread across three regions; SM elects and migrates primaries, clients
// write through the primary and read from the closest replica, and prefix
// scans work because the app-owned keyspace preserves key locality (§3.1).
//
// The example then kills the primary's machine and shows SM promoting a
// secondary — the automatic failover path — without losing any data.
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
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

func main() {
	const numShards = 24

	pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
	cfg := orchestrator.Config{
		App:      "zippy",
		Strategy: shard.PrimarySecondary,
		Shards: experiments.UniformShardConfigs(numShards, 3, topology.Capacity{
			topology.ResourceCPU:        1,
			topology.ResourceShardCount: 1,
		}),
		Policy: pol,
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: numShards,
		},
		GracefulMigration: true,
		FailoverGrace:     15 * time.Second,
	}
	backing := apps.NewKVBacking()
	d := experiments.Build(experiments.DeploymentSpec{
		Regions:          []topology.RegionID{"frc", "prn", "odn"},
		ServersPerRegion: 4,
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
		Seed: 7,
	})
	if err := d.Settle(10 * time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Println("settled:", d.Orch.Stats())

	// Every shard's replicas span all three regions.
	m := d.Orch.AssignmentSnapshot()
	regionsOf := func(id shard.ID) map[topology.RegionID]bool {
		out := map[topology.RegionID]bool{}
		for _, a := range m.Replicas(id) {
			out[d.Net.Region(rpcnet.Endpoint(a.Server))] = true
		}
		return out
	}
	fmt.Printf("shard s00000 replicas: %s (regions: %d)\n",
		shard.FormatAssignments(m.Replicas("s00000")), len(regionsOf("s00000")))

	ks := experiments.KeyspaceFor(numShards)
	client := d.NewClient("frc", ks, routing.DefaultOptions())
	d.Loop.RunFor(3 * time.Second)

	// Writes go to the primary; reads are served by the closest replica.
	prefix := experiments.KeyForShard(0)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("%s:user%d", prefix, i)
		client.Do(key, true, apps.KVOpPut, apps.KVPut{Value: fmt.Sprintf("v%d", i)}, func(res routing.Result) {
			fmt.Printf("write %s via primary %s: ok=%v\n", key, res.Server, res.OK)
		})
	}
	d.Loop.RunFor(time.Second)
	client.Do(prefix+":user1", false, apps.KVOpGet, nil, func(res routing.Result) {
		fmt.Printf("read from closest replica %s [%s]: %v (%v)\n",
			res.Server, d.Net.Region(rpcnet.Endpoint(res.Server)), res.Payload, res.Latency)
	})
	// Prefix scan: possible because the keyspace preserves locality.
	client.Do(prefix+":", false, apps.KVOpScan, nil, func(res routing.Result) {
		fmt.Printf("prefix scan %q: %v\n", prefix+":", res.Payload)
	})
	d.Loop.RunFor(time.Second)

	// Kill the primary's machine; SM promotes a secondary.
	primary, _ := m.Primary("s00000")
	fmt.Printf("\nkilling primary %s of s00000...\n", primary)
	for _, mgr := range d.Managers {
		if c, ok := mgr.Container(cluster.ContainerID(primary)); ok {
			mgr.KillMachine(c.Machine)
		}
	}
	d.Loop.RunFor(2 * time.Minute)
	m = d.Orch.AssignmentSnapshot()
	newPrimary, ok := m.Primary("s00000")
	fmt.Printf("new primary: %s (promoted=%v)\n", newPrimary, ok && newPrimary != primary)

	// Data survives: the new primary serves the same keys.
	client.Do(prefix+":user2", true, apps.KVOpPut, apps.KVPut{Value: "after-failover"}, func(res routing.Result) {
		fmt.Printf("write after failover via %s: ok=%v\n", res.Server, res.OK)
	})
	client.Do(prefix+":user0", false, apps.KVOpGet, nil, func(res routing.Result) {
		fmt.Printf("read after failover: %v (ok=%v)\n", res.Payload, res.OK)
	})
	d.Loop.RunFor(time.Second)
}
