// Package integration contains whole-system scenario tests that cross
// every package boundary: cluster manager + TaskController + orchestrator +
// appserver + discovery + routing, all driven on the deterministic
// simulator. Each test asserts one of the paper's system-level guarantees.
package integration

import (
	"fmt"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/cluster"
	"shardmanager/internal/experiments"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/taskcontroller"
	"shardmanager/internal/topology"
)

// buildKV builds a primary-secondary KV deployment across the given regions.
func buildKV(t *testing.T, regions []topology.RegionID, serversPerRegion, shards, replicas int,
	taskPolicy *taskcontroller.Policy, tweak func(*orchestrator.Config)) (*experiments.Deployment, *apps.KVBacking) {
	t.Helper()
	pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
	if replicas == 1 {
		pol.SpreadWeight = 0
	}
	cfg := orchestrator.Config{
		App:      "kv",
		Strategy: shard.PrimarySecondary,
		Shards: experiments.UniformShardConfigs(shards, replicas, topology.Capacity{
			topology.ResourceCPU:        1,
			topology.ResourceShardCount: 1,
		}),
		Policy: pol,
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: float64(shards),
		},
		GracefulMigration: true,
		FailoverGrace:     3 * time.Minute,
	}
	if replicas == 1 {
		cfg.Strategy = shard.PrimaryOnly
	}
	if tweak != nil {
		tweak(&cfg)
	}
	backing := apps.NewKVBacking()
	d := experiments.Build(experiments.DeploymentSpec{
		Regions:          regions,
		ServersPerRegion: serversPerRegion,
		Orch:             cfg,
		TaskPolicy:       taskPolicy,
		ClusterOpts:      cluster.DefaultOptions(),
		AppFactory: func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, backing)
		},
		Seed: 77,
	})
	if err := d.Settle(15 * time.Minute); err != nil {
		t.Fatal(err)
	}
	return d, backing
}

// TestCrossRegionRestartsNeverLoseAllReplicas reproduces §2.3's motivating
// scenario: two regional cluster managers independently start rolling
// restarts at the same time; containers in different regions host the two
// replicas of the same shard. One TaskController coordinates both regions,
// so no shard ever has zero alive replicas.
func TestCrossRegionRestartsNeverLoseAllReplicas(t *testing.T) {
	tp := taskcontroller.DefaultPolicy(6)
	tp.DrainOnRestart = false // rely purely on the per-shard cap
	tp.MaxUnavailableReplicas = 1
	d, _ := buildKV(t, []topology.RegionID{"r1", "r2"}, 6, 60, 2, &tp, nil)

	// Sample every second: every shard must keep >= 1 alive replica.
	minAlive := 99
	d.Loop.EveryL(time.Second, 0, func() {
		m := d.Orch.AssignmentSnapshot()
		for _, id := range d.Orch.ShardIDs() {
			alive := 0
			for _, a := range m.Replicas(id) {
				if d.Dir.Lookup(a.Server) != nil {
					alive++
				}
			}
			if alive < minAlive {
				minAlive = alive
			}
		}
	})

	// Both regions upgrade simultaneously.
	done := 0
	for _, r := range []topology.RegionID{"r1", "r2"} {
		d.Managers[r].RollingUpgrade(d.Jobs[r], 6, "upgrade", func() { done++ })
	}
	d.Loop.RunFor(60 * time.Minute)
	if done != 2 {
		t.Fatalf("upgrades completed = %d, want 2", done)
	}
	if minAlive < 1 {
		t.Fatalf("a shard lost all replicas (min alive = %d)", minAlive)
	}
}

// TestZeroRequestLossDuringDrainedUpgrade asserts the §4.3 guarantee end to
// end: with TaskController drains and graceful migration, a rolling upgrade
// drops zero requests.
func TestZeroRequestLossDuringDrainedUpgrade(t *testing.T) {
	tp := taskcontroller.DefaultPolicy(2)
	d, _ := buildKV(t, []topology.RegionID{"r1"}, 8, 200, 1, &tp, func(c *orchestrator.Config) {
		c.MaxConcurrentMigrations = 30
		c.ShardLoadTime = 2 * time.Second
	})
	ks := experiments.KeyspaceFor(200)
	client := d.NewClient("r1", ks, routing.DefaultOptions())
	d.Loop.RunFor(5 * time.Second)

	rng := d.Loop.RNG().Fork()
	var sent, failed int
	d.Loop.EveryL(100*time.Millisecond, 0, func() {
		key := experiments.KeyForShard(rng.Intn(200))
		sent++
		client.Do(key, true, apps.KVOpPut, apps.KVPut{Value: "v"}, func(res routing.Result) {
			if !res.OK {
				failed++
				t.Logf("request failed at %v: %s (shard %s)", d.Loop.Now(), res.Err, res.Shard)
			}
		})
	})

	done := false
	d.Managers["r1"].RollingUpgrade(d.Jobs["r1"], 2, "upgrade", func() { done = true })
	d.Loop.RunFor(45 * time.Minute)
	if !done {
		t.Fatal("upgrade did not complete")
	}
	if failed != 0 {
		t.Fatalf("%d/%d requests dropped during drained upgrade", failed, sent)
	}
	if sent < 1000 {
		t.Fatalf("too little traffic to be meaningful: %d", sent)
	}
}

// TestMaintenanceDemotesPrimariesAhead asserts §4.2: before a scheduled
// network-loss maintenance, SM demotes primaries on the affected machine
// and promotes secondaries elsewhere, so every shard keeps an alive primary
// through the event.
func TestMaintenanceDemotesPrimariesAhead(t *testing.T) {
	tp := taskcontroller.DefaultPolicy(4)
	d, _ := buildKV(t, []topology.RegionID{"r1", "r2"}, 4, 40, 2, &tp, nil)

	// Find a machine hosting at least one primary.
	m := d.Orch.AssignmentSnapshot()
	var victim topology.MachineID
	var victimServer shard.ServerID
	mgr := d.Managers["r1"]
	for _, id := range d.Orch.ShardIDs() {
		if p, ok := m.Primary(id); ok {
			if c, ok := mgr.Container(cluster.ContainerID(p)); ok {
				victim = c.Machine
				victimServer = p
				break
			}
		}
	}
	if victim == "" {
		t.Fatal("no primary found in r1")
	}

	start := d.Loop.Now() + 10*time.Minute
	mgr.ScheduleMaintenance([]topology.MachineID{victim}, start, start+5*time.Minute)

	// Just before the event starts, the machine must hold no primaries.
	d.Loop.RunUntil(start - time.Second)
	m = d.Orch.AssignmentSnapshot()
	for _, id := range d.Orch.ShardIDs() {
		if p, ok := m.Primary(id); ok && p == victimServer {
			t.Fatalf("shard %s still has its primary on the maintenance machine", id)
		}
	}
	// Through and after the event, every shard keeps exactly one primary.
	d.Loop.RunFor(10 * time.Minute)
	m = d.Orch.AssignmentSnapshot()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, id := range d.Orch.ShardIDs() {
		if _, ok := m.Primary(id); !ok {
			t.Fatalf("shard %s lost its primary", id)
		}
	}
}

// TestStreamProcessorSurvivesDrainEndToEnd drives the AdEvents-like app
// through a real drain + graceful migration and checks the materialized
// state is correct on the new owner, queried through the router.
func TestStreamProcessorSurvivesDrainEndToEnd(t *testing.T) {
	const numShards = 40
	pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
	pol.SpreadWeight = 0
	cfg := orchestrator.Config{
		App:      "adevents",
		Strategy: shard.PrimaryOnly,
		Shards: experiments.UniformShardConfigs(numShards, 1, topology.Capacity{
			topology.ResourceCPU:        1,
			topology.ResourceShardCount: 1,
		}),
		Policy: pol,
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: numShards,
		},
		GracefulMigration: true,
	}
	bus := apps.NewDataBus()
	d := experiments.Build(experiments.DeploymentSpec{
		Regions:          []topology.RegionID{"r1"},
		ServersPerRegion: 4,
		Orch:             cfg,
		ClusterOpts:      cluster.DefaultOptions(),
		AppFactory: func(s *appserver.Server) appserver.Application {
			return apps.NewStreamProcessor(bus)
		},
		Seed: 3,
	})
	if err := d.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}

	// Publish events for shard s00000 and verify the aggregate. The
	// event key doubles as the routing key.
	ks := experiments.KeyspaceFor(numShards)
	adKey := experiments.KeyForShard(0)
	for i := 0; i < 5; i++ {
		bus.Publish(apps.BusEvent{Shard: "s00000", Key: adKey, Count: 2})
	}
	client := d.NewClient("r1", ks, routing.DefaultOptions())
	d.Loop.RunFor(5 * time.Second)

	query := func() int64 {
		var got int64 = -1
		client.Do(adKey, false, apps.StreamOpQuery, nil, func(res routing.Result) {
			if res.OK {
				got = res.Payload.(int64)
			}
		})
		d.Loop.RunFor(5 * time.Second)
		return got
	}
	if v := query(); v != 10 {
		t.Fatalf("aggregate = %d, want 10", v)
	}

	// Drain the owner; the shard migrates; the new owner rebuilds from
	// the bus and serves the same aggregate.
	m := d.Orch.AssignmentSnapshot()
	owner, _ := m.Primary("s00000")
	drained := false
	d.Orch.Drain(owner, func() { drained = true })
	d.Loop.RunFor(10 * time.Minute)
	if !drained {
		t.Fatal("drain never completed")
	}
	m = d.Orch.AssignmentSnapshot()
	newOwner, ok := m.Primary("s00000")
	if !ok || newOwner == owner {
		t.Fatalf("shard did not move: %s -> %s", owner, newOwner)
	}
	if v := query(); v != 10 {
		t.Fatalf("aggregate after migration = %d, want 10", v)
	}
}

// TestTwoAppsShareFleetIndependently runs two applications with separate
// orchestrators on the same fleet, coordination store, and discovery
// service — the multi-tenant reality of §6.
func TestTwoAppsShareFleetIndependently(t *testing.T) {
	d1, backing := buildKV(t, []topology.RegionID{"r1"}, 4, 40, 1, nil, nil)
	_ = backing

	// Second app: its own job on the same cluster manager and stores.
	pol := allocator.DefaultPolicy(topology.ResourceShardCount)
	pol.SpreadWeight = 0
	cfg2 := orchestrator.Config{
		App:      "second",
		Strategy: shard.PrimaryOnly,
		Shards: experiments.UniformShardConfigs(20, 1, topology.Capacity{
			topology.ResourceShardCount: 1,
		}),
		Policy:         pol,
		ServerCapacity: topology.Capacity{topology.ResourceShardCount: 100},
		HomeRegion:     "r1",
	}
	qBacking := apps.NewQueueBacking()
	host2 := appserver.NewHost(d1.Loop, d1.Net, d1.Dir, d1.Store, d1.Fleet, "second", "second-job",
		func(s *appserver.Server) appserver.Application { return apps.NewQueue(s, qBacking) })
	d1.Managers["r1"].AddListener(host2)
	d1.Managers["r1"].CreateJob("second-job", 3)
	orch2 := orchestrator.New(d1.Loop, d1.Store, d1.Disc, d1.Net, d1.Dir, d1.Fleet, cfg2, 9)
	orch2.Start()
	d1.Loop.RunFor(5 * time.Minute)

	m1 := d1.Orch.AssignmentSnapshot()
	m2 := orch2.AssignmentSnapshot()
	if len(m1.Entries) != 40 || len(m2.Entries) != 20 {
		t.Fatalf("apps interfered: %d/%d shards", len(m1.Entries), len(m2.Entries))
	}
	// The second app's shards only live on its own job's servers.
	for id, as := range m2.Entries {
		for _, a := range as {
			if len(a.Server) < 10 || a.Server[:10] != "second-job" {
				t.Fatalf("shard %s of app2 on foreign server %s", id, a.Server)
			}
		}
	}
}

// TestRollingUpgradePreservesQueueData: end-to-end durability — everything
// enqueued before and during an upgrade is dequeueable afterwards, in
// order per shard.
func TestRollingUpgradePreservesQueueData(t *testing.T) {
	const numShards = 30
	tp := taskcontroller.DefaultPolicy(2)
	pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
	pol.SpreadWeight = 0
	cfg := orchestrator.Config{
		App:      "q",
		Strategy: shard.PrimaryOnly,
		Shards: experiments.UniformShardConfigs(numShards, 1, topology.Capacity{
			topology.ResourceCPU:        1,
			topology.ResourceShardCount: 1,
		}),
		Policy: pol,
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: numShards,
		},
		GracefulMigration: true,
		FailoverGrace:     3 * time.Minute,
	}
	backing := apps.NewQueueBacking()
	d := experiments.Build(experiments.DeploymentSpec{
		Regions:          []topology.RegionID{"r1"},
		ServersPerRegion: 4,
		Orch:             cfg,
		TaskPolicy:       &tp,
		ClusterOpts:      cluster.DefaultOptions(),
		AppFactory: func(s *appserver.Server) appserver.Application {
			return apps.NewQueue(s, backing)
		},
		Seed: 13,
	})
	if err := d.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	ks := experiments.KeyspaceFor(numShards)
	client := d.NewClient("r1", ks, routing.DefaultOptions())
	d.Loop.RunFor(5 * time.Second)

	// Enqueue sequenced messages to shard 0 throughout an upgrade.
	seq := 0
	tick := d.Loop.EveryL(500*time.Millisecond, 0, func() {
		seq++
		client.Do(experiments.KeyForShard(0), true, apps.QueueOpEnqueue,
			fmt.Sprintf("m%06d", seq), func(routing.Result) {})
	})
	done := false
	d.Managers["r1"].RollingUpgrade(d.Jobs["r1"], 2, "upgrade", func() { done = true })
	d.Loop.RunFor(30 * time.Minute)
	tick.Stop()
	d.Loop.RunFor(10 * time.Second)
	if !done {
		t.Fatal("upgrade incomplete")
	}

	// Drain the queue through the router and verify order.
	want := 1
	for {
		var got string
		ok := false
		client.Do(experiments.KeyForShard(0), true, apps.QueueOpDequeue, nil, func(res routing.Result) {
			if res.OK {
				got, ok = res.Payload.(string)
			}
		})
		d.Loop.RunFor(2 * time.Second)
		if !ok || got == "" {
			break
		}
		expect := fmt.Sprintf("m%06d", want)
		if got != expect {
			t.Fatalf("out-of-order delivery: got %s want %s", got, expect)
		}
		want++
	}
	if want < 10 {
		t.Fatalf("dequeued only %d messages", want-1)
	}
}
