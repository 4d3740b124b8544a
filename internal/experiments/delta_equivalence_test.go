package experiments

import (
	"fmt"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/healthmon"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// runDeltaEquivalenceWorld builds a small deployment, drives deterministic
// client traffic through shard-map churn (a drain moves primaries mid-run),
// and returns a rendering of every final routing Result in completion order.
// The delta flag switches the publisher to orchestrator delta publishes and
// the clients to in-place delta application; everything else is identical.
func runDeltaEquivalenceWorld(t *testing.T, seed uint64, delta bool) []string {
	t.Helper()
	const shards = 24
	cfg := orchestrator.Config{
		App:      "deltakv",
		Strategy: shard.PrimarySecondary,
		Shards: UniformShardConfigs(shards, 2, topology.Capacity{
			topology.ResourceCPU:        1,
			topology.ResourceShardCount: 1,
		}),
		Policy: allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount),
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: 40,
		},
		GracefulMigration: true,
		FailoverGrace:     10 * time.Second,
		AllocInterval:     15 * time.Second,
		DeltaPublish:      delta,
	}
	backing := apps.NewKVBacking()
	d := Build(DeploymentSpec{
		Regions:          []topology.RegionID{"west", "east"},
		ServersPerRegion: 4,
		Orch:             cfg,
		AppFactory: func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, backing)
		},
		Seed: seed,
	})
	if err := d.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}

	ks := KeyspaceFor(shards)
	opts := routing.DefaultOptions()
	opts.ApplyDeltas = delta
	var results []string
	record := func(region string) func(routing.Result) {
		return func(r routing.Result) {
			results = append(results, fmt.Sprintf(
				"%s t=%d ok=%v err=%s srv=%s shard=%s att=%d hops=%d lat=%d v=%d",
				region, d.Loop.Now(), r.OK, r.Err, r.Server, r.Shard,
				r.Attempts, r.Hops, r.Latency, r.MapVersion))
		}
	}
	clients := map[string]*routing.Client{
		"west": d.NewClient("west", ks, opts),
		"east": d.NewClient("east", ks, opts),
	}
	for region, c := range clients {
		c.OnResult(record(region))
	}
	d.Loop.RunFor(5 * time.Second) // let the start-up catch-up land

	// Deterministic traffic: every 500ms each client hits a rotating shard,
	// alternating reads and writes.
	i := 0
	d.Loop.EveryL(500*time.Millisecond, 0, func() {
		key := KeyForShard(i % shards)
		clients["west"].Do(key, i%2 == 0, "op", i, func(routing.Result) {})
		clients["east"].Do(key, i%3 == 0, "op", i, func(routing.Result) {})
		i++
	})

	// Churn the map mid-run: drain the primary of s00000 so migrations
	// republish while traffic is in flight.
	d.Loop.RunFor(10 * time.Second)
	victim, ok := d.Orch.AssignmentSnapshot().Primary(shard.ID("s00000"))
	if !ok {
		t.Fatal("s00000 has no primary")
	}
	d.Orch.Drain(victim, nil)
	d.Loop.RunFor(4 * time.Minute)
	return results
}

// TestDeltaPublishRoutingOutcomesIdentical is the tentpole's equivalence
// gate: with DeltaPublish + ApplyDeltas enabled, every final routing Result
// (outcome, server, attempts, latency, map version, completion instant) is
// byte-identical to the legacy full-publish run of the same seed — the delta
// path changes publication cost, not behavior.
func TestDeltaPublishRoutingOutcomesIdentical(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		full := runDeltaEquivalenceWorld(t, seed, false)
		del := runDeltaEquivalenceWorld(t, seed, true)
		if len(full) == 0 {
			t.Fatalf("seed %d: no results recorded", seed)
		}
		if len(full) != len(del) {
			t.Fatalf("seed %d: %d results (full) vs %d (delta)", seed, len(full), len(del))
		}
		for i := range full {
			if full[i] != del[i] {
				t.Fatalf("seed %d: result %d differs:\nfull:  %s\ndelta: %s",
					seed, i, full[i], del[i])
			}
		}
		// The delta run must actually have exercised the delta path.
		if full[0] == "" {
			t.Fatal("unreachable")
		}
	}
}

// TestDeltaPublishActuallyPublishesDeltas guards against the equivalence test
// passing vacuously: the delta-enabled world must route its map updates
// through PublishDelta (discovery_delta_publishes_total > 0).
func TestDeltaPublishActuallyPublishesDeltas(t *testing.T) {
	cfg := orchestrator.Config{
		App:      "deltakv",
		Strategy: shard.PrimarySecondary,
		Shards: UniformShardConfigs(8, 2, topology.Capacity{
			topology.ResourceCPU:        1,
			topology.ResourceShardCount: 1,
		}),
		Policy: allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount),
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: 40,
		},
		DeltaPublish:  true,
		AllocInterval: 15 * time.Second,
	}
	backing := apps.NewKVBacking()
	d := Build(DeploymentSpec{
		Regions:          []topology.RegionID{"west"},
		ServersPerRegion: 4,
		Orch:             cfg,
		AppFactory: func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, backing)
		},
		Health: healthmon.New(healthmon.Options{}),
		Seed:   1,
	})
	if err := d.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Force extra publishes past the initial snapshot.
	victim, ok := d.Orch.AssignmentSnapshot().Primary(shard.ID("s00000"))
	if !ok {
		t.Fatal("no primary")
	}
	d.Orch.Drain(victim, nil)
	d.Loop.RunFor(2 * time.Minute)
	n := d.Health.Registry().Counter("discovery_delta_publishes_total", "app", "deltakv").Value()
	if n == 0 {
		t.Fatal("no delta publishes recorded; DeltaPublish not wired")
	}
}
