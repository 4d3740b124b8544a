package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// kvWorld builds a two-region, eight-server primary-secondary KV deployment
// of the given size; the caller settles it.
func kvWorld(app shard.AppID, shards int, seed uint64, tune func(*orchestrator.Config)) *Deployment {
	cfg := orchestrator.Config{
		App:      app,
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
	}
	if tune != nil {
		tune(&cfg)
	}
	backing := apps.NewKVBacking()
	return Build(DeploymentSpec{
		Regions:          []topology.RegionID{"west", "east"},
		ServersPerRegion: 4,
		Orch:             cfg,
		AppFactory: func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, backing)
		},
		Seed: seed,
	})
}

// recordResults registers a client observer that renders every final routing
// Result, in completion order, into *out.
func recordResults(d *Deployment, c *routing.Client, name string, out *[]string) {
	c.OnResult(func(r routing.Result) {
		*out = append(*out, fmt.Sprintf(
			"%s t=%d ok=%v err=%s srv=%s shard=%s att=%d hops=%d lat=%d v=%d",
			name, d.Loop.Now(), r.OK, r.Err, r.Server, r.Shard,
			r.Attempts, r.Hops, r.Latency, r.MapVersion))
	})
}

// runDeltaEquivalenceWorld builds a small deployment, drives deterministic
// client traffic through shard-map churn (a drain moves primaries mid-run),
// and returns a rendering of every final routing Result in completion order.
func runDeltaEquivalenceWorld(t *testing.T, seed uint64) []string {
	t.Helper()
	const shards = 24
	d := kvWorld("deltakv", shards, seed, nil)
	if err := d.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}

	ks := KeyspaceFor(shards)
	var results []string
	clients := map[string]*routing.Client{
		"west": d.NewClient("west", ks, routing.DefaultOptions()),
		"east": d.NewClient("east", ks, routing.DefaultOptions()),
	}
	for region, c := range clients {
		recordResults(d, c, region, &results)
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

// runPublishBurstWorld is the regime where publishes outrun propagation: two
// servers drain at once with no migration cap to speak of, so 80 moves commit
// — one publish each — inside a fraction of the 0.5-2 s a map takes to reach
// a client, while six clients keep 60 requests a second in flight. A client
// therefore routes by a version many publishes old, and every delivery it
// gets has been overtaken several times: it must be handed exactly the
// version that delivery was scheduled for.
func runPublishBurstWorld(t *testing.T, seed uint64) []string {
	t.Helper()
	const shards = 160
	d := kvWorld("burstkv", shards, seed, func(cfg *orchestrator.Config) {
		cfg.ServerCapacity = topology.Capacity{
			topology.ResourceCPU:        200,
			topology.ResourceShardCount: 100,
		}
		cfg.MaxConcurrentMigrations = 200
	})
	if err := d.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var pubAt []time.Duration
	d.Orch.AddHooks(orchestrator.Hooks{MapPublished: func(int64, int) { pubAt = append(pubAt, d.Loop.Now()) }})

	ks := KeyspaceFor(shards)
	var results []string
	var clients []*routing.Client
	for i := 0; i < 6; i++ {
		region := []topology.RegionID{"west", "east"}[i%2]
		c := d.NewClient(region, ks, routing.DefaultOptions())
		recordResults(d, c, fmt.Sprintf("%s%d", region, i/2), &results)
		clients = append(clients, c)
	}
	d.Loop.RunFor(5 * time.Second)

	i := 0
	d.Loop.EveryL(100*time.Millisecond, 0, func() {
		for j, c := range clients {
			key := KeyForShard((i*7 + j*23) % shards)
			c.Do(key, (i+j)%2 == 0, "op", i, func(routing.Result) {})
		}
		i++
	})
	d.Loop.RunFor(5 * time.Second)
	m := d.Orch.AssignmentSnapshot()
	west, _ := m.Primary("s00000")
	var east shard.ServerID
	for _, a := range m.Replicas("s00000") {
		if a.Server != west {
			east = a.Server
		}
	}
	d.Orch.Drain(west, nil)
	d.Orch.Drain(east, nil)
	d.Loop.RunFor(60 * time.Second)

	// The case is only worth its name if a burst really fits inside one
	// propagation window.
	burst := 0
	for lo := range pubAt {
		n := 0
		for _, at := range pubAt[lo:] {
			if at-pubAt[lo] < 2*time.Second {
				n++
			}
		}
		burst = max(burst, n)
	}
	if burst < 50 {
		t.Fatalf("largest burst is %d publishes in 2 s, want at least 50", burst)
	}
	return results
}

// TestDeltaPublishRoutingOutcomesIdentical is the equivalence gate of the one
// publication path: every final routing Result (outcome, server, attempts,
// latency, map version, completion instant) must be what whole-map
// publication produced. The counts and digests below were recorded with
// these same worlds at the last commit that still published whole maps, on
// its full-publish side. (That commit's delta side reproduced the first two
// and diverged on the burst — digest 39f99d75ee57888a — because a client that
// could not chain a delta was resynced to the current map, not handed the
// version the delivery was for.) The "drain seed 3" and "burst seed 5" rows
// were re-recorded once since, when the solver's equivalence classes were
// deleted (32bdceeb22a22ebc and e5dc3397c13b43aa before): a hot bucket's
// candidates changed, so the allocations chose other moves and the requests
// took other routes. The "burst seed 5" row was re-recorded once more when a
// hot bucket began offering its penalty-carrying entities before its inert
// ones (3798 results, 32be6617a5db34e8 before): the drains' allocations chose
// other moves, and two more requests completed inside the window. The drain
// rows held. All three rows were re-recorded once more when a run with
// replicas to place stopped solving the critical goals alone first (drain
// seeds 3 and 11: 07e8ab9d54ea6025 and f636326fad66feaf before; burst seed 5:
// 3800 results, 2d5c1c2ec5219870 before): the first placement, and so every
// later move and route, changed. The burst world still completes all 3900
// requests it issues when run 30 s past the window; one of them now completes
// 15 ms after the window closes instead of inside it. The "burst seed 5" row
// was re-recorded once more when the solver stopped searching standing
// violations and began applying every improving move a grid found
// (70859375e6a7f2d9 before, the same 3799 results): the drains' allocations
// chose other moves, so the requests took other routes. The drain rows held.
// The "burst seed 5" row was re-recorded once more when no run solved the
// critical goals alone any more (a00a0b6f9b19a300 before, the same 3799
// results): the drains were repaired with spread in view, so the allocations
// chose other moves and the requests took other routes. The drain rows held.
func TestDeltaPublishRoutingOutcomesIdentical(t *testing.T) {
	for _, c := range []struct {
		name   string
		run    func() []string
		count  int
		digest string
	}{
		{"drain seed 3", func() []string { return runDeltaEquivalenceWorld(t, 3) }, 992, "c41bd62bcb5e4ea0"},
		{"drain seed 11", func() []string { return runDeltaEquivalenceWorld(t, 11) }, 992, "f204fd2e02ebc8fb"},
		{"burst seed 5", func() []string { return runPublishBurstWorld(t, 5) }, 3799, "e7fc526d5971801f"},
	} {
		results := c.run()
		sum := sha256.Sum256([]byte(strings.Join(results, "\n")))
		if got := fmt.Sprintf("%x", sum[:8]); len(results) != c.count || got != c.digest {
			t.Errorf("%s: %d results, digest %s; recorded %d, %s", c.name, len(results), got, c.count, c.digest)
		}
	}
}

// TestDeltaPublishActuallyPublishesDeltas guards against the equivalence test
// passing vacuously: after the first publication, which carries every entry,
// what the orchestrator hands discovery must chain onto the previous version
// and carry only the entries a move touched.
func TestDeltaPublishActuallyPublishesDeltas(t *testing.T) {
	const shards = 24
	d := kvWorld("deltakv", shards, 1, nil)
	type pub struct{ from, to, edits int64 }
	var pubs []pub
	d.Orch.AddHooks(orchestrator.Hooks{MapDelta: func(dl *shard.Delta) {
		pubs = append(pubs, pub{dl.FromVersion, dl.ToVersion, int64(len(dl.Changed) + len(dl.Removed))})
	}})
	if err := d.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Force extra publishes past the initial placement.
	victim, ok := d.Orch.AssignmentSnapshot().Primary(shard.ID("s00000"))
	if !ok {
		t.Fatal("no primary")
	}
	d.Orch.Drain(victim, nil)
	d.Loop.RunFor(2 * time.Minute)
	if len(pubs) < 3 || pubs[0].from != 0 || pubs[0].edits != shards {
		t.Fatalf("publications: %+v", pubs)
	}
	for i, p := range pubs[1:] {
		if p.from != pubs[i].to || p.to != p.from+1 {
			t.Fatalf("publication %d is %d->%d after %d->%d", i+1, p.from, p.to, pubs[i].from, pubs[i].to)
		}
		if p.edits == 0 || p.edits > 2 {
			t.Fatalf("publication %d carries %d entries; a drain moves one replica per publish", i+1, p.edits)
		}
	}
	if got := d.Disc.Latest("deltakv").Map(); got.Version != pubs[len(pubs)-1].to || len(got.Entries) != shards {
		t.Fatalf("discovery holds v%d with %d entries after %d publications", got.Version, len(got.Entries), len(pubs))
	}
}
