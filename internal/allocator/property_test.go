package allocator

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/solver"
	"shardmanager/internal/topology"
)

// TestRunInvariantsProperty checks the allocator's hard guarantees on
// random inputs: every emitted placement targets a live server, no shard
// ever has two replicas on one server, per-shard and global churn caps are
// respected, the result is internally consistent with its own moves, and its
// floor is at most its final count in every kind.
// The 60 inputs come from a fixed source, so a failure replays; widen the
// search by changing the source, and pin what it finds in
// TestRunInvariantsRegressions.
func TestRunInvariantsProperty(t *testing.T) {
	check := func(seed uint64) bool {
		ok := checkRunInvariants(t, seed)
		if !ok {
			t.Errorf("invariants violated for seed %d", seed)
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunInvariantsRegressions re-checks inputs that once violated the
// invariants (found by the property test's random search).
func TestRunInvariantsRegressions(t *testing.T) {
	for _, seed := range []uint64{16414554008349849662} {
		if !checkRunInvariants(t, seed) {
			t.Errorf("invariants violated for seed %d", seed)
		}
	}
}

// propertyWorld builds the random allocator input, policy and mode that seed
// names: 4–11 servers over three regions (some dead, some draining), 5–34
// shards with random partial placements, random churn caps.
func propertyWorld(seed uint64) (Input, Policy, Mode) {
	rng := sim.NewRNG(seed)
	nServers := 4 + rng.Intn(8)
	nShards := 5 + rng.Intn(30)
	replicas := 1 + rng.Intn(3)
	if replicas > nServers {
		replicas = nServers
	}

	servers := make([]ServerInfo, nServers)
	for i := range servers {
		servers[i] = ServerInfo{
			ID: shard.ServerID(fmt.Sprintf("srv%02d", i)),
			Domains: map[string]string{
				"region": fmt.Sprintf("r%d", i%3),
				"rack":   fmt.Sprintf("rk%d", i%4),
			},
			Capacity: topology.Capacity{
				topology.ResourceCPU:        100,
				topology.ResourceShardCount: 1000,
			},
			Alive:    rng.Intn(6) != 0, // ~17% dead
			Draining: rng.Intn(8) == 0,
		}
	}
	anyAlive := false
	for _, s := range servers {
		if s.Alive {
			anyAlive = true
		}
	}
	if !anyAlive {
		servers[0].Alive = true
	}

	shards := make([]ShardSpec, nShards)
	current := map[shard.ID][]shard.ServerID{}
	for i := range shards {
		id := shard.ID(fmt.Sprintf("s%03d", i))
		shards[i] = ShardSpec{
			ID:       id,
			Replicas: replicas,
			Load: topology.Capacity{
				topology.ResourceCPU:        0.5 + 2*rng.Float64(),
				topology.ResourceShardCount: 1,
			},
		}
		// Random (possibly partial, possibly dead) current
		// placement with distinct servers.
		n := rng.Intn(replicas + 1)
		perm := rng.Perm(nServers)
		var cur []shard.ServerID
		for j := 0; j < n; j++ {
			cur = append(cur, servers[perm[j]].ID)
		}
		current[id] = cur
	}

	pol := DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
	pol.PerShardMoveCap = 1 + rng.Intn(2)
	pol.MaxTotalMoves = 1 + rng.Intn(20)

	mode := Periodic
	if rng.Intn(2) == 0 {
		mode = Emergency
	}
	return Input{Servers: servers, Shards: shards, Current: current}, pol, mode
}

// checkRunInvariants runs the allocator on propertyWorld(seed) and reports
// whether the hard invariants hold (logging any violation).
func checkRunInvariants(t *testing.T, seed uint64) bool {
	in, pol, mode := propertyWorld(seed)
	current := in.Current
	liveSet := map[shard.ServerID]bool{}
	for _, s := range in.Servers {
		if s.Alive {
			liveSet[s.ID] = true
		}
	}
	res := New(pol, seed).Run(in, mode)

	// Every migration starts from a live current replica of its shard.
	for _, m := range res.Moves {
		if m.Kind() == "move" && (!slices.Contains(current[m.Shard], m.From) || !liveSet[m.From]) {
			t.Logf("seed %d: move of %s from %s, which holds no live replica of it", seed, m.Shard, m.From)
			return false
		}
	}

	// (a) placements target live servers only.
	for id, list := range applyMoves(in, res.Moves) {
		seen := map[shard.ServerID]bool{}
		for _, srv := range list {
			if srv == "" {
				continue
			}
			if !liveSet[srv] {
				// A replica may legitimately remain on a dead server
				// only if it was already there (kept, not placed).
				if !slices.Contains(current[id], srv) {
					t.Logf("seed %d: shard %s placed on dead %s", seed, id, srv)
					return false
				}
				continue
			}
			// (b) no duplicate servers within a shard.
			if seen[srv] {
				t.Logf("seed %d: shard %s duplicated on %s", seed, id, srv)
				return false
			}
			seen[srv] = true
		}
	}
	// (c) churn caps.
	perShard := map[shard.ID]int{}
	totalMigrations := 0
	for _, m := range res.Moves {
		if m.Kind() == "move" {
			perShard[m.Shard]++
			totalMigrations++
		}
		if !liveSet[m.To] {
			t.Logf("seed %d: move targets dead server %s", seed, m.To)
			return false
		}
	}
	for id, n := range perShard {
		if n > pol.PerShardMoveCap {
			t.Logf("seed %d: shard %s has %d moves > cap %d", seed, id, n, pol.PerShardMoveCap)
			return false
		}
	}
	if totalMigrations > pol.MaxTotalMoves {
		t.Logf("seed %d: %d migrations > cap %d", seed, totalMigrations, pol.MaxTotalMoves)
		return false
	}
	// (d) the floor is a lower bound.
	if !floorBelow(res.Floor, res.Final) {
		t.Logf("seed %d: floor %+v above final %+v", seed, res.Floor, res.Final)
		return false
	}
	return true
}

// floorBelow reports whether floor is at most final in every kind.
func floorBelow(floor, final solver.ViolationCounts) bool {
	return floor.Capacity <= final.Capacity && floor.Conflict <= final.Conflict &&
		floor.Balance <= final.Balance && floor.Affinity <= final.Affinity &&
		floor.Exclusion <= final.Exclusion && floor.Drain <= final.Drain &&
		floor.Unassigned <= final.Unassigned
}
