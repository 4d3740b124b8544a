package appserver

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
)

// TestReplicaIndexMatchesTheWalks drives seeded random sequences of add,
// prepare-add, activation, prepare-drop, drop, role change, tombstone expiry
// and server restart over three servers that share one directory, and after
// every step holds the lookup serve uses (holding, the directory's list for
// the shard's number) to the server's own walks (Shards, LoadReport, held) and
// to a reference of which replicas each live server holds in which role. A
// restarted server's predecessor must have no entry left in any list.
func TestReplicaIndexMatchesTheWalks(t *testing.T) {
	ids := make([]shard.ID, 8)
	for i := range ids {
		ids[i] = shard.ID(fmt.Sprintf("x%d", i))
	}
	names := []shard.ServerID{"s1", "s2", "s3"}
	for seed := uint64(1); seed <= 6; seed++ {
		env := newEnv()
		rng := sim.NewRNG(seed)
		live := map[shard.ServerID]*Server{}
		want := map[shard.ServerID]map[shard.ID]shard.Role{}
		start := func(id shard.ServerID) {
			s := env.server(id, "a", newEchoApp())
			if rng.Intn(2) == 0 {
				s.LoadTime = time.Second
			}
			live[id], want[id] = s, map[shard.ID]shard.Role{}
		}
		for _, id := range names {
			start(id)
		}
		var gone []*Server // every predecessor of a restarted server
		gen := int64(1)
		for step := 0; step < 300; step++ {
			name := names[rng.Intn(len(names))]
			s, id := live[name], ids[rng.Intn(len(ids))]
			role := shard.Role(rng.Intn(2))
			gen++
			var op string
			switch rng.Intn(8) {
			case 0, 1:
				op = "add"
				s.AddShard(id, role, gen)
				want[name][id] = role
			case 2:
				op = "prepare-add"
				s.PrepareAddShard(id, names[0], role, gen)
				want[name][id] = role
			case 3:
				op = "prepare-drop"
				s.PrepareDropShard(id, names[rng.Intn(len(names))], role)
			case 4:
				op = "drop"
				s.DropShard(id)
				delete(want[name], id)
			case 5:
				op = "change-role"
				if from, ok := want[name][id]; ok && s.ChangeRole(id, from, role, gen) == nil {
					want[name][id] = role
				}
			case 6:
				op = "run" // loads complete, tombstones expire
				env.loop.RunFor(time.Duration(1+rng.Intn(40)) * time.Second)
			case 7:
				op = "restart"
				env.dir.Remove(name)
				env.net.Unregister(rpcnet.Endpoint(name))
				gone = append(gone, s)
				start(name)
			}
			what := fmt.Sprintf("seed %d step %d (%s %s on %s)", seed, step, op, id, name)
			checkReplicaIndex(t, what, env.dir, ids, live, want, gone)
		}
	}
}

// checkReplicaIndex holds every live server's lookup to its walks and to
// want, the directory's lists to the live servers' held lists, and every
// predecessor in gone to holding nothing.
func checkReplicaIndex(t *testing.T, what string, dir *Directory, ids []shard.ID,
	live map[shard.ServerID]*Server, want map[shard.ServerID]map[shard.ID]shard.Role, gone []*Server) {
	t.Helper()
	entries := 0
	for name, s := range live {
		if got := s.Shards(); !maps.Equal(got, want[name]) {
			t.Fatalf("%s: %s walks %v, want %v", what, name, got, want[name])
		}
		for _, id := range ids {
			h := s.holding(dir.ShardNum(id))
			role, ok := want[name][id]
			if (h != nil) != ok || h != nil && (h.role != role || h.r.num != dir.ShardNum(id)) {
				t.Fatalf("%s: %s finds %s as %+v, the walk says held=%v role=%v", what, name, id, h, ok, role)
			}
			if h != nil && h.phase == PhaseActive != s.HoldsActive(id) {
				t.Fatalf("%s: %s serves %s in phase %v but HoldsActive says %v", what, name, id, h.phase, s.HoldsActive(id))
			}
			// A read is answered at once unless it is forwarded.
			_, tomb := s.tombstones[dir.ShardNum(id)]
			var resp *Response
			s.Serve(&Request{Shard: id, Key: "k"}, func(r Response) { resp = &r })
			switch {
			case h == nil && !tomb && (resp == nil || resp.Err != "not-owner"):
				t.Fatalf("%s: %s holds no %s and answers a read with %+v", what, name, id, resp)
			case h != nil && h.phase == PhaseActive && (resp == nil || !resp.OK):
				t.Fatalf("%s: %s holds %s active and answers a read with %+v", what, name, id, resp)
			}
		}
		for _, r := range s.held {
			s.LoadChanged(r.num)
		}
		reported := map[shard.ID]shard.Role{}
		for _, e := range s.LoadReport() {
			reported[e.Shard] = want[name][e.Shard]
		}
		if !maps.Equal(reported, want[name]) {
			t.Fatalf("%s: %s reports %v, holds %v", what, name, reported, want[name])
		}
		entries += len(s.held)
	}
	alive := map[*Server]bool{}
	for _, s := range live {
		alive[s] = true
	}
	listed := 0
	for num, hs := range dir.holders {
		seen := map[*Server]bool{}
		for _, h := range hs {
			if !alive[h.srv] || seen[h.srv] {
				t.Fatalf("%s: shard %d lists server %s (live %v, twice %v)", what, num, h.srv.ID, alive[h.srv], seen[h.srv])
			}
			seen[h.srv] = true
		}
		listed += len(hs)
	}
	if listed != entries {
		t.Fatalf("%s: the directory lists %d replicas, the live servers hold %d", what, listed, entries)
	}
	for _, old := range gone {
		for _, id := range ids {
			if old.holding(dir.ShardNum(id)) != nil {
				t.Fatalf("%s: the predecessor of %s still finds %s", what, old.ID, id)
			}
		}
	}
}
