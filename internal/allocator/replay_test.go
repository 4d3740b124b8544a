package allocator

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// replayWorld is a problem's values in server terms: hosts[i] lists the
// servers (indices into servers) shard i's replicas are on.
type replayWorld struct {
	servers []ServerInfo
	shards  []ShardSpec
	hosts   [][]int
}

// newReplayWorld returns eight servers over two regions, the last two not
// live, and twelve two-replica shards placed on the live ones but for shard
// 0's second replica, which is on dead server 6. Shard 5 prefers r1.
func newReplayWorld() replayWorld {
	w := replayWorld{servers: makeServers(8, []string{"r1", "r2"}, 100), shards: makeShards(12, 2, 1)}
	w.servers[6].Alive, w.servers[7].Alive = false, false
	w.shards[5].RegionPreference = "r1"
	for i := range w.shards {
		w.hosts = append(w.hosts, []int{i % 6, (i + 1) % 6})
	}
	w.hosts[0][1] = 6
	return w
}

func (w replayWorld) clone() replayWorld {
	c := replayWorld{servers: slices.Clone(w.servers), shards: slices.Clone(w.shards)}
	for _, h := range w.hosts {
		c.hosts = append(c.hosts, slices.Clone(h))
	}
	return c
}

// restate states every value of w in p.
func (w replayWorld) restate(p *Problem) {
	buckets := slices.Clone(p.SetServers(w.servers))
	for i, spec := range w.shards {
		p.SetShard(i, spec)
		var cur []int
		for _, s := range w.hosts[i] {
			cur = append(cur, buckets[s])
		}
		p.SetCurrent(i, cur)
	}
}

// input is w as an Input, for a run from scratch.
func (w replayWorld) input() Input {
	in := Input{Servers: w.servers, Shards: w.shards, Current: map[shard.ID][]shard.ServerID{}}
	for i, spec := range w.shards {
		for _, s := range w.hosts[i] {
			in.Current[spec.ID] = append(in.Current[spec.ID], w.servers[s].ID)
		}
	}
	return in
}

// TestKeptProblemReplaysOnlyWhatItRead: a Problem run once and then restated
// returns that run's result again, the same pointer, exactly when no value a
// run reads was written differently since and the mode is the same: values
// restated equal, a load in a metric the policy does not balance on, a drain
// or a replica on servers that are not live, a live server's rack (only its
// region is read). Any other change — a policy metric's load, a preference
// weight, a live server's drain, region or capacity, a replica between live
// servers, the mode — runs afresh, and so does a load or a replica's move
// undone before the run: the setters compare as they write, not with the last
// run. Whatever Run returns gives the moves and counts a run from scratch on
// the same input gives.
func TestKeptProblemReplaysOnlyWhatItRead(t *testing.T) {
	cpu := func(v float64) topology.Capacity {
		return topology.Capacity{topology.ResourceCPU: v, topology.ResourceShardCount: 1}
	}
	cases := []struct {
		name   string
		mode   Mode
		edits  []func(w *replayWorld) // each restated before the next
		replay bool
	}{
		{"values restated equal", Periodic, []func(*replayWorld){func(*replayWorld) {}}, true},
		{"load outside the policy's metrics", Periodic, []func(*replayWorld){func(w *replayWorld) {
			w.shards[3].Load = topology.Capacity{topology.ResourceCPU: 1, topology.ResourceShardCount: 1, topology.ResourceStorage: 7}
		}}, true},
		{"drain flip on a server not live", Periodic, []func(*replayWorld){func(w *replayWorld) {
			w.servers[7].Draining = true
		}}, true},
		{"replica moved between servers not live", Periodic, []func(*replayWorld){func(w *replayWorld) {
			w.hosts[0][1] = 7
		}}, true},
		{"rack", Periodic, []func(*replayWorld){func(w *replayWorld) {
			d := maps.Clone(w.servers[1].Domains)
			d["rack"] = "r2/dc0/rack99"
			w.servers[1].Domains = d
		}}, true},

		{"policy metric load", Periodic, []func(*replayWorld){func(w *replayWorld) { w.shards[3].Load = cpu(3) }}, false},
		{"preference weight", Periodic, []func(*replayWorld){func(w *replayWorld) { w.shards[5].PreferenceWeight = 50 }}, false},
		{"live server's drain flip", Periodic, []func(*replayWorld){func(w *replayWorld) { w.servers[2].Draining = true }}, false},
		{"region", Periodic, []func(*replayWorld){func(w *replayWorld) {
			d := maps.Clone(w.servers[1].Domains)
			d["region"] = "r9"
			w.servers[1].Domains = d
		}}, false},
		{"capacity", Periodic, []func(*replayWorld){func(w *replayWorld) {
			w.servers[1].Capacity = topology.Capacity{topology.ResourceCPU: 50, topology.ResourceShardCount: 1000}
		}}, false},
		{"replica moved between live servers", Periodic, []func(*replayWorld){func(w *replayWorld) { w.hosts[2][0] = 4 }}, false},
		{"load changed and changed back", Periodic, []func(*replayWorld){
			func(w *replayWorld) { w.shards[3].Load = cpu(3) },
			func(w *replayWorld) { w.shards[3].Load = cpu(1) },
		}, false},
		{"replica moved and moved back", Periodic, []func(*replayWorld){
			func(w *replayWorld) { w.hosts[2][0] = 4 },
			func(w *replayWorld) { w.hosts[2][0] = 2 },
		}, false},
		{"mode switch", Emergency, []func(*replayWorld){func(*replayWorld) {}}, false},
	}
	a := New(DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount), 1)
	check := func(what string, w replayWorld, mode Mode, got *Result) {
		t.Helper()
		want := a.Run(w.input(), mode)
		if !reflect.DeepEqual(got.Moves, want.Moves) || got.Deferred != want.Deferred ||
			got.Initial != want.Initial || got.Final != want.Final {
			t.Fatalf("%s: the kept problem gives %d moves (%d deferred) %+v -> %+v, from scratch %d moves (%d deferred) %+v -> %+v",
				what, len(got.Moves), got.Deferred, got.Initial, got.Final, len(want.Moves), want.Deferred, want.Initial, want.Final)
		}
	}
	for _, c := range cases {
		w := newReplayWorld()
		p := a.NewProblem(w.shards)
		w.restate(p)
		first := p.Run(Periodic)
		check(c.name+", first run", w, Periodic, first)
		w = w.clone()
		for _, edit := range c.edits {
			edit(&w)
			w.restate(p)
		}
		got := p.Run(c.mode)
		if replayed := got == first; replayed != c.replay {
			t.Errorf("%s: replayed %v, want %v", c.name, replayed, c.replay)
		}
		check(c.name, w, c.mode, got)
	}
}
