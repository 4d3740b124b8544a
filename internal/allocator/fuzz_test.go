package allocator

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"shardmanager/internal/shard"
	"shardmanager/internal/solver"
	"shardmanager/internal/topology"
)

// fuzzWorld is a kept problem's world as its owner holds it: the servers
// (Alive and Draining flip, the list's order is fixed), the shards' specs, and
// hosts[i], the servers (indices into servers) shard i's replicas are on. A
// replica on a server that is not live is still listed, as the orchestrator
// lists one inside the failover grace.
type fuzzWorld struct {
	replayWorld
	// bucket[s] is server s's bucket at the last restatement, -1 for one not
	// live; marked[i] says shard i changed since, for the next restatement.
	bucket []int
	marked []bool
	// read is what a run reads, as the last restatement wrote it.
	read fuzzRead
}

// fuzzRead is every value a run reads, in bucket terms: the live servers in
// bucket order, each shard's load in the policy's metrics, its resolved
// preference, and the bucket of each of its replicas (solver.Unassigned for
// none, or one on a server not live).
type fuzzRead struct {
	servers []fuzzServer
	loads   []int64
	prefer  []string
	weight  []float64
	buckets []solver.BucketID
}

type fuzzServer struct {
	id       shard.ServerID
	region   string
	capacity [2]int64
	draining bool
}

// newFuzzWorld returns six servers over two regions with the capacity of
// eight shards' CPU, and eight shards of one to three replicas, none placed.
func newFuzzWorld() *fuzzWorld {
	w := &fuzzWorld{replayWorld: replayWorld{servers: makeServers(6, []string{"r1", "r2"}, 8), shards: makeShards(8, 1, 1)}}
	for i := range w.shards {
		w.shards[i].Replicas = 1 + i%3
		w.shards[i].Load = topology.Capacity{topology.ResourceCPU: float64(1 + i%4), topology.ResourceShardCount: 1}
	}
	w.hosts = make([][]int, len(w.shards))
	w.bucket = make([]int, len(w.servers))
	w.marked = make([]bool, len(w.shards))
	for i := range w.marked {
		w.marked[i] = true
	}
	return w
}

// restate brings p up to w as the orchestrator's refresh does: the server
// list every time, then the load, preference and placement of every shard
// marked, or with a replica on a server whose bucket number changed. It
// reports whether a value a run reads was written differently from the one
// the last restatement wrote.
func (w *fuzzWorld) restate(p *Problem, pol Policy) bool {
	for s, b := range p.SetServers(w.servers) {
		if w.bucket[s] != b {
			w.bucket[s] = b
			for i, h := range w.hosts {
				w.marked[i] = w.marked[i] || slices.Contains(h, s)
			}
		}
	}
	for i, spec := range w.shards {
		if !w.marked[i] {
			continue
		}
		w.marked[i] = false
		load := make([]float64, len(pol.Metrics))
		for m, r := range pol.Metrics {
			load[m] = spec.Load.Get(r)
		}
		p.SetLoad(i, load)
		p.SetPreference(i, spec.RegionPreference, spec.PreferenceWeight)
		var cur []int
		for _, s := range w.hosts[i] {
			cur = append(cur, w.bucket[s])
		}
		p.SetCurrent(i, cur)
	}
	read := w.reads(pol)
	changed := !reflect.DeepEqual(read, w.read)
	w.read = read
	return changed
}

// reads returns what a run of w reads, worked out from w alone.
func (w *fuzzWorld) reads(pol Policy) fuzzRead {
	var r fuzzRead
	bucket := make([]solver.BucketID, len(w.servers))
	for s, srv := range w.servers {
		bucket[s] = solver.Unassigned
		if srv.Alive {
			bucket[s] = solver.BucketID(len(r.servers))
			fs := fuzzServer{id: srv.ID, region: srv.Domains["region"], draining: srv.Draining}
			for m, r := range pol.Metrics {
				fs.capacity[m] = solver.Quantize(srv.Capacity.Get(r))
			}
			r.servers = append(r.servers, fs)
		}
	}
	for i, spec := range w.shards {
		for _, m := range pol.Metrics {
			r.loads = append(r.loads, solver.Quantize(spec.Load.Get(m)))
		}
		weight := cmp.Or(spec.PreferenceWeight, pol.AffinityWeight)
		if spec.RegionPreference == "" {
			weight = 0
		}
		r.prefer, r.weight = append(r.prefer, string(spec.RegionPreference)), append(r.weight, weight)
		for k := range spec.Replicas {
			b := solver.Unassigned
			if k < len(w.hosts[i]) {
				b = bucket[w.hosts[i][k]]
			}
			r.buckets = append(r.buckets, b)
		}
	}
	return r
}

// apply moves w's replicas as a diff says, as the orchestrator does: a move
// re-homes its From replica, and an add replaces the first replica on a
// server not live, or places one more. A move the world has changed under
// since the diff was made — its source gone, its target holding the shard
// already, no room for an add — is skipped.
func (w *fuzzWorld) apply(moves []ReplicaMove) {
	index := func(id shard.ServerID) int {
		return slices.IndexFunc(w.servers, func(s ServerInfo) bool { return s.ID == id })
	}
	for _, m := range moves {
		i := slices.IndexFunc(w.shards, func(s ShardSpec) bool { return s.ID == m.Shard })
		h, to := w.hosts[i], index(m.To)
		if slices.Contains(h, to) {
			continue
		}
		k := slices.Index(h, index(m.From))
		if m.From == "" {
			k = slices.IndexFunc(h, func(s int) bool { return !w.servers[s].Alive })
		}
		switch {
		case k >= 0:
			h[k] = to
		case m.From == "" && len(h) < w.shards[i].Replicas:
			w.hosts[i] = append(h, to)
		default:
			continue
		}
		w.marked[i] = true
	}
}

// FuzzKeptAllocatorMatchesFresh drives a kept Problem through what its owner
// sees between runs — servers dying, returning and draining, loads moving in
// a policy metric and in another, preferences set, changed and cleared,
// replicas moving (the last diff applied, or one replica anywhere) — and after
// every run requires the moves and counts Allocator.Run gives on the same
// Input, and a replay (the same pointer) exactly when the world's own record
// shows no value a run reads written differently since the last run in the
// same mode. The input is up to 64 three-byte ops: the kind, then two
// operands. Kinds 7 and 8 run, periodic and emergency; kind 9 restates
// without running; the rest change the world, which is restated at the next
// run or restatement.
func FuzzKeptAllocatorMatchesFresh(f *testing.F) {
	f.Add([]byte{7, 0, 0, 6, 0, 0, 7, 0, 0, 7, 0, 0})
	f.Add([]byte{7, 0, 0, 0, 1, 0, 8, 0, 0, 1, 1, 0, 7, 0, 0, 2, 3, 0, 7, 0, 0})
	f.Add([]byte{7, 0, 0, 6, 0, 0, 7, 0, 0, 3, 2, 5, 9, 0, 0, 3, 2, 2, 7, 0, 0, 4, 3, 9, 7, 0, 0, 3, 1, 5, 7, 0, 0})
	f.Add([]byte{7, 0, 0, 6, 0, 0, 5, 5, 1, 7, 0, 0, 5, 5, 0, 8, 0, 0, 6, 4, 131, 9, 0, 0, 6, 4, 129, 7, 0, 0})
	pol := DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
	pol.MaxTotalMoves = 3
	a := New(pol, 1)
	f.Fuzz(func(t *testing.T, ops []byte) {
		w := newFuzzWorld()
		p := a.NewProblem(w.shards)
		var last *Result
		lastMode, changed := Periodic, false
		for i := 0; i+3 <= min(len(ops), 3*64); i += 3 {
			op, x, y := ops[i], int(ops[i+1]), int(ops[i+2])
			s, sh := &w.servers[x%len(w.servers)], x%len(w.shards)
			switch op % 10 {
			case 0:
				s.Alive = false
			case 1:
				s.Alive = true
			case 2:
				s.Draining = !s.Draining
			case 3: // a policy metric's load
				w.shards[sh].Load[topology.ResourceCPU] = float64(y%6) / 2
				w.marked[sh] = true
			case 4: // a load outside the policy's metrics
				w.shards[sh].Load[topology.ResourceStorage] = float64(y)
				w.marked[sh] = true
			case 5: // a preference set, changed (its region or weight) or cleared
				w.shards[sh].RegionPreference = []topology.RegionID{"", "r1", "r2"}[y%3]
				w.shards[sh].PreferenceWeight = []float64{0, 50}[y/3%2]
				w.marked[sh] = true
			case 6: // the last diff applied, or one replica moved anywhere
				if y < 128 {
					if last != nil {
						w.apply(last.Moves)
					}
				} else if h := w.hosts[sh]; len(h) > 0 {
					to := y % len(w.servers)
					if !slices.Contains(h, to) {
						h[y/len(w.servers)%len(h)] = to
						w.marked[sh] = true
					}
				}
			case 7, 8, 9:
				changed = w.restate(p, pol) || changed
				if op%10 == 9 {
					continue
				}
				mode := Periodic
				if op%10 == 8 {
					mode = Emergency
				}
				got := p.Run(mode)
				if replayed, want := got == last, last != nil && !changed && mode == lastMode; replayed != want {
					t.Fatalf("op %d: %v run replayed %v, want %v", i/3, mode, replayed, want)
				}
				fresh := a.Run(w.input(), mode)
				if !reflect.DeepEqual(got.Moves, fresh.Moves) || got.Deferred != fresh.Deferred ||
					got.Initial != fresh.Initial || got.Final != fresh.Final || got.Floor != fresh.Floor ||
					got.Evaluated != fresh.Evaluated {
					t.Fatalf("op %d: %v run of the kept problem gives %s (%d deferred, %+v -> %+v, floor %+v, %d evaluated), from scratch %s (%d deferred, %+v -> %+v, floor %+v, %d evaluated)",
						i/3, mode, FormatMoves(got.Moves), got.Deferred, got.Initial, got.Final, got.Floor, got.Evaluated,
						FormatMoves(fresh.Moves), fresh.Deferred, fresh.Initial, fresh.Final, fresh.Floor, fresh.Evaluated)
				}
				last, lastMode, changed = got, mode, false
			}
		}
	})
}
