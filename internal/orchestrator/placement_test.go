package orchestrator

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/appserver"
	"shardmanager/internal/coord"
	"shardmanager/internal/discovery"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
)

// The three scans the per-server index replaced, kept as its reference
// implementation over an AssignmentSnapshot: each walks every replica list to
// answer a question about one server.

// refShardsOnServer is the scan ShardsOnServer was.
func refShardsOnServer(m *shard.Map, id shard.ServerID) int {
	n := 0
	for _, as := range m.Entries {
		for _, a := range as {
			if a.Server == id {
				n++
			}
		}
	}
	return n
}

// refAliveReplicas is the scan AliveReplicas was.
func refAliveReplicas(o *Orchestrator, m *shard.Map, server shard.ServerID) map[shard.ID]int {
	out := make(map[shard.ID]int)
	for id, as := range m.Entries {
		onServer := false
		alive := 0
		for _, a := range as {
			if a.Server == server {
				onServer = true
			}
			if st := o.servers[a.Server]; st != nil && st.alive {
				alive++
			}
		}
		if onServer {
			out[id] = alive
		}
	}
	return out
}

// refShardsOn is the scan shardsOn was: the shards with a replica on the
// server, in configuration order.
func refShardsOn(o *Orchestrator, m *shard.Map, server shard.ServerID) []shard.ID {
	var out []shard.ID
	for _, id := range o.order {
		for _, a := range m.Entries[id] {
			if a.Server == server {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// refSyncWant is the scan that built syncServer's want — the snapshot
// inverted for one server, which is also what its assignment node must hold.
func refSyncWant(m *shard.Map, id shard.ServerID) map[shard.ID]shard.Role {
	want := make(map[shard.ID]shard.Role)
	for sid, as := range m.Entries {
		for _, a := range as {
			if a.Server == id {
				want[sid] = a.Role
				break
			}
		}
	}
	return want
}

// refIndex is a by-name scan of the snapshot for one server: its entries in
// the order of the shards' names, which is what its index must hold.
func refIndex(m *shard.Map, id shard.ServerID) []appserver.AssignEntry {
	ids := make([]shard.ID, 0, len(m.Entries))
	for sid := range m.Entries {
		ids = append(ids, sid)
	}
	slices.Sort(ids)
	var out []appserver.AssignEntry
	for _, sid := range ids {
		for _, a := range m.Entries[sid] {
			if a.Server == id {
				out = append(out, appserver.AssignEntry{Shard: sid, Role: a.Role})
				break
			}
		}
	}
	return out
}

// checkIndex requires, for every server the orchestrator knows, that its
// index is the snapshot inverted and sorted by name, that the per-server
// questions answer as their reference scans do, and — unless the node is
// marked stale — that its coord assignment node holds exactly that inversion;
// and, for every shard, that each replica's host is its server by name.
func checkIndex(t *testing.T, w *world, when string) {
	t.Helper()
	m := w.orch.AssignmentSnapshot()
	if err := m.Validate(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	for id, st := range w.orch.servers {
		want := refSyncWant(m, id)
		if ref := refIndex(m, id); !slices.Equal(st.shards, ref) {
			t.Fatalf("%s: %s index %v, a by-name scan of the replica lists says %v", when, id, st.shards, ref)
		}
		var on []shard.ID
		for _, ss := range w.orch.shardsOn(st) {
			on = append(on, ss.cfg.ID)
		}
		if ref := refShardsOn(w.orch, m, id); !slices.Equal(on, ref) {
			t.Fatalf("%s: shardsOn(%s) = %v, scan says %v", when, id, on, ref)
		}
		if got, ref := w.orch.ShardsOnServer(id), refShardsOnServer(m, id); got != ref {
			t.Fatalf("%s: ShardsOnServer(%s) = %d, scan says %d", when, id, got, ref)
		}
		if got, ref := w.orch.AliveReplicas(id), refAliveReplicas(w.orch, m, id); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: AliveReplicas(%s) = %v, scan says %v", when, id, got, ref)
		}
		if st.nodeStale {
			continue
		}
		data, _, err := w.store.Get(w.orch.paths.AssignNode(id))
		if err != nil || string(data) != string(appserver.EncodeAssignment(want)) {
			t.Fatalf("%s: %s node (not marked stale) holds %q (%v), want %q", when, id, data, err, appserver.EncodeAssignment(want))
		}
	}
	// Every replica's host is its server found by name.
	for id, ss := range w.orch.shards {
		if len(ss.hosts) != len(ss.replicas) {
			t.Fatalf("%s: %s has %d replicas and %d hosts", when, id, len(ss.replicas), len(ss.hosts))
		}
		for i, a := range ss.replicas {
			if ss.hosts[i] != w.orch.servers[a.Server] {
				t.Fatalf("%s: %s replica %d is on %s, its host is another server", when, id, i, a.Server)
			}
		}
	}
	// A queued migration's source keeps its replica until the move commits,
	// after the migration leaves the queue: so a server that holds no shard
	// is the source of none, and checkDrainsDone needs no queue scan.
	for _, mg := range w.orch.migrationQueue {
		if w.orch.shards[mg.shard].find(mg.from) == -1 {
			t.Fatalf("%s: %s's migration from %s is queued, but %s holds no replica of it", when, mg.shard, mg.from, mg.from)
		}
	}
	// Every migration that left the queue, and no other, is in flight.
	started := 0
	for _, ss := range w.orch.shards {
		if ss.mig != nil && ss.mig.phase != queued {
			started++
			if !slices.Contains(w.orch.inFlight, ss.mig) {
				t.Fatalf("%s: %s's migration has left the queue but is not in flight", when, ss.mig.shard)
			}
		}
	}
	if started != len(w.orch.inFlight) {
		t.Fatalf("%s: %d migrations have left the queue, %d are in flight", when, started, len(w.orch.inFlight))
	}
}

// pubAudit checks every publication of one orchestrator; see auditPublications.
type pubAudit struct {
	t                   *testing.T
	w                   *world
	last                *shard.Map // a Clone of the snapshot at the last publication
	publishes, removals int
}

// auditPublications hooks w's orchestrator so that every publication must (a)
// carry exactly the Diff of the AssignmentSnapshots around it, (b) announce
// the snapshot's entry count and (c) pass checkIndex.
func auditPublications(t *testing.T, w *world) *pubAudit {
	au := &pubAudit{t: t, w: w, last: w.orch.AssignmentSnapshot().Clone()}
	w.orch.AddHooks(Hooks{
		MapPublished: func(version int64, entries int) {
			if m := w.orch.AssignmentSnapshot(); version != m.Version || entries != len(m.Entries) {
				t.Fatalf("announced v%d with %d entries, snapshot is v%d with %d", version, entries, m.Version, len(m.Entries))
			}
		},
		MapDelta: func(d *shard.Delta) {
			au.publishes++
			au.removals += len(d.Removed)
			after := w.orch.AssignmentSnapshot()
			want := after.Diff(au.last, nil)
			got := &shard.Delta{App: d.App, FromVersion: d.FromVersion, ToVersion: d.ToVersion}
			for _, e := range d.Changed {
				got.Set(e.Shard, e.Assignments)
			}
			got.Removed = append(got.Removed, d.Removed...)
			sort.Slice(got.Changed, func(i, j int) bool { return got.Changed[i].Shard < got.Changed[j].Shard })
			sort.Slice(got.Removed, func(i, j int) bool { return got.Removed[i] < got.Removed[j] })
			if d.Gen == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("publication %d (g%d):\n delta %+v\n diff  %+v", au.publishes, d.Gen, got, want)
			}
			checkIndex(t, w, fmt.Sprintf("publication %d", au.publishes))
			au.last = after.Clone()
		},
	})
	return au
}

// settle runs the world for d, then requires discovery to hold the last
// publication and the index to hold between publications too.
func (au *pubAudit) settle(d time.Duration) {
	au.t.Helper()
	au.w.loop.RunFor(d)
	if got := au.w.disc.Latest("app").Map(); !reflect.DeepEqual(got.Entries, au.last.Entries) || got.Version != au.last.Version {
		au.t.Fatalf("discovery holds v%d %+v, last publication was v%d %+v", got.Version, got.Entries, au.last.Version, au.last.Entries)
	}
	checkIndex(au.t, au.w, "settled")
}

// step runs do and requires it to have caused at least min publications.
func (au *pubAudit) step(what string, min int, do func()) {
	au.t.Helper()
	was := au.publishes
	do()
	if au.publishes-was < min {
		au.t.Fatalf("%s: %d publications, want at least %d", what, au.publishes-was, min)
	}
}

// TestIndexTracksPlacementThroughOverlappingFaults overlaps a drain, a machine
// kill, a false-dead session expiry with reconnect and a coord write stall, so
// that migrations commit, replicas are re-homed, roles fail over, a rejoin
// sync runs and assignment writes are refused all in the same minute — under
// auditPublications.
func TestIndexTracksPlacementThroughOverlappingFaults(t *testing.T) {
	cfg := baseConfig(shard.PrimarySecondary, 16, 2)
	cfg.FailoverGrace = 20 * time.Second
	cfg.MaxConcurrentMigrations = 2
	w := buildWorld(t, []topology.RegionID{"r1"}, 6, cfg)
	au := auditPublications(t, w)
	au.step("initial placement", 1, func() { au.settle(3 * time.Minute) })
	assertConverged(t, w, 2)

	drained, killed, expired := w.orch.byID[0], w.orch.byID[1], w.orch.byID[2]
	killedMachine := w.machineOf(t, killed.id)
	au.step("overlapping faults", 5, func() {
		w.orch.Drain(drained.id, nil)
		w.loop.RunFor(2 * time.Second)
		w.managers["r1"].KillMachine(killedMachine)
		w.store.SetWriteGate(func(op, path string) error { return coord.ErrUnavailable })
		if !w.host.ExpireSession(expired.id, 10*time.Second) {
			t.Fatal("ExpireSession found no session")
		}
		w.loop.RunFor(40 * time.Second)
		stale := 0
		for _, st := range w.orch.byID {
			if st.nodeStale {
				stale++
			}
		}
		if stale == 0 {
			t.Fatal("the write stall left no node stale; the test proves nothing")
		}
		checkIndex(t, w, "stalled")
		w.store.SetWriteGate(nil)
		w.managers["r1"].RestoreMachine(killedMachine)
		au.settle(5 * time.Minute)
		w.orch.CancelDrain(drained.id)
	})
	if !expired.alive || w.orch.ShardsOnServer(drained.id) != 0 {
		t.Fatalf("expired server alive=%v, drained server holds %d", expired.alive, w.orch.ShardsOnServer(drained.id))
	}
	if au.removals != 0 {
		t.Fatalf("removals = %d", au.removals)
	}
	assertConverged(t, w, 2)
}

// TestStopReleasesQueuedMigrations: Stop discards the migration queue, so it
// must also release the queued shards — otherwise, after Start, every
// allocation, role reconciliation and demotion skips them for ever, the drain
// of their server never completes and their migration span never ends.
func TestStopReleasesQueuedMigrations(t *testing.T) {
	cfg := baseConfig(shard.PrimaryOnly, 12, 1)
	cfg.MaxConcurrentMigrations = 1
	cfg.ShardLoadTime = 2 * time.Second
	w := buildWorld(t, []topology.RegionID{"r1"}, 3, cfg)
	tr := trace.New()
	w.loop.SetTracer(tr)
	w.loop.RunFor(3 * time.Minute)
	assertConverged(t, w, 1)

	victim := w.orch.byID[0].id
	drained := false
	w.orch.Drain(victim, func() { drained = true })
	if len(w.orch.migrationQueue) == 0 || len(w.orch.inFlight) != 1 {
		t.Fatalf("queue %d, in flight %d: nothing queued behind the cap", len(w.orch.migrationQueue), len(w.orch.inFlight))
	}
	w.orch.Stop()
	w.loop.RunFor(time.Minute)
	w.orch.Start()
	w.loop.RunFor(10 * time.Minute)

	for id, ss := range w.orch.shards {
		if ss.mig != nil {
			t.Errorf("%s still holds a migration (%+v)", id, *ss.mig)
		}
	}
	if n := w.orch.ShardsOnServer(victim); n != 0 || !drained {
		t.Errorf("drained server still holds %d replicas, drain done = %v", n, drained)
	}
	for _, sp := range tr.FindSpans("orchestrator", "migration") {
		if !sp.Ended {
			t.Errorf("migration span of %s never ended", sp.Attr("shard"))
		}
	}
}

// TestAllocateSpanCoversTheSolve: with a tracer on, an allocation's span is
// open while its solve runs, so a trace timeline puts the search inside the
// allocation it belongs to, and every allocate span ends.
func TestAllocateSpanCoversTheSolve(t *testing.T) {
	w := buildWorld(t, []topology.RegionID{"r1", "r2"}, 3, baseConfig(shard.SecondaryOnly, 12, 2))
	tr := trace.New()
	w.loop.SetTracer(tr)
	solves := 0
	w.orch.solved = func(allocator.Mode, *allocator.Result) {
		solves++
		if w.orch.curAlloc == 0 {
			t.Fatal("a solve ran outside its allocation's span")
		}
	}
	w.loop.RunFor(3 * time.Minute)
	if solves == 0 {
		t.Fatal("no allocation solved")
	}
	for _, sp := range tr.FindSpans("orchestrator", "allocate") {
		if !sp.Ended {
			t.Error("an allocate span never ended")
		}
	}
}

// benchPlacement builds an orchestrator with the given numbers of live
// servers (one region) and two-replica shards, places the replicas
// round-robin through the mutators, without an allocator run, and publishes. Replica 0 of shard i
// sits on the even-numbered server home[i], replica 1 on the odd one after it;
// moving replica 0 two servers along never lands it on its sibling. The number
// of replicas per server is the same at every size the benchmarks use, so an
// assignment node costs the same to rewrite.
func benchPlacement(tb testing.TB, shards, servers int) (*Orchestrator, []int) {
	o := benchServers(tb, baseConfig(shard.SecondaryOnly, shards, 2), []topology.RegionID{"r1"}, servers)
	home := make([]int, shards)
	for i, id := range o.order {
		home[i] = 2 * i % servers
		o.addReplica(o.shards[id], o.byID[home[i]].id, shard.RoleSecondary)
		o.addReplica(o.shards[id], o.byID[home[i]+1].id, shard.RoleSecondary)
	}
	o.publish()
	return o, home
}

// benchServers builds an orchestrator for cfg with perRegion live servers in
// each region, registered through their liveness nodes, and no replica placed.
// Servers are named by region, so o.byID lists a region's servers together.
func benchServers(tb testing.TB, cfg Config, regions []topology.RegionID, perRegion int) *Orchestrator {
	cfg.HomeRegion = regions[0]
	fleet := topology.Build(topology.Spec{Regions: regions, MachinesPerRegion: perRegion})
	loop := sim.NewLoop(1)
	store := coord.NewStore()
	o := New(loop, store, discovery.NewService(loop, nil), rpcnet.NewNetwork(loop, fleet),
		appserver.NewDirectory(), fleet, cfg, 1)
	sess := store.NewSession()
	for _, r := range regions {
		for i, m := range fleet.MachinesInRegion(r) {
			id := shard.ServerID(fmt.Sprintf("%s-srv%04d", r, i))
			if len(regions) == 1 {
				id = shard.ServerID(fmt.Sprintf("srv%04d", i))
			}
			if err := store.CreateAll(o.paths.ServerNode(id), []byte(m.ID), sess); err != nil {
				tb.Fatal(err)
			}
		}
	}
	mustEnsure(store, o.paths.AssignPath)
	o.syncMembership()
	return o
}

// spreadPlacement builds benchServers' world over three regions for
// two-replica shards and places them settled for spread and balance: replica
// 0 of shard i in region i mod 3, replica 1 in the next region, each on its
// region's servers in turn. Every shard loads one CPU unless loads says
// otherwise. The solve at the end builds the kept problem.
func spreadPlacement(tb testing.TB, cfg Config, perRegion int) *Orchestrator {
	regions := []topology.RegionID{"r1", "r2", "r3"}
	o := benchServers(tb, cfg, regions, perRegion)
	next := make([]int, len(regions))
	for i, id := range o.order {
		for r := range 2 {
			reg := (i + r) % len(regions)
			o.addReplica(o.shards[id], o.byID[reg*perRegion+next[reg]].id, shard.RoleSecondary)
			next[reg] = (next[reg] + 1) % perRegion
		}
	}
	o.publish()
	if o.solve(allocator.Periodic) == nil {
		tb.Fatal("no allocation")
	}
	return o
}

// setLoads states shard i's measured load as loads[i], reported by every
// server holding a replica, the way collectLoads' apply holds a report.
func setLoads(o *Orchestrator, loads []topology.Capacity) {
	for i, id := range o.order {
		ss := o.shards[id]
		for _, a := range ss.replicas {
			o.holdLoad(ss, o.servers[a.Server], vector(o, loads[i]))
		}
	}
}

// benchSizes are the two worlds the placement benchmarks compare: ten times
// the shards on ten times the servers.
var benchSizes = []struct {
	name            string
	shards, servers int
}{{"shards=3k", 3000, 120}, {"shards=30k", 30000, 1200}}

// BenchmarkMoveAndPublish drives the orchestrator's move path alone on
// benchPlacement's world. One op re-homes one replica, publishes, and asks the
// two per-server questions of both servers; its cost must not depend on the
// shard count.
func BenchmarkMoveAndPublish(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			o, home := benchPlacement(b, size.shards, size.servers)
			b.ReportAllocs()
			b.ResetTimer()
			asked := 0
			for n := 0; n < b.N; n++ {
				i := n % size.shards
				from, to := o.byID[home[i]].id, o.byID[(home[i]+2)%size.servers].id
				home[i] = (home[i] + 2) % size.servers
				o.rehomeReplica(o.shards[o.order[i]], 0, to)
				o.publish()
				asked += o.ShardsOnServer(from) + o.ShardsOnServer(to) +
					len(o.AliveReplicas(from)) + len(o.AliveReplicas(to))
			}
			if asked == 0 {
				b.Fatal("the servers hold nothing")
			}
		})
	}
}

// BenchmarkAllocateIncremental drives the allocation path alone. On the
// worlds of BenchmarkMoveAndPublish and a 300k-shard one over 12,000 servers,
// one op re-homes one replica, so solve refreshes the kept problem and runs it
// afresh on a problem one move away from the last; an op whose solve replays
// the last result fails, since it would time no search. The lb_churn row is
// that workload's problem — 6k two-replica shards over 3×100 servers, loads
// spread 20x, a move cap of 30 and a half-point balance band — with every
// shard's load redrawn (15% noise) between ops, so each op restates every
// load slot and the search runs into the move cap. Every row reports
// evals/op. On benchPlacement's one-region worlds every spread violation is
// at its floor, so a fresh solve evaluates nothing. On a 2-vCPU host, parent
// (5 ops, with a 300k row added) → change (20 ops, two runs): shards=3k 4.6 →
// 1.1–1.3 ms/op, 60,928 → 0 evals/op; shards=30k 93 → 11–14 ms/op, 613,844 →
// 0; shards=300k 1,079 → 141–156 ms/op, 6,143,450 → 0, what is left being
// the passes over every entity that each stage makes; lb_churn 3.5–6.0 →
// 3.3–4.9 ms/op and 7,676 → 1,569 evals/op, since a grid applies every
// improving move it found.
func BenchmarkAllocateIncremental(b *testing.B) {
	sizes := append(benchSizes[:len(benchSizes):len(benchSizes)], struct {
		name            string
		shards, servers int
	}{"shards=300k", 300000, 12000})
	for _, size := range sizes {
		b.Run(size.name, func(b *testing.B) {
			o, home := benchPlacement(b, size.shards, size.servers)
			var prev *allocator.Result
			evals := 0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				i := n % size.shards
				home[i] = (home[i] + 2) % size.servers
				o.rehomeReplica(o.shards[o.order[i]], 0, o.byID[home[i]].id)
				prev = mustSolveFresh(b, o, prev)
				evals += prev.Evaluated
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
	b.Run("lb_churn", func(b *testing.B) {
		const shards, perRegion = 6000, 100
		cfg := baseConfig(shard.SecondaryOnly, shards, 2)
		cfg.Policy.MaxTotalMoves = 30
		cfg.Policy.MaxDiff = 0.005
		cfg.ServerCapacity = topology.Capacity{topology.ResourceCPU: 80, topology.ResourceShardCount: shards}
		rng := sim.NewRNG(1)
		base := make([]float64, shards)
		for i := range base {
			base[i] = 0.1 + 1.9*rng.Float64()
		}
		draws := make([][]topology.Capacity, 4)
		for d := range draws {
			draws[d] = make([]topology.Capacity, shards)
			for i := range draws[d] {
				noise := max(1+0.15*rng.NormFloat64(), 0.1)
				draws[d][i] = topology.Capacity{topology.ResourceCPU: base[i] * noise, topology.ResourceShardCount: 1}
			}
		}
		o := spreadPlacement(b, cfg, perRegion)
		var prev *allocator.Result
		evals := 0
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			setLoads(o, draws[n%len(draws)])
			prev = mustSolveFresh(b, o, prev)
			evals += prev.Evaluated
		}
		b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	})
}

// mustSolveFresh runs a periodic solve and fails when it replays: when it
// returns prev, the result of the solve before.
func mustSolveFresh(tb testing.TB, o *Orchestrator, prev *allocator.Result) *allocator.Result {
	res := o.solve(allocator.Periodic)
	if res == nil {
		tb.Fatal("no allocation")
	}
	if res == prev {
		tb.Fatal("the solve replayed the last result: no fresh solve was measured")
	}
	return res
}

// TestFreshSolveEvaluationsDoNotGrowWithShards: on benchPlacement's world a
// shard's two replicas share its one region, a spread violation no placement
// can fix, so every violation stands at its floor: a fresh periodic solve
// after a replica is re-homed evaluates no candidate, at 3k shards as at 30k,
// and ends at its floor. Evaluation counts are exact, so the gate is by count;
// a solve that replays fails it.
func TestFreshSolveEvaluationsDoNotGrowWithShards(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 30k-shard world")
	}
	for _, size := range benchSizes {
		o, home := benchPlacement(t, size.shards, size.servers)
		var prev *allocator.Result
		for n := range 4 {
			i := 7 * n % size.shards
			home[i] = (home[i] + 2) % size.servers
			o.rehomeReplica(o.shards[o.order[i]], 0, o.byID[home[i]].id)
			prev = mustSolveFresh(t, o, prev)
			if prev.Evaluated != 0 || prev.Final != prev.Floor || prev.Floor.Exclusion != size.shards {
				t.Fatalf("%s, solve %d: %d evaluations, final %+v, floor %+v; want 0 evaluations and a final count at a floor of %d spread violations",
					size.name, n, prev.Evaluated, prev.Final, prev.Floor, size.shards)
			}
		}
	}
}

// TestMembershipChangeSolveBytesDoNotGrowWithShards: a server's death past
// its failover grace, and its return, restate the kept problem's buckets in
// place, so the solve after each allocates the same bytes at 30k shards as at
// 3k. spreadPlacement's worlds hold 100 replicas on every server at both
// sizes, so the dead server's replicas ask the same search of both. And a
// run's moves land in room the problem keeps: once a solve has emitted many
// moves, a fresh solve emitting as many allocates no more than one emitting a
// single move. Byte counts repeat exactly, so the gate is by equality.
func TestMembershipChangeSolveBytesDoNotGrowWithShards(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 30k-shard world")
	}
	type reading struct{ death, rejoin uint64 }
	got := map[int]reading{}
	for _, shards := range []int{3000, 30000} {
		cfg := baseConfig(shard.SecondaryOnly, shards, 2)
		cfg.FailoverGrace = 20 * time.Second
		cfg.ServerCapacity = topology.Capacity{topology.ResourceCPU: 200, topology.ResourceShardCount: 1000}
		o := spreadPlacement(t, cfg, shards/150)
		node := o.paths.ServerNode(o.byID[5].id)
		machine, _, err := o.store.Get(node)
		if err != nil {
			t.Fatal(err)
		}
		var prev *allocator.Result
		solve := func() (uint64, int) {
			t.Helper()
			n := bytesOnce(func() { prev = mustSolveFresh(t, o, prev) })
			return n, len(prev.Moves)
		}
		die := func() {
			t.Helper()
			if err := o.store.Delete(node, -1); err != nil {
				t.Fatal(err)
			}
			o.syncMembership()
			o.loop.RunFor(cfg.FailoverGrace + time.Second)
		}
		rejoin := func() {
			t.Helper()
			if err := o.store.Create(node, machine, nil); err != nil {
				t.Fatal(err)
			}
			o.syncMembership()
		}

		die()
		death, moves := solve()
		if moves < 50 {
			t.Fatalf("%d shards: the solve after a death emits %d moves, want the dead server's 100 replicas placed", shards, moves)
		}
		rejoin()
		rejoined, _ := solve()
		got[shards] = reading{death, rejoined}

		die()
		many, manyMoves := solve()
		rejoin()
		solve()
		// Replica 1 of the first shard joins replica 0's region: the one move
		// that mends the spread.
		ss := o.shards[o.order[0]]
		o.rehomeReplica(ss, 1, o.byID[1].id)
		one, oneMove := solve()
		if oneMove != 1 || manyMoves < 50 {
			t.Fatalf("%d shards: the solves emit %d and %d moves, want many and one", shards, manyMoves, oneMove)
		}
		if many > one {
			t.Errorf("%d shards: a warmed solve emitting %d moves allocates %d B, one emitting a single move %d B", shards, manyMoves, many, one)
		}
		t.Logf("%d shards: %d B after a death, %d B after the return; warmed, %d B for %d moves and %d B for one", shards, death, rejoined, many, manyMoves, one)
	}
	if got[3000] != got[30000] {
		t.Fatalf("the solves after a death and a return allocate %+v B at 3k shards and %+v B at 30k", got[3000], got[30000])
	}
}

// TestFreshSolveAllocationsDoNotGrowWithShards: a fresh periodic solve on a
// settled world, after a few load and placement changes, allocates what the
// changes and the search's moves need and nothing per shard or server: the
// count at 30k shards is within 2x of the count at 3k. Allocation counts
// repeat exactly, so the gate is deterministic; a solve that replays fails it.
func TestFreshSolveAllocationsDoNotGrowWithShards(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 30k-shard world")
	}
	allocs := map[int]float64{}
	for _, shards := range []int{3000, 30000} {
		cfg := baseConfig(shard.SecondaryOnly, shards, 2)
		cfg.ServerCapacity = topology.Capacity{topology.ResourceCPU: 200, topology.ResourceShardCount: 1000}
		o := spreadPlacement(t, cfg, shards/150)
		var prev *allocator.Result
		heavy := vector(o, topology.Capacity{topology.ResourceCPU: 4, topology.ResourceShardCount: 1})
		light := vector(o, topology.Capacity{topology.ResourceCPU: 1, topology.ResourceShardCount: 1})
		n := 0
		allocs[shards] = testing.AllocsPerRun(20, func() {
			n++
			for k := range 3 {
				ss := o.shards[o.order[(7*n+k)%shards]]
				load := heavy
				if n%2 == 0 {
					load = light
				}
				o.holdLoad(ss, o.servers[ss.replicas[1].Server], load)
			}
			// Swap two shards' first replicas, which keeps every server's
			// count and every shard's spread.
			a, b := o.shards[o.order[n%shards]], o.shards[o.order[(n+3)%shards]]
			sa, sb := a.replicas[0].Server, b.replicas[0].Server
			o.rehomeReplica(a, 0, sb)
			o.rehomeReplica(b, 0, sa)
			prev = mustSolveFresh(t, o, prev)
		})
	}
	if allocs[30000] > 2*allocs[3000] {
		t.Fatalf("a fresh solve allocates %.0f times at 30k shards, %.0f at 3k: more than 2x", allocs[30000], allocs[3000])
	}
	t.Logf("allocations per fresh solve: %.0f at 3k shards, %.0f at 30k", allocs[3000], allocs[30000])
}
