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
		}
	}
	if started != w.orch.inFlight {
		t.Fatalf("%s: %d migrations have left the queue, %d are in flight", when, started, w.orch.inFlight)
	}
}

// pubAudit checks every publication of one orchestrator; see auditPublications.
type pubAudit struct {
	t                   *testing.T
	w                   *world
	last                *shard.Map // the snapshot at the last publication
	publishes, removals int
}

// auditPublications hooks w's orchestrator so that every publication must (a)
// carry exactly the Diff of the AssignmentSnapshots around it, (b) announce
// the snapshot's entry count and (c) pass checkIndex.
func auditPublications(t *testing.T, w *world) *pubAudit {
	au := &pubAudit{t: t, w: w, last: w.orch.AssignmentSnapshot()}
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
			au.last = after
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
	if len(w.orch.migrationQueue) == 0 || w.orch.inFlight != 1 {
		t.Fatalf("queue %d, in flight %d: nothing queued behind the cap", len(w.orch.migrationQueue), w.orch.inFlight)
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

// benchPlacement builds an orchestrator with the given numbers of live
// servers (one region) and two-replica shards, places the replicas
// round-robin through the mutators, without an allocator run, and publishes. Replica 0 of shard i
// sits on the even-numbered server home[i], replica 1 on the odd one after it;
// moving replica 0 two servers along never lands it on its sibling. The number
// of replicas per server is the same at every size the benchmarks use, so an
// assignment node costs the same to rewrite.
func benchPlacement(b *testing.B, shards, servers int) (*Orchestrator, []int) {
	o := benchServers(b, baseConfig(shard.SecondaryOnly, shards, 2), []topology.RegionID{"r1"}, servers)
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
			o.servers[a.Server].load[id] = loads[i]
		}
		o.markShard(ss)
	}
	o.touch()
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

// BenchmarkAllocateIncremental drives the allocation path alone. On the same
// worlds as BenchmarkMoveAndPublish, one op re-homes one replica, which bumps
// the input epoch, so solve refreshes the kept problem and runs it afresh on a
// problem one move away from the last. The lb_churn row is that workload's
// problem — 6k two-replica shards over 3×100 servers, loads spread 20x, a move
// cap of 30 and a half-point balance band — with every shard's load redrawn
// (15% noise) between ops, so each op restates every load slot and the search
// runs into the move cap. Five parent and six change runs of -benchtime=20x
// on a 2-vCPU host, parent (buildInput and a from-scratch allocator.Run) →
// change: shards=3k 8.2–10.1 → 5.4–6.8 ms/op and 9,214 → 135 allocs/op;
// shards=30k 109–152 → 57–75 ms/op and 83,917 → 947 allocs/op, most of what
// is left being the search over 1,200 buckets that all hold replicas whose
// spread no target can fix; lb_churn 11.8–15.5 → 4.4–6.2 ms/op and 15,058 →
// 158 allocs/op, with 7,676 evals/op on both sides.
func BenchmarkAllocateIncremental(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			o, home := benchPlacement(b, size.shards, size.servers)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				i := n % size.shards
				home[i] = (home[i] + 2) % size.servers
				o.rehomeReplica(o.shards[o.order[i]], 0, o.byID[home[i]].id)
				if o.solve(allocator.Periodic) == nil {
					b.Fatal("no allocation")
				}
			}
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
		evals := 0
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			setLoads(o, draws[n%len(draws)])
			res := o.solve(allocator.Periodic)
			if res == nil {
				b.Fatal("no allocation")
			}
			evals += res.Evaluated
		}
		b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	})
}

// TestFreshSolveAllocationsDoNotGrowWithShards: a fresh periodic solve on a
// settled world, after a few load and placement changes, allocates what the
// changes and the search's moves need and nothing per shard or server: the
// count at 30k shards is within 2x of the count at 3k. Allocation counts
// repeat exactly, so the gate is deterministic.
func TestFreshSolveAllocationsDoNotGrowWithShards(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 30k-shard world")
	}
	allocs := map[int]float64{}
	for _, shards := range []int{3000, 30000} {
		cfg := baseConfig(shard.SecondaryOnly, shards, 2)
		cfg.ServerCapacity = topology.Capacity{topology.ResourceCPU: 200, topology.ResourceShardCount: 1000}
		o := spreadPlacement(t, cfg, shards/150)
		heavy := topology.Capacity{topology.ResourceCPU: 4, topology.ResourceShardCount: 1}
		light := topology.Capacity{topology.ResourceCPU: 1, topology.ResourceShardCount: 1}
		n := 0
		allocs[shards] = testing.AllocsPerRun(20, func() {
			n++
			for k := range 3 {
				ss := o.shards[o.order[(7*n+k)%shards]]
				load := heavy
				if n%2 == 0 {
					load = light
				}
				o.servers[ss.replicas[1].Server].load[ss.cfg.ID] = load
				o.markShard(ss)
			}
			// Swap two shards' first replicas, which keeps every server's
			// count and every shard's spread.
			a, b := o.shards[o.order[n%shards]], o.shards[o.order[(n+3)%shards]]
			sa, sb := a.replicas[0].Server, b.replicas[0].Server
			o.rehomeReplica(a, 0, sb)
			o.rehomeReplica(b, 0, sa)
			o.touch()
			if o.solve(allocator.Periodic) == nil {
				t.Fatal("no allocation")
			}
		})
	}
	if allocs[30000] > 2*allocs[3000] {
		t.Fatalf("a fresh solve allocates %.0f times at 30k shards, %.0f at 3k: more than 2x", allocs[30000], allocs[3000])
	}
	t.Logf("allocations per fresh solve: %.0f at 3k shards, %.0f at 30k", allocs[3000], allocs[30000])
}
