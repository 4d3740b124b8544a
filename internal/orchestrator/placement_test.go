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
// marked stale — that its coord assignment node holds exactly that inversion.
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
	cfg := baseConfig(shard.SecondaryOnly, shards, 2)
	cfg.HomeRegion = "r1"
	fleet := topology.Build(topology.Spec{Regions: []topology.RegionID{"r1"}, MachinesPerRegion: servers})
	loop := sim.NewLoop(1)
	store := coord.NewStore()
	o := New(loop, store, discovery.NewService(loop, nil), rpcnet.NewNetwork(loop, fleet),
		appserver.NewDirectory(), fleet, cfg, 1)
	sess := store.NewSession()
	machines := fleet.MachinesInRegion("r1")
	for i := 0; i < servers; i++ {
		id := shard.ServerID(fmt.Sprintf("srv%04d", i))
		if err := store.CreateAll(o.paths.ServerNode(id), []byte(machines[i].ID), sess); err != nil {
			b.Fatal(err)
		}
	}
	mustEnsure(store, o.paths.AssignPath)
	o.syncMembership()
	home := make([]int, shards)
	for i, id := range o.order {
		home[i] = 2 * i % servers
		o.addReplica(o.shards[id], o.byID[home[i]].id, shard.RoleSecondary)
		o.addReplica(o.shards[id], o.byID[home[i]+1].id, shard.RoleSecondary)
	}
	o.publish()
	return o, home
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

// BenchmarkAllocateIncremental drives the allocation path alone on the same
// worlds: one op re-homes one replica, which bumps the input epoch, so solve
// runs buildInput and allocator.Run afresh on a problem one move away from the
// last. Today its cost grows with the shard count; an incremental allocation
// is what would make the two sizes read alike.
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
}
