package orchestrator

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/appserver"
	"shardmanager/internal/cluster"
	"shardmanager/internal/coord"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// TestPublishedDeltasMatchSnapshotDiffs scripts every kind of placement
// mutation — initial executeDiff adds, a drain's graceful and
// make-before-break migrations, reconcileRoles after a server dies, the
// emergency re-add, DemotePrimaries and a sanitize repair — under
// auditPublications: each publication's delta must be exactly
// the Diff of the AssignmentSnapshots around it, the snapshot must validate as
// a whole, the per-server index must equal the scans it replaced, and discovery
// must hold that same map.
func TestPublishedDeltasMatchSnapshotDiffs(t *testing.T) {
	cfg := baseConfig(shard.PrimarySecondary, 10, 2)
	cfg.FailoverGrace = 20 * time.Second
	w := buildWorld(t, []topology.RegionID{"r1"}, 5, cfg)
	au := auditPublications(t, w)
	settle, step := au.settle, au.step

	step("initial placement", 1, func() { settle(3 * time.Minute) })
	assertConverged(t, w, 2)

	primaryOf := func(s shard.ID) shard.ServerID {
		t.Helper()
		srv, ok := au.last.Primary(s)
		if !ok {
			t.Fatalf("%s has no primary", s)
		}
		return srv
	}
	// A drain moves primaries gracefully and secondaries make-before-break.
	drained := primaryOf("s000")
	step("drain", 2, func() {
		w.orch.Drain(drained, nil)
		settle(3 * time.Minute)
		w.orch.CancelDrain(drained)
	})
	// A dead server's primaries are demoted in place (reconcileRoles), a
	// secondary is promoted after the hold, and the emergency allocation
	// re-adds the lost replicas.
	victim := primaryOf("s001")
	step("server death", 3, func() {
		w.managers["r1"].KillMachine(w.machineOf(t, victim))
		settle(3 * time.Minute)
	})
	step("demote primaries", 1, func() {
		w.orch.DemotePrimaries(primaryOf("s002"))
		settle(time.Minute)
	})
	// A planning bug leaves a shard with a moved replica listed twice: the
	// repair collapses the duplicate and the entry still goes out changed.
	step("sanitize repair", 1, func() {
		ss := w.orch.shards["s003"]
		spare := shard.ServerID("")
		for id, st := range w.orch.servers {
			if st.alive && ss.find(id) == -1 && (spare == "" || id < spare) {
				spare = id
			}
		}
		w.orch.rehomeReplica(ss, 1, spare)
		w.orch.addReplica(ss, spare, ss.replicas[1].Role)
		w.orch.publish()
		if len(ss.replicas) != 2 || au.last.Replicas("s003")[1].Server != spare {
			t.Fatalf("after repair: replicas %+v, published %+v", ss.replicas, au.last.Replicas("s003"))
		}
	})
	// A shard's replica count is configuration: no publication removes an
	// entry.
	if au.removals != 0 {
		t.Fatalf("removals = %d", au.removals)
	}
}

// TestPublishResyncsAfterForeignPublish: when another publisher's version
// lands in discovery between two of this orchestrator's publications, its
// next delta cannot chain; it must notice and resend its whole map.
func TestPublishResyncsAfterForeignPublish(t *testing.T) {
	w := buildWorld(t, []topology.RegionID{"r1"}, 4, baseConfig(shard.PrimarySecondary, 6, 2))
	w.loop.RunFor(3 * time.Minute)
	foreign := &shard.Map{App: "app", Entries: map[shard.ID][]shard.Assignment{}}
	foreign.Version, foreign.Gen = 1, w.store.NextEpoch()
	foreign.Entries["elsewhere"] = []shard.Assignment{{Server: "x", Role: shard.RolePrimary}}
	w.disc.Publish(foreign.Diff(nil, nil))

	srv, _ := w.orch.AssignmentSnapshot().Primary("s000")
	w.orch.DemotePrimaries(srv)
	want := w.orch.AssignmentSnapshot()
	if got := w.disc.Latest("app").Map(); got.Version != want.Version || !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Fatalf("discovery holds v%d %+v, orchestrator published v%d %+v", got.Version, got.Entries, want.Version, want.Entries)
	}
}

// TestStalledAssignmentWriteHealsOnNextPublish: a coordination-store write
// stall (what the stall(coord) fault installs) covers a migration, so neither
// server's assignment node learns of it; the next publication after the stall
// heals changes nothing on either server — here, nothing at all — yet it must
// bring both nodes up to date: a restarted server restores its shards from
// that node alone.
func TestStalledAssignmentWriteHealsOnNextPublish(t *testing.T) {
	cfg := baseConfig(shard.PrimarySecondary, 8, 2)
	cfg.AllocInterval = time.Hour // after the initial placement, only the scripted moves
	w := buildWorld(t, []topology.RegionID{"r1"}, 4, cfg)
	w.loop.RunFor(2 * time.Minute) // servers come up
	w.orch.allocate(allocator.Periodic)
	w.loop.RunFor(3 * time.Minute)
	assertConverged(t, w, 2)
	m := w.orch.AssignmentSnapshot()

	// Move s000's secondary from one server to another that does not hold it.
	var from, to shard.ServerID
	for _, a := range m.Replicas("s000") {
		if a.Role == shard.RoleSecondary {
			from = a.Server
		}
	}
	for _, st := range w.orch.byID {
		if to == "" && w.orch.shards["s000"].find(st.id) == -1 {
			to = st.id
		}
	}
	if from == "" || to == "" {
		t.Fatalf("no usable move in %+v", m.Entries)
	}
	persisted := func(srv shard.ServerID) string {
		data, _, err := w.store.Get(appserver.DefaultPaths("app").AssignNode(srv))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	w.store.SetWriteGate(func(op, path string) error { return coord.ErrUnavailable })
	w.orch.executeDiff(&allocator.Result{Moves: []allocator.ReplicaMove{{Shard: "s000", From: from, To: to}}})
	w.loop.RunFor(time.Minute)
	if got := w.orch.AssignmentSnapshot().Replicas("s000"); got[0].Server != to && got[1].Server != to {
		t.Fatalf("migration did not commit: %+v", got)
	}
	if !strings.Contains(persisted(from), "s000 ") || strings.Contains(persisted(to), "s000 ") {
		t.Fatal("the stalled writes went through; the test proves nothing")
	}
	w.store.SetWriteGate(nil)

	w.orch.publish() // changes no entry at all
	if strings.Contains(persisted(from), "s000 ") || !strings.Contains(persisted(to), "s000 s\n") {
		t.Fatalf("after the healing publication: source node %q, target node %q", persisted(from), persisted(to))
	}

	// With the control plane down, the target restarts and must come back
	// holding s000 from its persisted assignment.
	w.loop.RunFor(time.Minute)
	w.orch.Stop()
	mgr := w.managers["r1"]
	mgr.Submit(cluster.Operation{Container: cluster.ContainerID(to), Negotiable: false, Reason: "restart"})
	w.loop.RunFor(10 * time.Minute)
	srv := w.dir.Lookup(to)
	if srv == nil {
		t.Fatal("server did not come back")
	}
	if !srv.HoldsActive("s000") {
		t.Fatalf("restarted target restored %v, without s000", srv.Shards())
	}
}

// TestAssignmentSnapshotFollowsThePlacement: AssignmentSnapshot hands out one
// map that the orchestrator keeps current. After a write through each
// mutator, with no publication between, and after a publication, it is the
// same map as before, its entries are the replica lists, it carries the last
// published version, and reading it allocates nothing. The whole-map resend
// stamps its generation on a copy, not on the kept map.
func TestAssignmentSnapshotFollowsThePlacement(t *testing.T) {
	o := benchServers(t, baseConfig(shard.PrimarySecondary, 4, 2), []topology.RegionID{"r1"}, 6)
	srv := func(i int) shard.ServerID { return o.byID[i].id }
	kept := o.AssignmentSnapshot()
	check := func(what string) {
		t.Helper()
		m := o.AssignmentSnapshot()
		if m != kept {
			t.Fatalf("%s: the snapshot is a different map", what)
		}
		want := map[shard.ID][]shard.Assignment{}
		for _, id := range o.order {
			if reps := o.shards[id].replicas; len(reps) > 0 {
				want[id] = reps
			}
		}
		if m.Version != o.version || !reflect.DeepEqual(m.Entries, want) {
			t.Fatalf("%s: snapshot v%d %+v, want v%d %+v", what, m.Version, m.Entries, o.version, want)
		}
		if n := testing.AllocsPerRun(10, func() { _ = o.AssignmentSnapshot() }); n != 0 {
			t.Fatalf("%s: a snapshot read allocates %v times", what, n)
		}
	}
	check("empty")
	for _, p := range []struct {
		id   shard.ID
		reps []shard.Assignment
	}{
		{"s000", []shard.Assignment{{Server: srv(0), Role: shard.RolePrimary}, {Server: srv(1), Role: shard.RoleSecondary}}},
		{"s001", []shard.Assignment{{Server: srv(2), Role: shard.RolePrimary}, {Server: srv(3), Role: shard.RoleSecondary}}},
		{"s002", []shard.Assignment{{Server: srv(4), Role: shard.RoleSecondary}, {Server: srv(5), Role: shard.RoleSecondary}}},
		{"s003", []shard.Assignment{{Server: srv(0), Role: shard.RolePrimary}, {Server: srv(2), Role: shard.RoleSecondary}}},
	} {
		for _, a := range p.reps {
			o.addReplica(o.shards[p.id], a.Server, a.Role)
			check("place " + string(p.id))
		}
	}
	o.publish()
	check("first publish")

	o.addReplica(o.shards["s000"], srv(2), shard.RoleSecondary)
	check("add")
	// A reader's append copies the entry rather than write into the placement.
	s001 := o.shards["s001"]
	_ = append(kept.Entries["s001"], shard.Assignment{Server: srv(5)})
	if len(s001.replicas) != 2 || cap(kept.Entries["s001"]) != 2 {
		t.Fatalf("an append to the snapshot's entry reached the placement: %+v", s001.replicas)
	}
	o.rehomeReplica(s001, 1, srv(4))
	check("move")
	o.setRole(o.shards["s002"], 0, shard.RolePrimary)
	check("promotion")
	s003 := o.shards["s003"]
	o.addReplica(s003, srv(0), shard.RoleSecondary) // a second copy on the primary's server
	check("duplicate add")
	o.sanitizeReplicas(s003) // its removeReplica is the only write
	if len(s003.replicas) != 2 {
		t.Fatalf("sanitize left %+v", s003.replicas)
	}
	check("sanitize")
	o.publish()
	check("publish")

	// Another publisher lands in discovery: the next publication resends the
	// whole map, stamped with its generation.
	foreign := &shard.Map{App: "app", Version: 1, Gen: o.store.NextEpoch(),
		Entries: map[shard.ID][]shard.Assignment{"elsewhere": {{Server: "x", Role: shard.RolePrimary}}}}
	o.disc.Publish(foreign.Diff(nil, nil))
	o.rehomeReplica(o.shards["s000"], 1, srv(5))
	o.publish()
	check("resend")
	if got := o.disc.Latest("app"); got.Version != kept.Version || got.Gen != o.gen {
		t.Fatalf("discovery holds v%d gen %d, want the resent v%d gen %d", got.Version, got.Gen, kept.Version, o.gen)
	}
	if kept.Gen != 0 {
		t.Fatalf("the resend stamped gen %d on the kept snapshot", kept.Gen)
	}
}

// bytesOnce returns the bytes f allocates.
func bytesOnce(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPublishBytesDoNotGrowWithTheNode: a publication of one move rewrites
// the two assignment nodes it touched, but encodes them into the
// orchestrator's one buffer and the store copies them into the nodes' own
// bytes, so the bytes it allocates do not depend on how big a node is. On
// benchPlacement's world over 120 servers, a node holds 50 shards at 3k shards
// and 500 at 30k. A first pass of 100 one-move publications lets a node that
// grows past the room its creation gave it grow once; a second pass then
// allocates within 10% as many bytes per publication at both sizes. The move
// itself, read back through AssignmentSnapshot and not yet published,
// allocates exactly as many bytes at both sizes: the snapshot is patched, not
// rebuilt.
func TestPublishBytesDoNotGrowWithTheNode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 30k-shard world")
	}
	const servers, publishes = 120, 100
	perPublish, perMove := map[int]float64{}, map[int]float64{}
	for _, shards := range []int{3000, 30000} {
		o, home := benchPlacement(t, shards, servers)
		move := func(i int) {
			home[i] = (home[i] + 2) % servers
			o.rehomeReplica(o.shards[o.order[i]], 0, o.byID[home[i]].id)
			_ = o.AssignmentSnapshot()
		}
		pass := func() {
			for i := range publishes {
				move(i)
				o.publish()
			}
		}
		pass()
		perPublish[shards] = float64(bytesOnce(pass)) / publishes
		var moved uint64
		for i := range publishes {
			moved += bytesOnce(func() { move(i) })
			o.publish()
		}
		perMove[shards] = float64(moved) / publishes
	}
	small, large := perPublish[3000], perPublish[30000]
	if large > 1.1*small || small > 1.1*large {
		t.Errorf("a one-move publication allocates %.0f bytes with 500 shards per node, %.0f with 50", large, small)
	}
	if perMove[3000] != perMove[30000] {
		t.Errorf("a one-move change allocates %.0f bytes at 30k shards, %.0f at 3k", perMove[30000], perMove[3000])
	}
	t.Logf("bytes per one-move publication: %.0f with 50 shards per node, %.0f with 500; per move before its publication: %.0f and %.0f",
		small, large, perMove[3000], perMove[30000])
}
