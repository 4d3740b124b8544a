package orchestrator

import (
	"reflect"
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
