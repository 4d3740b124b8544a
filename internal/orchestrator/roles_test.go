package orchestrator

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/appserver"
	"shardmanager/internal/cluster"
	"shardmanager/internal/metrics"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// TestDeadPrimaryDemotedInMapImmediately: when a primary's server dies, the
// published map must never show two primaries — the dead replica is demoted in
// the same reconciliation that promotes the survivor.
func TestDeadPrimaryDemotedInMapImmediately(t *testing.T) {
	cfg := baseConfig(shard.PrimarySecondary, 8, 2)
	cfg.FailoverGrace = 10 * time.Minute // placement stays put; roles move
	w := buildWorld(t, []topology.RegionID{"r1", "r2"}, 4, cfg)
	w.loop.RunFor(5 * time.Minute)
	assertConverged(t, w, 2)

	m := w.orch.AssignmentSnapshot()
	prim, _ := m.Primary("s000")
	var mgr *cluster.Manager
	var cont cluster.Container
	for _, cm := range w.managers {
		if c, ok := cm.Container(cluster.ContainerID(prim)); ok {
			mgr, cont = cm, c
		}
	}
	mgr.KillMachine(cont.Machine)
	// Within seconds (not an allocation interval), the role must fail
	// over and the map must stay valid.
	w.loop.RunFor(5 * time.Second)
	m = w.orch.AssignmentSnapshot()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	newPrim, ok := m.Primary("s000")
	if !ok {
		t.Fatal("no primary after failover")
	}
	if newPrim == prim {
		t.Fatal("primary still the dead server")
	}
	// Every shard that had its primary on the dead server failed over.
	for _, id := range w.orch.ShardIDs() {
		p, ok := m.Primary(id)
		if !ok {
			t.Fatalf("shard %s lost its primary", id)
		}
		if p == prim {
			t.Fatalf("shard %s primary still on dead server", id)
		}
	}
}

// TestRestartedPrimaryComesBackAsSecondary: after the role failed over, the
// restarted server restores the *corrected* role from the persisted
// assignment — not its old primaryship.
func TestRestartedPrimaryComesBackAsSecondary(t *testing.T) {
	cfg := baseConfig(shard.PrimarySecondary, 6, 2)
	cfg.FailoverGrace = 10 * time.Minute
	w := buildWorld(t, []topology.RegionID{"r1", "r2"}, 3, cfg)
	w.loop.RunFor(5 * time.Minute)

	m := w.orch.AssignmentSnapshot()
	prim, _ := m.Primary("s000")
	var mgr *cluster.Manager
	var cont cluster.Container
	for _, cm := range w.managers {
		if c, ok := cm.Container(cluster.ContainerID(prim)); ok {
			mgr, cont = cm, c
		}
	}
	mgr.KillMachine(cont.Machine)
	w.loop.RunFor(30 * time.Second)
	mgr.RestoreMachine(cont.Machine)
	w.loop.RunFor(2 * time.Minute)

	srv := w.dir.Lookup(prim)
	if srv == nil {
		t.Fatal("server did not come back")
	}
	if role, ok := srv.Shards()["s000"]; ok && role == shard.RolePrimary {
		// It may have been re-promoted by reconciliation only if the
		// map agrees; the map itself must be consistent either way.
		m = w.orch.AssignmentSnapshot()
		if p, _ := m.Primary("s000"); p != prim {
			t.Fatalf("server believes it is primary but map says %s", p)
		}
	}
	if err := w.orch.AssignmentSnapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoredPrimaryOnlyReplicaIsConfirmedNotReroled: a primary-only
// server restarted inside the failover grace keeps its shards, restores them
// from the persisted assignment as unconfirmed primaries and loads them for
// LoadTime; the rejoin sync lands during that load. The published map never
// shows one of them as a secondary, no change_role is issued, and once the
// load completes each takes a write: the sync confirmed it while it loaded.
func TestRestoredPrimaryOnlyReplicaIsConfirmedNotReroled(t *testing.T) {
	cfg := baseConfig(shard.PrimaryOnly, 6, 1)
	cfg.FailoverGrace = 2 * time.Minute
	const load = 20 * time.Second
	w := buildWorldOf(t, []topology.RegionID{"r1"}, 3, cfg, func(s *appserver.Server) appserver.Application {
		s.LoadTime = load
		return newCountApp()
	})
	w.loop.RunFor(5 * time.Minute)
	assertConverged(t, w, 1)

	prim, _ := w.orch.AssignmentSnapshot().Primary("s000")
	var held []shard.ID
	for id, as := range w.orch.AssignmentSnapshot().Entries {
		if as[0].Server == prim {
			held = append(held, id)
		}
	}
	secondary, roleChanges := "", 0
	w.orch.AddHooks(Hooks{
		MapPublished: func(int64, int) {
			for id, as := range w.orch.AssignmentSnapshot().Entries {
				if as[0].Role != shard.RolePrimary && secondary == "" {
					secondary = fmt.Sprintf("%s on %s", id, as[0].Server)
				}
			}
		},
		RoleChanged: func(id shard.ID, srv shard.ServerID, from, to shard.Role) { roleChanges++ },
	})
	m := w.machineOf(t, prim)
	w.managers["r1"].KillMachine(m)
	w.loop.RunFor(30 * time.Second)
	w.managers["r1"].RestoreMachine(m)
	w.loop.RunFor(load + time.Minute)

	if secondary != "" {
		t.Fatalf("a primary-only map published a secondary: %s", secondary)
	}
	if roleChanges != 0 {
		t.Fatalf("%d change_role RPCs in a primary-only world", roleChanges)
	}
	srv := w.dir.Lookup(prim)
	if srv == nil {
		t.Fatalf("%s did not come back", prim)
	}
	for _, id := range held {
		if p, _ := w.orch.AssignmentSnapshot().Primary(id); p != prim {
			t.Fatalf("%s moved to %s: the restart was not inside the grace", id, p)
		}
		var resp appserver.Response
		srv.Serve(&appserver.Request{Shard: id, Write: true}, func(r appserver.Response) { resp = r })
		if !resp.OK {
			t.Fatalf("write to restored primary %s on %s: %+v", id, prim, resp)
		}
	}
}

// TestLostReplicaReplacedLive: a replica whose server stays dead past the
// grace is replaced on a live server, which actively holds it, and the shard
// keeps its configured replica count.
func TestLostReplicaReplacedLive(t *testing.T) {
	cfg := baseConfig(shard.SecondaryOnly, 6, 2)
	cfg.FailoverGrace = 20 * time.Second
	w := buildWorld(t, []topology.RegionID{"r1", "r2"}, 4, cfg)
	w.loop.RunFor(5 * time.Minute)
	assertConverged(t, w, 2)

	lost := w.orch.AssignmentSnapshot().Replicas("s000")[0].Server
	w.managers[w.net.Region(rpcnet.Endpoint(lost))].KillMachine(w.machineOf(t, lost))
	w.loop.RunFor(5 * time.Minute)
	m := w.orch.AssignmentSnapshot()
	if got := len(m.Replicas("s000")); got != 2 {
		t.Fatalf("after the loss: %d replicas", got)
	}
	for _, a := range m.Replicas("s000") {
		srv := w.dir.Lookup(a.Server)
		if a.Server == lost || srv == nil || !srv.HoldsActive("s000") {
			t.Fatalf("replica on %s not active", a.Server)
		}
	}
}

// TestRegionPreferenceChangeTriggersMigration: updating a shard's region
// preference moves it at the next periodic allocation (Fig 20's lever).
func TestRegionPreferenceChangeTriggersMigration(t *testing.T) {
	cfg := baseConfig(shard.PrimaryOnly, 12, 1)
	cfg.Policy.AffinityWeight = 300
	w := buildWorld(t, []topology.RegionID{"r1", "r2"}, 4, cfg)
	w.loop.RunFor(5 * time.Minute)

	for _, id := range w.orch.ShardIDs() {
		w.orch.SetRegionPreference(id, "r2", 300)
	}
	w.loop.RunFor(10 * time.Minute)
	m := w.orch.AssignmentSnapshot()
	for _, id := range w.orch.ShardIDs() {
		srv, _ := m.Primary(id)
		c := false
		for _, cm := range w.managers {
			if cm.Region == "r2" {
				if _, ok := cm.Container(cluster.ContainerID(srv)); ok {
					c = true
				}
			}
		}
		if !c {
			t.Fatalf("shard %s not migrated to r2 (on %s)", id, srv)
		}
	}
}

// TestMigrationTargetDiesMidFlight: a graceful migration whose target dies
// mid-protocol aborts and the shard is repaired by emergency allocation.
func TestMigrationTargetDiesMidFlight(t *testing.T) {
	cfg := baseConfig(shard.PrimaryOnly, 12, 1)
	cfg.FailoverGrace = 15 * time.Second
	cfg.ShardLoadTime = 10 * time.Second // long window to inject the failure
	cfg.Policy.AffinityWeight = 300
	w := buildWorld(t, []topology.RegionID{"r1", "r2"}, 4, cfg)
	w.loop.RunFor(5 * time.Minute)

	// Force migrations toward r2, then kill all of r2 mid-flight.
	for _, id := range w.orch.ShardIDs() {
		w.orch.SetRegionPreference(id, "r2", 300)
	}
	w.orch.allocate(allocator.Periodic)
	// Kill r2 during the migrations' state-load window (prepare_add has
	// been sent; add_shard has not), so the protocol aborts mid-flight.
	w.loop.RunFor(5 * time.Second)
	w.managers["r2"].FailRegion()
	w.loop.RunFor(10 * time.Minute)

	// All shards must end up assigned to live servers with a valid map.
	m := w.orch.AssignmentSnapshot()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, id := range w.orch.ShardIDs() {
		as := m.Replicas(id)
		if len(as) != 1 {
			t.Fatalf("shard %s has %d replicas", id, len(as))
		}
		if w.dir.Lookup(as[0].Server) == nil {
			t.Fatalf("shard %s stranded on dead server %s", id, as[0].Server)
		}
	}
	// The region failure must have been handled through the abort path
	// (failed migration RPCs) and/or emergency reallocation.
	if w.orch.FailedRPCs.Value() == 0 && w.orch.EmergencyRuns.Value() == 0 {
		t.Fatal("neither failed RPCs nor emergency runs after mid-flight region loss")
	}
}

// TestFailedRollbackRegistersOrphanBeforeEmergencyPlan: a graceful
// migration's add_shard on the target may execute though its reply is lost,
// and the rollback drop may fail the same way, leaving the target an active
// primary nobody knows about. The target must be a pending orphan by the time
// the migration is declared failed. That declaration runs an emergency
// allocation, and here that plan wants the shard (its secondary died mid-move).
// The plan must leave the shard alone. If it may place the lost secondary, it
// may place it on the orphan. The orphan's drop retry then takes the server as
// re-engaged and resumes the old primary beside it.
func TestFailedRollbackRegistersOrphanBeforeEmergencyPlan(t *testing.T) {
	cfg := baseConfig(shard.PrimarySecondary, 1, 2)
	cfg.FailoverGrace = 10 * time.Second
	cfg.ShardLoadTime = time.Minute // the secondary's grace runs out mid-move
	w := buildWorld(t, []topology.RegionID{"r1", "r2"}, 3, cfg)
	reg := metrics.NewRegistry()
	w.loop.SetMetrics(reg)
	w.loop.RunFor(5 * time.Minute)
	assertConverged(t, w, 2)

	const s = shard.ID("s000")
	m := w.orch.AssignmentSnapshot()
	prim, _ := m.Primary(s)
	var sec shard.ServerID
	for _, a := range m.Replicas(s) {
		if a.Server != prim {
			sec = a.Server
		}
	}
	rejected := reg.Counter("orchestrator_publish_rejected_total", "app", "app", "reason", "orphan_pending")

	var target shard.ServerID
	finished, orphanAtFinish, targetHeldAfter := false, false, false
	w.orch.AddHooks(Hooks{
		MigrationStarted: func(_ shard.ID, _, to shard.ServerID, _ bool) { target = to },
		MigrationStep: func(_ shard.ID, step string, _ shard.ServerID, status string) {
			switch {
			case step == "prepare_add_shard" && status == "ok":
				w.managers[w.net.Region(rpcnet.Endpoint(sec))].KillMachine(w.machineOf(t, sec))
			case step == "prepare_drop_shard" && status == "ok":
				// Every reply from the target's region is lost from now on:
				// add_shard and the rollback drop both run there, and both
				// report failure.
				w.net.SetLinkFault(w.net.Region(rpcnet.Endpoint(target)), w.orch.cfg.HomeRegion,
					rpcnet.LinkFault{DropProb: 1})
			}
		},
		MigrationFinished: func(_ shard.ID, ok bool) {
			if ok || finished {
				return
			}
			finished = true
			orphanAtFinish = slices.ContainsFunc(w.orch.shards[s].cleanups, func(c *cleanup) bool {
				return c.op == orphanDrop && c.server == target
			})
			// The emergency plan runs right after this hook, in the same
			// event; look at the replica list once it is done.
			w.loop.AfterL(0, 0, func() { targetHeldAfter = w.orch.shards[s].find(target) != -1 })
		},
	})
	w.orch.Drain(prim, nil)
	w.loop.RunFor(3 * time.Minute)

	if !finished {
		t.Fatal("the migration never failed; the fault did not engage")
	}
	if !orphanAtFinish {
		t.Fatalf("target %s was not a pending orphan when the migration was declared failed", target)
	}
	if rejected.Value() == 0 {
		t.Fatal("the emergency plan after the abort was not refused for the pending orphan")
	}
	if targetHeldAfter {
		t.Fatalf("the emergency plan put the orphan %s back into the replica list", target)
	}
}

// TestDrainWithZeroShardLoadTime covers graceful migration without a
// configured load window (ShardLoadTime 0): the protocol still completes.
func TestDrainWithZeroShardLoadTime(t *testing.T) {
	cfg := baseConfig(shard.PrimaryOnly, 10, 1)
	w := buildWorld(t, []topology.RegionID{"r1"}, 4, cfg)
	w.loop.RunFor(3 * time.Minute)
	victim := shard.ServerID(w.managers["r1"].RunningContainers("app-job-r1")[0])
	done := false
	w.orch.Drain(victim, func() { done = true })
	w.loop.RunFor(10 * time.Minute)
	if !done || w.orch.ShardsOnServer(victim) != 0 {
		t.Fatalf("drain incomplete: done=%v remaining=%d", done, w.orch.ShardsOnServer(victim))
	}
}

// TestAccessorsAndStop covers the small control-plane accessors and the
// §6.2 Stop/Start path at the package level.
func TestAccessorsAndStop(t *testing.T) {
	cfg := baseConfig(shard.PrimaryOnly, 6, 1)
	w := buildWorld(t, []topology.RegionID{"r1"}, 3, cfg)
	w.loop.RunFor(3 * time.Minute)

	if w.orch.version == 0 {
		t.Fatal("no map published")
	}
	if w.orch.TotalReplicas("s000") != 1 || w.orch.TotalReplicas("ghost") != 0 {
		t.Fatal("TotalReplicas wrong")
	}
	if got := len(w.orch.ShardIDs()); got != 6 {
		t.Fatalf("ShardIDs = %d", got)
	}
	if w.orch.ShardLoadValue("s000", topology.ResourceShardCount) != 1 {
		t.Fatal("ShardLoadValue wrong")
	}
	if w.orch.ShardLoadValue("ghost", topology.ResourceCPU) != 0 {
		t.Fatal("ghost load should be 0")
	}
	m := w.orch.AssignmentSnapshot()
	srv, _ := m.Primary("s000")
	if !w.orch.ServerAlive(srv) || w.orch.ServerAlive("ghost") {
		t.Fatal("ServerAlive wrong")
	}

	// Stop freezes the version; Start resumes; double calls are no-ops.
	v := w.orch.version
	w.orch.Stop()
	w.orch.Stop()
	w.loop.RunFor(5 * time.Minute)
	if w.orch.version != v {
		t.Fatal("version moved while stopped")
	}
	w.orch.Start()
	w.loop.RunFor(time.Minute)
	// Still converged and valid after resume.
	if err := w.orch.AssignmentSnapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}
