package taskcontroller

import (
	"testing"
	"time"

	"shardmanager/internal/cluster"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// fakeShards is a scriptable ShardStateProvider.
type fakeShards struct {
	// placement: server -> shards it holds.
	placement map[shard.ServerID][]shard.ID
	// aliveOverride: shard -> alive replica count (default: count of
	// servers holding it).
	total       map[shard.ID]int
	drains      []shard.ServerID
	drainDone   map[shard.ServerID]func()
	cancelled   []shard.ServerID
	demoted     []shard.ServerID
	instantDone bool
}

func newFakeShards() *fakeShards {
	return &fakeShards{
		placement: make(map[shard.ServerID][]shard.ID),
		total:     make(map[shard.ID]int),
		drainDone: make(map[shard.ServerID]func()),
	}
}

func (f *fakeShards) place(srv shard.ServerID, shards ...shard.ID) {
	f.placement[srv] = append(f.placement[srv], shards...)
	for _, s := range shards {
		f.total[s]++
	}
}

func (f *fakeShards) AliveReplicas(server shard.ServerID) map[shard.ID]int {
	out := make(map[shard.ID]int)
	for _, s := range f.placement[server] {
		alive := 0
		for _, held := range f.placement {
			for _, h := range held {
				if h == s {
					alive++
				}
			}
		}
		out[s] = alive
	}
	return out
}

func (f *fakeShards) TotalReplicas(s shard.ID) int { return f.total[s] }

func (f *fakeShards) ShardsOnServer(server shard.ServerID) int {
	return len(f.placement[server])
}

func (f *fakeShards) Drain(server shard.ServerID, onDone func()) {
	f.drains = append(f.drains, server)
	if f.instantDone {
		f.placement[server] = nil
		if onDone != nil {
			onDone()
		}
		return
	}
	f.drainDone[server] = onDone
}

func (f *fakeShards) finishDrain(server shard.ServerID) {
	f.placement[server] = nil
	if fn := f.drainDone[server]; fn != nil {
		delete(f.drainDone, server)
		fn()
	}
}

func (f *fakeShards) CancelDrain(server shard.ServerID)     { f.cancelled = append(f.cancelled, server) }
func (f *fakeShards) DemotePrimaries(server shard.ServerID) { f.demoted = append(f.demoted, server) }

func op(id int, container string) cluster.Operation {
	return cluster.Operation{
		ID:         cluster.OperationID(id),
		Container:  cluster.ContainerID(container),
		Negotiable: true,
	}
}

func TestApprovesImmediatelyWithoutDrainPolicy(t *testing.T) {
	fs := newFakeShards()
	fs.place("c1", "s1")
	pol := DefaultPolicy(4)
	pol.DrainOnRestart = false
	pol.MaxUnavailableReplicas = 1
	c := New(sim.NewLoop(1), fs, pol)
	got := c.OfferOperations("r1", []cluster.Operation{op(1, "c1")})
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("approved = %v", got)
	}
	if len(fs.drains) != 0 {
		t.Fatal("drained despite no-drain policy")
	}
}

func TestDrainsBeforeApproving(t *testing.T) {
	fs := newFakeShards()
	fs.place("c1", "s1", "s2")
	c := New(sim.NewLoop(1), fs, DefaultPolicy(4))
	got := c.OfferOperations("r1", []cluster.Operation{op(1, "c1")})
	if len(got) != 0 {
		t.Fatalf("approved before drain: %v", got)
	}
	if len(fs.drains) != 1 || fs.drains[0] != "c1" {
		t.Fatalf("drains = %v", fs.drains)
	}
	// Still pending while draining.
	got = c.OfferOperations("r1", []cluster.Operation{op(1, "c1")})
	if len(got) != 0 {
		t.Fatal("approved while still draining")
	}
	// Drain completes; next round approves.
	fs.finishDrain("c1")
	got = c.OfferOperations("r1", []cluster.Operation{op(1, "c1")})
	if len(got) != 1 {
		t.Fatalf("not approved after drain: %v", got)
	}
	// Completion frees the slot and cancels the drain mark.
	c.OperationComplete("r1", op(1, "c1"))
	if c.inFlight() != 0 {
		t.Fatal("slot not freed")
	}
	if len(fs.cancelled) != 1 {
		t.Fatal("drain not cancelled after completion")
	}
}

func TestEmptyContainerSkipsDrain(t *testing.T) {
	fs := newFakeShards()
	c := New(sim.NewLoop(1), fs, DefaultPolicy(4))
	got := c.OfferOperations("r1", []cluster.Operation{op(1, "empty")})
	if len(got) != 1 {
		t.Fatalf("empty container not approved immediately: %v", got)
	}
	if len(fs.drains) != 0 {
		t.Fatal("drained an empty container")
	}
}

func TestGlobalCapLimitsConcurrency(t *testing.T) {
	fs := newFakeShards()
	fs.instantDone = true
	for i, srv := range []shard.ServerID{"c1", "c2", "c3", "c4"} {
		fs.place(srv, shard.ID('a'+byte(i)))
	}
	pol := DefaultPolicy(2)
	pol.DrainOnRestart = false
	c := New(sim.NewLoop(1), fs, pol)
	ops := []cluster.Operation{op(1, "c1"), op(2, "c2"), op(3, "c3"), op(4, "c4")}
	got := c.OfferOperations("r1", ops)
	if len(got) != 2 {
		t.Fatalf("approved %d, want 2 (global cap)", len(got))
	}
	// Completing one frees a slot.
	c.OperationComplete("r1", op(1, "c1"))
	got = c.OfferOperations("r1", ops[2:])
	if len(got) != 1 {
		t.Fatalf("approved %d after one completion, want 1", len(got))
	}
}

func TestPerShardCapBlocksCrossRegionDoubleRestart(t *testing.T) {
	// The paper's scenario: two regions each plan to restart a container,
	// and the two containers host the two replicas of the same shard.
	// Only one may proceed.
	fs := newFakeShards()
	fs.place("r1-c", "shardX")
	fs.place("r2-c", "shardX")
	pol := DefaultPolicy(10)
	pol.DrainOnRestart = false
	pol.MaxUnavailableReplicas = 1
	c := New(sim.NewLoop(1), fs, pol)

	got1 := c.OfferOperations("region1", []cluster.Operation{op(1, "r1-c")})
	if len(got1) != 1 {
		t.Fatalf("first region not approved: %v", got1)
	}
	got2 := c.OfferOperations("region2", []cluster.Operation{op(2, "r2-c")})
	if len(got2) != 0 {
		t.Fatal("second region approved; shard would lose both replicas")
	}
	if c.Delayed.Value() == 0 {
		t.Fatal("delay not recorded")
	}
	// First restart finishes; now the second may proceed.
	c.OperationComplete("region1", op(1, "r1-c"))
	got2 = c.OfferOperations("region2", []cluster.Operation{op(2, "r2-c")})
	if len(got2) != 1 {
		t.Fatal("second region still blocked after first completed")
	}
}

func TestAlreadyDeadReplicasCountAgainstCap(t *testing.T) {
	// shardX has 2 configured replicas but only 1 alive (unplanned
	// outage); restarting its last holder would take availability to 0.
	fs := newFakeShards()
	fs.place("c1", "shardX")
	fs.total["shardX"] = 2 // one replica already dead
	pol := DefaultPolicy(10)
	pol.DrainOnRestart = false
	pol.MaxUnavailableReplicas = 1
	c := New(sim.NewLoop(1), fs, pol)
	got := c.OfferOperations("r1", []cluster.Operation{op(1, "c1")})
	if len(got) != 0 {
		t.Fatal("approved restart that would lose the last replica")
	}
}

func TestMaintenanceNetworkLossDemotes(t *testing.T) {
	loop := sim.NewLoop(1)
	fleet := topology.Build(topology.Spec{
		Regions:           []topology.RegionID{"r1"},
		MachinesPerRegion: 2,
	})
	mgr := cluster.NewManager(loop, fleet, "r1", cluster.DefaultOptions())
	mgr.CreateJob("job", 2)
	loop.RunFor(time.Minute)

	fs := newFakeShards()
	for _, cid := range mgr.RunningContainers("job") {
		fs.place(shard.ServerID(cid), "s1")
	}
	c := New(loop, fs, DefaultPolicy(4))
	c.Attach(mgr)

	cid := mgr.RunningContainers("job")[0]
	cont, _ := mgr.Container(cid)
	mgr.ScheduleMaintenance([]topology.MachineID{cont.Machine},
		loop.Now()+10*time.Minute, loop.Now()+15*time.Minute)

	// Preparation happens maintenanceLead before start.
	loop.RunFor(7 * time.Minute)
	if len(fs.demoted) != 0 {
		t.Fatal("demoted too early")
	}
	loop.RunFor(2 * time.Minute)
	if len(fs.demoted) != 1 || fs.demoted[0] != shard.ServerID(cid) {
		t.Fatalf("demoted = %v", fs.demoted)
	}
	// After the event ends, drains are cancelled.
	loop.RunFor(10 * time.Minute)
	if len(fs.cancelled) == 0 {
		t.Fatal("no cancel after maintenance end")
	}
}

func TestEndToEndRollingUpgradeWithController(t *testing.T) {
	// Integration: rolling upgrade paced by the controller with instant
	// drains; all containers restart, never more than the cap at once.
	loop := sim.NewLoop(3)
	fleet := topology.Build(topology.Spec{
		Regions:           []topology.RegionID{"r1"},
		MachinesPerRegion: 10,
	})
	mgr := cluster.NewManager(loop, fleet, "r1", cluster.DefaultOptions())
	mgr.CreateJob("job", 10)
	loop.RunFor(time.Minute)

	fs := newFakeShards()
	fs.instantDone = true
	for i, cid := range mgr.RunningContainers("job") {
		fs.place(shard.ServerID(cid), shard.ID(rune('a'+i)))
	}
	ctrl := New(loop, fs, DefaultPolicy(2))
	ctrl.Attach(mgr)

	done := false
	maxDown := 0
	loop.EveryL(time.Second, 0, func() {
		if down := 10 - len(mgr.RunningContainers("job")); down > maxDown {
			maxDown = down
		}
	})
	mgr.RollingUpgrade("job", 10, "upgrade", func() { done = true })
	loop.RunFor(60 * time.Minute)
	if !done {
		t.Fatalf("upgrade incomplete; inflight=%d", ctrl.inFlight())
	}
	if maxDown > 2 {
		t.Fatalf("max concurrent down = %d, want <= 2", maxDown)
	}
	if ctrl.Approved.Value() != 10 {
		t.Fatalf("approved = %d, want 10", ctrl.Approved.Value())
	}
}
