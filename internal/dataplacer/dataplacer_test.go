package dataplacer

import (
	"fmt"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/cluster"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

func appMap(entries map[shard.ID][]shard.ServerID) *shard.Map {
	m := shard.NewMap("custom")
	for id, servers := range entries {
		for _, s := range servers {
			m.Entries[id] = append(m.Entries[id], shard.Assignment{Server: s, Role: shard.RoleSecondary})
		}
	}
	return m
}

func op(id int, container string) cluster.Operation {
	return cluster.Operation{
		ID:         cluster.OperationID(id),
		Type:       cluster.OpRestart,
		Container:  cluster.ContainerID(container),
		Negotiable: true,
	}
}

func TestGenericControllerBlocksDoubleUnavailability(t *testing.T) {
	src := NewStaticMapSource(appMap(map[shard.ID][]shard.ServerID{
		"sA": {"c1", "c2"},
		"sB": {"c3", "c4"},
	}))
	c := NewGenericTaskController(src, ControllerPolicy{MaxConcurrentOps: 10, MaxUnavailableReplicas: 1}, nil)

	// Restarting c1 is fine; restarting c2 simultaneously would take
	// both of sA's replicas down.
	got := c.OfferOperations("r1", []cluster.Operation{op(1, "c1"), op(2, "c2"), op(3, "c3")})
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("approved = %v, want [1 3]", got)
	}
	// After c1 completes, c2 may go.
	c.OperationComplete("r1", op(1, "c1"))
	got = c.OfferOperations("r1", []cluster.Operation{op(2, "c2")})
	if len(got) != 1 {
		t.Fatalf("c2 still blocked: %v", got)
	}
}

func TestGenericControllerGlobalCap(t *testing.T) {
	src := NewStaticMapSource(appMap(map[shard.ID][]shard.ServerID{
		"s1": {"c1"}, "s2": {"c2"}, "s3": {"c3"},
	}))
	// Per-shard cap 1 with single replicas would block everything; use
	// cap 2 so the global cap is the binding constraint.
	c := NewGenericTaskController(src, ControllerPolicy{MaxConcurrentOps: 2, MaxUnavailableReplicas: 2}, nil)
	got := c.OfferOperations("r1", []cluster.Operation{op(1, "c1"), op(2, "c2"), op(3, "c3")})
	if len(got) != 2 {
		t.Fatalf("approved = %v, want 2 (global cap)", got)
	}
	if c.Delayed.Value() != 1 {
		t.Fatalf("delayed = %d", c.Delayed.Value())
	}
}

func TestGenericControllerCountsDeadReplicas(t *testing.T) {
	// sA is configured for 2 replicas but the map currently shows one:
	// the other is dead. Restarting the survivor must be delayed.
	src := NewStaticMapSource(appMap(map[shard.ID][]shard.ServerID{"sA": {"c1"}}))
	src.SetTarget("sA", 2)
	c := NewGenericTaskController(src, ControllerPolicy{MaxConcurrentOps: 10, MaxUnavailableReplicas: 1}, nil)
	if got := c.OfferOperations("r1", []cluster.Operation{op(1, "c1")}); len(got) != 0 {
		t.Fatalf("approved restart of last replica: %v", got)
	}
}

func TestGenericControllerUsesServerDownCallback(t *testing.T) {
	src := NewStaticMapSource(appMap(map[shard.ID][]shard.ServerID{"sA": {"c1", "c2"}}))
	down := map[shard.ServerID]bool{"c2": true} // unplanned outage
	c := NewGenericTaskController(src,
		ControllerPolicy{MaxConcurrentOps: 10, MaxUnavailableReplicas: 1},
		func(s shard.ServerID) bool { return down[s] })
	if got := c.OfferOperations("r1", []cluster.Operation{op(1, "c1")}); len(got) != 0 {
		t.Fatal("approved op while the other replica is already down")
	}
	down["c2"] = false
	if got := c.OfferOperations("r1", []cluster.Operation{op(1, "c1")}); len(got) != 1 {
		t.Fatal("blocked op after outage cleared")
	}
}

func TestGenericControllerWithRealClusterManager(t *testing.T) {
	// End to end: a "custom sharding" application that never talks to
	// the SM orchestrator still gets safe rolling restarts.
	fleet := topology.Build(topology.Spec{
		Regions:           []topology.RegionID{"r1"},
		MachinesPerRegion: 4,
	})
	loop := sim.NewLoop(1)
	mgr := cluster.NewManager(loop, fleet, "r1", cluster.DefaultOptions())
	mgr.CreateJob("db", "db", 4)
	loop.RunFor(time.Minute)
	ids := mgr.RunningContainers("db")

	// The app's own shard map: each adjacent pair of containers shares a
	// shard.
	entries := map[shard.ID][]shard.ServerID{}
	for i := 0; i < len(ids); i++ {
		s := shard.ID(fmt.Sprintf("s%d", i))
		entries[s] = []shard.ServerID{
			shard.ServerID(ids[i]),
			shard.ServerID(ids[(i+1)%len(ids)]),
		}
	}
	src := NewStaticMapSource(appMap(entries))
	c := NewGenericTaskController(src, ControllerPolicy{MaxConcurrentOps: 4, MaxUnavailableReplicas: 1}, nil)
	c.Attach(mgr)

	down := 0
	maxDown := 0
	loop.EveryL(time.Second, 0, func() {
		down = 4 - len(mgr.RunningContainers("db"))
		if down > maxDown {
			maxDown = down
		}
	})
	done := false
	mgr.RollingUpgrade("db", 4, "upgrade", func() { done = true })
	loop.RunFor(30 * time.Minute)
	if !done {
		t.Fatal("upgrade never completed")
	}
	// Ring topology: neighbors share shards, so at most every other
	// container may be down — with per-shard cap 1 that means max 2
	// concurrent for 4 containers, and never two adjacent.
	if maxDown > 2 {
		t.Fatalf("max concurrent down = %d", maxDown)
	}
	if c.Approved.Value() != 4 {
		t.Fatalf("approved = %d", c.Approved.Value())
	}
}

func placerServers(n int) []allocator.ServerInfo {
	out := make([]allocator.ServerInfo, n)
	for i := range out {
		out[i] = allocator.ServerInfo{
			ID: shard.ServerID(fmt.Sprintf("srv%02d", i)),
			Domains: map[string]string{
				"region": fmt.Sprintf("region%d", i%2),
				"rack":   fmt.Sprintf("rack%d", i%4),
			},
			Capacity: topology.Capacity{topology.ResourceCPU: 100, topology.ResourceShardCount: 100},
			Alive:    true,
		}
	}
	return out
}

func TestPlacerBasicPlacement(t *testing.T) {
	p := NewPlacer(allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount), 1)
	shards := make([]allocator.ShardSpec, 10)
	for i := range shards {
		shards[i] = allocator.ShardSpec{
			ID: shard.ID(fmt.Sprintf("db%02d", i)), Replicas: 2,
			Load: topology.Capacity{topology.ResourceCPU: 1, topology.ResourceShardCount: 1},
		}
	}
	res, err := p.Place(PlacementRequest{
		Servers: placerServers(6),
		Shards:  shards,
		Current: map[shard.ID][]shard.ServerID{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Unassigned != 0 {
		t.Fatalf("unassigned: %+v", res.Final)
	}
	for _, s := range shards {
		got := res.Assignment[s.ID]
		if len(got) != 2 || got[0] == got[1] {
			t.Fatalf("shard %s placement = %v", s.ID, got)
		}
	}
}

func TestPlacerColocation(t *testing.T) {
	// A database shard and its sidecar must land on the same server —
	// the §7 example ("their orchestrator may create both a database
	// container and a sidecar container").
	p := NewPlacer(allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount), 1)
	specs := []allocator.ShardSpec{
		{ID: "db0", Replicas: 1, Load: topology.Capacity{topology.ResourceCPU: 5, topology.ResourceShardCount: 1}},
		{ID: "db0-sidecar", Replicas: 1, Load: topology.Capacity{topology.ResourceCPU: 1, topology.ResourceShardCount: 1}},
		{ID: "db1", Replicas: 1, Load: topology.Capacity{topology.ResourceCPU: 5, topology.ResourceShardCount: 1}},
		{ID: "db1-sidecar", Replicas: 1, Load: topology.Capacity{topology.ResourceCPU: 1, topology.ResourceShardCount: 1}},
	}
	res, err := p.Place(PlacementRequest{
		Servers: placerServers(4),
		Shards:  specs,
		Current: map[shard.ID][]shard.ServerID{},
		Colocate: map[shard.ID]shard.ID{
			"db0-sidecar": "db0",
			"db1-sidecar": "db1",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]shard.ID{{"db0", "db0-sidecar"}, {"db1", "db1-sidecar"}} {
		a, b := res.Assignment[pair[0]], res.Assignment[pair[1]]
		if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
			t.Fatalf("pair %v not colocated: %v vs %v", pair, a, b)
		}
	}
	// The sidecars' moves appear in the diff too.
	sidecarMoves := 0
	for _, m := range res.Moves {
		if m.Shard == "db0-sidecar" || m.Shard == "db1-sidecar" {
			sidecarMoves++
		}
	}
	if sidecarMoves != 2 {
		t.Fatalf("sidecar moves = %d", sidecarMoves)
	}
}

func TestPlacerEmergencyPinsSurvivors(t *testing.T) {
	p := NewPlacer(allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount), 1)
	servers := placerServers(4)
	specs := []allocator.ShardSpec{
		{ID: "db0", Replicas: 2, Load: topology.Capacity{topology.ResourceCPU: 1, topology.ResourceShardCount: 1}},
	}
	first, err := p.Place(PlacementRequest{Servers: servers, Shards: specs, Current: map[shard.ID][]shard.ServerID{}})
	if err != nil {
		t.Fatal(err)
	}
	dead := first.Assignment["db0"][0]
	for i := range servers {
		if servers[i].ID == dead {
			servers[i].Alive = false
		}
	}
	res, err := p.Place(PlacementRequest{Servers: servers, Shards: specs, Current: first.Assignment, Emergency: true})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Assignment["db0"]
	if got[1] != first.Assignment["db0"][1] {
		t.Fatalf("survivor moved: %v -> %v", first.Assignment["db0"], got)
	}
	if got[0] == dead || got[0] == "" {
		t.Fatalf("dead replica not replaced: %v", got)
	}
}

func TestPlacerErrors(t *testing.T) {
	p := NewPlacer(allocator.DefaultPolicy(topology.ResourceCPU), 1)
	if _, err := p.Place(PlacementRequest{}); err == nil {
		t.Fatal("empty request accepted")
	}
}

func TestPlacerColocationMissingLeaderPanics(t *testing.T) {
	p := NewPlacer(allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Place(PlacementRequest{
		Servers:  placerServers(2),
		Shards:   []allocator.ShardSpec{{ID: "orphan", Replicas: 1, Load: topology.Capacity{}}},
		Current:  map[shard.ID][]shard.ServerID{},
		Colocate: map[shard.ID]shard.ID{"orphan": "ghost"},
	})
}

func TestNewGenericControllerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGenericTaskController(nil, ControllerPolicy{}, nil)
}
