package integration

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"shardmanager/internal/cluster"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/taskcontroller"
	"shardmanager/internal/topology"
)

// TestChaosRandomEventsConvergeToValidState drives the full stack through a
// randomized schedule of unplanned failures, restorations, negotiable
// restarts, drains and preference changes, then
// checks the paper's steady-state invariants after quiescence:
//
//   - the published shard map is always structurally valid,
//   - every shard ends fully replicated on live servers,
//   - every shard has exactly one primary,
//   - drained/dead servers hold nothing they shouldn't.
func TestChaosRandomEventsConvergeToValidState(t *testing.T) {
	for _, seed := range []uint64{101, 202, 303} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runChaos(t, seed)
		})
	}
}

func runChaos(t *testing.T, seed uint64) {
	t.Helper()
	const (
		shardsN  = 30
		replicas = 2
		perReg   = 4
	)
	tp := taskcontroller.DefaultPolicy(2)
	d, _ := buildKV(t, []topology.RegionID{"r1", "r2"}, perReg, shardsN, replicas, &tp,
		func(c *orchestrator.Config) {
			c.FailoverGrace = 20 * time.Second
			c.AllocInterval = 15 * time.Second
		})
	rng := sim.NewRNG(seed)

	// Track machines we have deliberately killed so we can restore them
	// and never take down more than half of a region.
	type deadMachine struct {
		mgr *cluster.Manager
		id  topology.MachineID
	}
	var dead []deadMachine
	managers := []*cluster.Manager{d.Managers["r1"], d.Managers["r2"]}

	checkMapValid := func() {
		if err := d.Orch.AssignmentSnapshot().Validate(); err != nil {
			t.Fatalf("invalid map mid-chaos: %v", err)
		}
	}

	events := 0
	for events < 30 {
		d.Loop.RunFor(time.Duration(30+rng.Intn(120)) * time.Second)
		checkMapValid()
		events++
		switch rng.Intn(5) {
		case 0: // unplanned machine failure (bounded)
			if len(dead) >= 2 {
				continue
			}
			mgr := managers[rng.Intn(len(managers))]
			machines := d.Fleet.MachinesInRegion(mgr.Region)
			m := machines[rng.Intn(len(machines))]
			if slices.ContainsFunc(dead, func(dm deadMachine) bool { return dm.id == m.ID }) {
				continue
			}
			mgr.KillMachine(m.ID)
			dead = append(dead, deadMachine{mgr, m.ID})
		case 1: // restore a failed machine
			if len(dead) == 0 {
				continue
			}
			dm := dead[0]
			dead = dead[1:]
			dm.mgr.RestoreMachine(dm.id)
		case 2: // negotiable restart of a random container
			mgr := managers[rng.Intn(len(managers))]
			running := mgr.RunningContainers(d.Jobs[mgr.Region])
			if len(running) == 0 {
				continue
			}
			mgr.Submit(cluster.Operation{
				Container:  running[rng.Intn(len(running))],
				Negotiable: true,
				Reason:     "chaos-upgrade",
			})
		case 3: // drain and release a random server
			mgr := managers[rng.Intn(len(managers))]
			running := mgr.RunningContainers(d.Jobs[mgr.Region])
			if len(running) == 0 {
				continue
			}
			srv := shard.ServerID(running[rng.Intn(len(running))])
			d.Orch.Drain(srv, func() { d.Orch.CancelDrain(srv) })
		case 4: // flip a region preference
			id := shard.ID(fmt.Sprintf("s%05d", rng.Intn(shardsN)))
			region := managers[rng.Intn(len(managers))].Region
			d.Orch.SetRegionPreference(id, region, 200)
		}
	}

	// Restore everything and let the system quiesce.
	for _, dm := range dead {
		dm.mgr.RestoreMachine(dm.id)
	}
	d.Loop.RunFor(20 * time.Minute)

	m := d.Orch.AssignmentSnapshot()
	if err := m.Validate(); err != nil {
		t.Fatalf("invalid map after quiescence: %v", err)
	}
	for _, id := range d.Orch.ShardIDs() {
		want := d.Orch.TotalReplicas(id)
		as := m.Replicas(id)
		if len(as) != want {
			t.Fatalf("shard %s has %d/%d replicas after quiescence", id, len(as), want)
		}
		primaries := 0
		for _, a := range as {
			srv := d.Dir.Lookup(a.Server)
			if srv == nil {
				t.Fatalf("shard %s replica on dead server %s", id, a.Server)
			}
			if !srv.HoldsActive(id) {
				t.Fatalf("server %s does not actively hold %s", a.Server, id)
			}
			if a.Role == shard.RolePrimary {
				primaries++
			}
		}
		if primaries != 1 {
			t.Fatalf("shard %s has %d primaries after quiescence", id, primaries)
		}
	}
	// Consistency between orchestrator view and server reality: every
	// active server replica appears in the map.
	for _, mgr := range managers {
		for _, cid := range mgr.RunningContainers(d.Jobs[mgr.Region]) {
			srv := d.Dir.Lookup(shard.ServerID(cid))
			if srv == nil {
				continue
			}
			for id := range srv.Shards() {
				found := false
				for _, a := range m.Replicas(id) {
					if a.Server == srv.ID {
						found = true
					}
				}
				if !found && srv.HoldsActive(id) {
					t.Fatalf("server %s holds %s not in map", srv.ID, id)
				}
			}
		}
	}
	t.Logf("chaos seed %d: %s", seed, d.Orch.Stats())
}
