package cluster

import (
	"testing"
	"time"

	"shardmanager/internal/metrics"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// countingController approves everything but records offer rounds.
type countingController struct {
	offers    int
	completes int
}

func (c *countingController) OfferOperations(_ topology.RegionID, pending []Operation) []OperationID {
	c.offers++
	out := make([]OperationID, len(pending))
	for i, op := range pending {
		out[i] = op.ID
	}
	return out
}

func (c *countingController) OperationComplete(topology.RegionID, Operation) { c.completes++ }

func TestNegotiationReoffersWhilePending(t *testing.T) {
	loop := sim.NewLoop(1)
	m := NewManager(loop, testFleet(), "r1", DefaultOptions())
	gate := &gateController{} // approves nothing
	m.SetController(gate)
	m.CreateJob("app", 1)
	loop.RunFor(time.Minute)
	cid := m.RunningContainers("app")[0]
	m.Submit(Operation{Container: cid, Negotiable: true})
	loop.RunFor(10 * time.Second)
	// With 1s negotiation delay, the manager must have re-offered the
	// pending op many times ("Periodically, Twine notifies...").
	if gate.offered < 5 {
		t.Fatalf("offers = %d, want periodic re-offers", gate.offered)
	}
}

func TestOperationCompleteNotifiesController(t *testing.T) {
	loop := sim.NewLoop(1)
	m := NewManager(loop, testFleet(), "r1", DefaultOptions())
	ctrl := &countingController{}
	m.SetController(ctrl)
	m.CreateJob("app", 3)
	loop.RunFor(time.Minute)
	for _, cid := range m.RunningContainers("app") {
		m.Submit(Operation{Container: cid, Negotiable: true})
	}
	loop.RunFor(10 * time.Minute)
	if ctrl.completes != 3 {
		t.Fatalf("completions = %d, want 3", ctrl.completes)
	}
}

func TestContainersOnMachine(t *testing.T) {
	loop := sim.NewLoop(1)
	m := NewManager(loop, testFleet(), "r1", DefaultOptions())
	m.CreateJob("app", 10)
	loop.RunFor(time.Minute)
	total := 0
	for _, mach := range testFleet().MachinesInRegion("r1") {
		ids := m.ContainersOnMachine(mach.ID)
		total += len(ids)
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatal("ContainersOnMachine not sorted")
			}
		}
	}
	if total != 10 {
		t.Fatalf("containers across machines = %d, want 10", total)
	}
	if got := m.ContainersOnMachine("bogus"); got != nil {
		t.Fatalf("bogus machine containers = %v", got)
	}
}

func TestRestartOfDownContainerCompletesImmediately(t *testing.T) {
	loop := sim.NewLoop(1)
	m := NewManager(loop, testFleet(), "r1", DefaultOptions())
	ctrl := &countingController{}
	m.SetController(ctrl)
	m.CreateJob("app", 2)
	loop.RunFor(time.Minute)
	cid := m.RunningContainers("app")[0]
	c, _ := m.Container(cid)
	m.KillMachine(c.Machine)
	m.Submit(Operation{Container: cid, Negotiable: true})
	loop.RunFor(time.Minute)
	if ctrl.completes != 1 {
		t.Fatalf("restart of down container should complete as a no-op (completes=%d)", ctrl.completes)
	}
	after, _ := m.Container(cid)
	if after.State != StateDown {
		t.Fatal("container resurrected by no-op restart")
	}
}

func TestStopStatsCountPlannedAndUnplanned(t *testing.T) {
	loop := sim.NewLoop(1)
	loop.SetMetrics(metrics.NewRegistry())
	m := NewManager(loop, testFleet(), "r1", DefaultOptions())
	m.CreateJob("app", 4)
	loop.RunFor(time.Minute)
	ids := m.RunningContainers("app")
	m.Submit(Operation{Container: ids[0], Negotiable: false, Reason: "upgrade"})
	loop.RunFor(5 * time.Minute)
	c, _ := m.Container(ids[1])
	m.KillMachine(c.Machine)
	if p, u := stops(m, true), stops(m, false); p != 1 || u != 1 {
		t.Fatalf("stops: planned=%d unplanned=%d, want 1/1", p, u)
	}
}

func BenchmarkNegotiationRound(b *testing.B) {
	loop := sim.NewLoop(1)
	fleet := topology.Build(topology.Spec{
		Regions:           []topology.RegionID{"r1"},
		MachinesPerRegion: 100,
	})
	m := NewManager(loop, fleet, "r1", DefaultOptions())
	gate := &gateController{}
	m.SetController(gate)
	m.CreateJob("app", 100)
	loop.RunFor(time.Minute)
	for _, cid := range m.RunningContainers("app") {
		m.Submit(Operation{Container: cid, Negotiable: true})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop.RunFor(time.Second) // one negotiation round
	}
}
