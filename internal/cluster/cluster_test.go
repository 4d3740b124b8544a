package cluster

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"shardmanager/internal/metrics"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

func testFleet() *topology.Fleet {
	return topology.Build(topology.Spec{
		Regions:           []topology.RegionID{"r1", "r2"},
		MachinesPerRegion: 10,
	})
}

type recordingListener struct {
	started  []ContainerID
	stopping []ContainerID
}

func (r *recordingListener) ContainerStarted(c Container) { r.started = append(r.started, c.ID) }
func (r *recordingListener) ContainerStopping(c Container, reason string) {
	r.stopping = append(r.stopping, c.ID)
}

// starts counts the times container id came up.
func (r *recordingListener) starts(id ContainerID) int {
	n := 0
	for _, s := range r.started {
		if s == id {
			n++
		}
	}
	return n
}

// stops reads cluster_container_stops_total for job "app", planned or not.
func stops(m *Manager, planned bool) int64 {
	return m.loop.Metrics().Counter("cluster_container_stops_total",
		"region", string(m.Region), "job", "app", "planned", fmt.Sprintf("%t", planned)).Value()
}

func newTestManager(t *testing.T) (*sim.Loop, *Manager, *recordingListener) {
	t.Helper()
	loop := sim.NewLoop(1)
	loop.SetMetrics(metrics.NewRegistry())
	m := NewManager(loop, testFleet(), "r1", DefaultOptions())
	rl := &recordingListener{}
	m.AddListener(rl)
	return loop, m, rl
}

func TestCreateJobStartsContainers(t *testing.T) {
	loop, m, rl := newTestManager(t)
	j := m.CreateJob("app", 5)
	if len(j.containers) != 5 {
		t.Fatalf("containers = %d", len(j.containers))
	}
	loop.RunFor(time.Minute)
	if len(rl.started) != 5 {
		t.Fatalf("started = %d, want 5", len(rl.started))
	}
	if got := len(m.RunningContainers("app")); got != 5 {
		t.Fatalf("running = %d, want 5", got)
	}
}

func TestContainersSpreadAcrossMachines(t *testing.T) {
	loop, m, _ := newTestManager(t)
	m.CreateJob("app", 10)
	loop.RunFor(time.Minute)
	perMachine := map[topology.MachineID]int{}
	for _, cid := range m.RunningContainers("app") {
		c, _ := m.Container(cid)
		perMachine[c.Machine]++
	}
	if len(perMachine) != 10 {
		t.Fatalf("machines used = %d, want 10 (one each)", len(perMachine))
	}
}

func TestRestartWithoutControllerExecutes(t *testing.T) {
	loop, m, rl := newTestManager(t)
	m.CreateJob("app", 1)
	loop.RunFor(time.Minute)
	cid := m.RunningContainers("app")[0]
	m.Submit(Operation{Container: cid, Negotiable: true, Reason: "upgrade"})
	loop.RunFor(5 * time.Minute)
	after, _ := m.Container(cid)
	if after.State != StateRunning {
		t.Fatal("container not running after restart")
	}
	if len(rl.stopping) != 1 || len(rl.started) != 2 {
		t.Fatalf("events: stopping=%d started=%d", len(rl.stopping), len(rl.started))
	}
	if p, u := stops(m, true), stops(m, false); p != 1 || u != 0 {
		t.Fatalf("stops: planned=%d unplanned=%d", p, u)
	}
}

// gateController approves nothing until opened, then everything.
type gateController struct {
	open      bool
	offered   int
	completed int
}

func (g *gateController) OfferOperations(_ topology.RegionID, pending []Operation) []OperationID {
	g.offered++
	if !g.open {
		return nil
	}
	ids := make([]OperationID, len(pending))
	for i, op := range pending {
		ids[i] = op.ID
	}
	return ids
}

func (g *gateController) OperationComplete(topology.RegionID, Operation) { g.completed++ }

func TestControllerGatesNegotiableOps(t *testing.T) {
	loop, m, rl := newTestManager(t)
	g := &gateController{}
	m.SetController(g)
	m.CreateJob("app", 2)
	loop.RunFor(time.Minute)
	cid := m.RunningContainers("app")[0]
	m.Submit(Operation{Container: cid, Negotiable: true})
	loop.RunFor(time.Minute)
	if rl.starts(cid) != 1 {
		t.Fatal("unapproved op executed")
	}
	if g.offered == 0 {
		t.Fatal("controller never consulted")
	}
	if len(m.pending) != 1 {
		t.Fatalf("pending = %d, want 1", len(m.pending))
	}
	g.open = true
	loop.RunFor(5 * time.Minute)
	if rl.starts(cid) != 2 {
		t.Fatal("approved op did not execute")
	}
	if g.completed != 1 {
		t.Fatalf("completions = %d, want 1", g.completed)
	}
}

func TestNonNegotiableSkipsController(t *testing.T) {
	loop, m, rl := newTestManager(t)
	g := &gateController{} // closed gate
	m.SetController(g)
	m.CreateJob("app", 1)
	loop.RunFor(time.Minute)
	cid := m.RunningContainers("app")[0]
	m.Submit(Operation{Container: cid, Negotiable: false})
	loop.RunFor(5 * time.Minute)
	if rl.starts(cid) != 2 {
		t.Fatal("non-negotiable op blocked by controller")
	}
}

func TestRollingUpgradeBoundedConcurrency(t *testing.T) {
	loop := sim.NewLoop(1)
	m := NewManager(loop, testFleet(), "r1", DefaultOptions())
	m.CreateJob("app", 10)
	loop.RunFor(time.Minute)

	maxDown := 0
	loop.EveryL(time.Second, 0, func() {
		down := 10 - len(m.RunningContainers("app"))
		if down > maxDown {
			maxDown = down
		}
	})
	doneAt := time.Duration(0)
	m.RollingUpgrade("app", 3, "upgrade", func() { doneAt = loop.Now() })
	loop.RunFor(30 * time.Minute)
	if doneAt == 0 {
		t.Fatal("upgrade never completed")
	}
	if maxDown > 3 {
		t.Fatalf("max concurrent down = %d, want <= 3", maxDown)
	}
	if got := len(m.RunningContainers("app")); got != 10 {
		t.Fatalf("running after upgrade = %d", got)
	}
}

func TestKillAndRestoreMachine(t *testing.T) {
	loop, m, _ := newTestManager(t)
	m.CreateJob("app", 10)
	loop.RunFor(time.Minute)
	c0, _ := m.Container(m.RunningContainers("app")[0])
	m.KillMachine(c0.Machine)
	if !m.deadMachine[c0.Machine] {
		t.Fatal("machine still alive")
	}
	if got := len(m.RunningContainers("app")); got != 9 {
		t.Fatalf("running after kill = %d, want 9", got)
	}
	if u := stops(m, false); u != 1 {
		t.Fatalf("unplanned stops = %d", u)
	}
	m.RestoreMachine(c0.Machine)
	loop.RunFor(time.Minute)
	if got := len(m.RunningContainers("app")); got != 10 {
		t.Fatalf("running after restore = %d, want 10", got)
	}
}

func TestFailAndRecoverRegion(t *testing.T) {
	loop, m, _ := newTestManager(t)
	m.CreateJob("app", 8)
	loop.RunFor(time.Minute)
	m.FailRegion()
	if got := len(m.RunningContainers("app")); got != 0 {
		t.Fatalf("running after region failure = %d", got)
	}
	m.RecoverRegion()
	loop.RunFor(time.Minute)
	if got := len(m.RunningContainers("app")); got != 8 {
		t.Fatalf("running after recovery = %d", got)
	}
}

type maintRecorder struct {
	events []MaintenanceEvent
}

func (r *maintRecorder) MaintenanceScheduled(_ topology.RegionID, ev MaintenanceEvent) {
	r.events = append(r.events, ev)
}

func TestMaintenanceAdvanceNoticeAndImpact(t *testing.T) {
	loop, m, _ := newTestManager(t)
	mr := &maintRecorder{}
	m.AddMaintenanceListener(mr)
	m.CreateJob("app", 10)
	loop.RunFor(time.Minute)
	c0, _ := m.Container(m.RunningContainers("app")[0])
	m.ScheduleMaintenance([]topology.MachineID{c0.Machine}, loop.Now()+10*time.Minute, loop.Now()+20*time.Minute)
	if len(mr.events) != 1 {
		t.Fatal("no advance notice")
	}
	// Before start: machine is fine.
	loop.RunFor(5 * time.Minute)
	if m.deadMachine[c0.Machine] {
		t.Fatal("machine down before maintenance start")
	}
	// During: machine unavailable.
	loop.RunFor(6 * time.Minute)
	if !m.deadMachine[c0.Machine] {
		t.Fatal("machine up during maintenance")
	}
	// Stops from maintenance are planned.
	if p, u := stops(m, true), stops(m, false); p == 0 || u != 0 {
		t.Fatalf("stops: planned=%d unplanned=%d", p, u)
	}
	// After end: restored.
	loop.RunFor(15 * time.Minute)
	if m.deadMachine[c0.Machine] {
		t.Fatal("machine not restored after maintenance")
	}
	if got := len(m.RunningContainers("app")); got != 10 {
		t.Fatalf("running after maintenance = %d", got)
	}
}

// TestMachineContainersStopAndStartInIDOrder kills and restores a machine
// that holds two containers, ten times, then takes it down for maintenance:
// listeners must hear the stops and the starts in container-ID order every
// time, or a crash or restore is not reproducible from the seed.
func TestMachineContainersStopAndStartInIDOrder(t *testing.T) {
	loop, m, rl := newTestManager(t)
	m.CreateJob("app", 20) // two per machine of r1
	loop.RunFor(time.Minute)
	c0, _ := m.Container("app/0")
	on := m.ContainersOnMachine(c0.Machine)
	if len(on) != 2 {
		t.Fatalf("machine %s holds %v, want two containers", c0.Machine, on)
	}
	check := func(what string, got []ContainerID) {
		t.Helper()
		if !slices.Equal(got, on) {
			t.Fatalf("%s order = %v, want %v", what, got, on)
		}
	}
	for i := 0; i < 10; i++ {
		rl.stopping, rl.started = nil, nil
		m.KillMachine(c0.Machine)
		check("stopping", rl.stopping)
		m.RestoreMachine(c0.Machine)
		loop.RunFor(time.Minute)
		check("started", rl.started)
	}
	rl.stopping, rl.started = nil, nil
	m.ScheduleMaintenance([]topology.MachineID{c0.Machine}, loop.Now()+time.Minute, loop.Now()+2*time.Minute)
	loop.RunFor(5 * time.Minute)
	check("maintenance stopping", rl.stopping)
	check("maintenance started", rl.started)
}

func TestPanicsOnMisuse(t *testing.T) {
	loop, m, _ := newTestManager(t)
	m.CreateJob("app", 1)
	loop.RunFor(time.Minute)
	for name, fn := range map[string]func(){
		"dup job":        func() { m.CreateJob("app", 1) },
		"empty job":      func() { m.CreateJob("other", 0) },
		"unknown target": func() { m.Submit(Operation{Container: "nope"}) },
		"bad maint":      func() { m.ScheduleMaintenance(nil, 10, 5) },
		"unknown roll":   func() { m.RollingUpgrade("nope", 1, "", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
