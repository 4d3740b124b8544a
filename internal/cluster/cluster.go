// Package cluster implements a Twine-like regional cluster manager.
//
// The paper's Shard Manager does not start or stop containers itself; it
// negotiates with Facebook's cluster manager Twine [60] via the TaskControl
// protocol about *when* container lifecycle operations may safely execute
// (§4.1), and receives advance notice of non-negotiable maintenance events
// (§4.2). This package provides that substrate: jobs made of containers
// placed on machines, container restarts gated on an external Controller,
// rolling upgrades with a concurrency limit, scheduled maintenance with
// advance notice, and unplanned failure injection (machine and whole-region
// losses). A job's size is fixed when it is created, and its containers never
// change machine.
//
// One Manager governs one region; a geo-distributed application is hosted by
// several Managers, and a single TaskController coordinates approvals across
// all of them — exactly the cross-region scenario of §2.3.
package cluster

import (
	"fmt"
	"sort"
	"time"

	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// Scheduling labels for the kernel profiler (simprof): every timer the
// manager arms is attributed to a cluster cost center.
var (
	lbContainerStart = sim.LabelFor("cluster", "container_start")
	lbNegotiate      = sim.LabelFor("cluster", "negotiate")
	lbOpExec         = sim.LabelFor("cluster", "op_exec")
	lbMaintenance    = sim.LabelFor("cluster", "maintenance")
)

// JobID names a deployed application job within a region.
type JobID string

// ContainerID names one container (task) of a job. Container IDs are stable
// across restarts in place, matching Twine tasks.
type ContainerID string

// OperationID names a pending or executing lifecycle operation.
type OperationID int64

// ContainerState enumerates the observable states of a container.
type ContainerState int

// Container states.
const (
	StateRunning ContainerState = iota
	StateDown                   // stopped, restarting, or lost
)

// Operation is one requested container restart.
type Operation struct {
	ID        OperationID
	Container ContainerID
	// Reason is a free-form tag ("upgrade", "canary", ...).
	Reason string
	// Negotiable operations wait for Controller approval; non-negotiable
	// ones execute without asking.
	Negotiable bool
}

// Container is one task of a job bound to a machine.
type Container struct {
	ID      ContainerID
	Job     JobID
	Machine topology.MachineID
	State   ContainerState
}

// Job is a named group of containers for one application.
type Job struct {
	containers []ContainerID
}

// Controller is the TaskControl protocol seen from the cluster manager's
// side: the manager offers pending operations and the controller returns the
// subset that is safe to execute now; the manager reports each completion so
// the controller can approve the next batch (§4.1).
type Controller interface {
	// OfferOperations presents the currently pending negotiable
	// operations in one region and returns the IDs approved to execute
	// immediately. Unapproved operations stay pending and are offered
	// again on the next negotiation round.
	OfferOperations(region topology.RegionID, pending []Operation) []OperationID
	// OperationComplete reports that an approved operation finished.
	OperationComplete(region topology.RegionID, op Operation)
}

// MaintenanceEvent is an unavoidable infrastructure event with advance
// notice.
type MaintenanceEvent struct {
	Machines []topology.MachineID
	Start    time.Duration
	End      time.Duration
}

// MaintenanceListener receives advance notice of maintenance events so that
// SM can proactively drain or demote replicas (§4.2).
type MaintenanceListener interface {
	MaintenanceScheduled(region topology.RegionID, ev MaintenanceEvent)
}

// Listener observes container state transitions. The application-server
// runtime uses it to spawn and kill server processes.
type Listener interface {
	// ContainerStarted fires when a container reaches StateRunning.
	ContainerStarted(c Container)
	// ContainerStopping fires when a container begins going down for any
	// reason (op execution, failure, maintenance). The process is about
	// to die; requests routed to it will fail.
	ContainerStopping(c Container, reason string)
}

// Options configure a Manager's timing.
type Options struct {
	// StartDuration is the time to cold-start a container.
	StartDuration time.Duration
	// RestartDuration is the in-place restart time (binary swap).
	RestartDuration time.Duration
	// NegotiationDelay batches pending ops before offering them to the
	// controller.
	NegotiationDelay time.Duration
}

// DefaultOptions mirror production-ish magnitudes at simulation scale.
func DefaultOptions() Options {
	return Options{
		StartDuration:    30 * time.Second,
		RestartDuration:  60 * time.Second,
		NegotiationDelay: 1 * time.Second,
	}
}

// Manager is the per-region cluster manager.
type Manager struct {
	Region topology.RegionID

	loop  *sim.Loop
	fleet *topology.Fleet
	opts  Options

	controller  Controller
	maintaince  []MaintenanceListener
	listeners   []Listener
	jobs        map[JobID]*Job
	containers  map[ContainerID]*Container
	perMachine  map[topology.MachineID]int // running containers per machine
	deadMachine map[topology.MachineID]bool

	nextOp      OperationID
	pending     []*Operation
	tracked     map[OperationID]func()
	negotiating bool
}

// NewManager returns a manager for the machines of one region of the fleet.
func NewManager(loop *sim.Loop, fleet *topology.Fleet, region topology.RegionID, opts Options) *Manager {
	if len(fleet.MachinesInRegion(region)) == 0 {
		panic(fmt.Sprintf("cluster: region %q has no machines", region))
	}
	return &Manager{
		Region:      region,
		loop:        loop,
		fleet:       fleet,
		opts:        opts,
		jobs:        make(map[JobID]*Job),
		containers:  make(map[ContainerID]*Container),
		perMachine:  make(map[topology.MachineID]int),
		deadMachine: make(map[topology.MachineID]bool),
	}
}

// SetController installs the TaskControl peer. A nil controller approves
// everything immediately (legacy applications without SM).
func (m *Manager) SetController(c Controller) { m.controller = c }

// AddListener registers a container-lifecycle observer.
func (m *Manager) AddListener(l Listener) { m.listeners = append(m.listeners, l) }

// AddMaintenanceListener registers for advance maintenance notices.
func (m *Manager) AddMaintenanceListener(l MaintenanceListener) {
	m.maintaince = append(m.maintaince, l)
}

// Container returns a copy of the container's current state.
func (m *Manager) Container(id ContainerID) (Container, bool) {
	c, ok := m.containers[id]
	if !ok {
		return Container{}, false
	}
	return *c, true
}

// RunningContainers returns the IDs of all running containers of a job.
func (m *Manager) RunningContainers(job JobID) []ContainerID {
	j := m.jobs[job]
	if j == nil {
		return nil
	}
	var out []ContainerID
	for _, id := range j.containers {
		if c := m.containers[id]; c != nil && c.State == StateRunning {
			out = append(out, id)
		}
	}
	return out
}

// CreateJob deploys a job with n containers spread across the region's
// machines (fewest-containers-first placement) and starts them immediately
// (initial placement is not negotiable — there are no shards yet). Container
// IDs are "<job>/<index>".
func (m *Manager) CreateJob(id JobID, n int) *Job {
	if _, dup := m.jobs[id]; dup {
		panic(fmt.Sprintf("cluster: duplicate job %q", id))
	}
	if n <= 0 {
		panic("cluster: CreateJob with no containers")
	}
	j := &Job{}
	m.jobs[id] = j
	for i := 0; i < n; i++ {
		cid := ContainerID(fmt.Sprintf("%s/%d", id, i))
		machine := m.pickMachine()
		c := &Container{ID: cid, Job: id, Machine: machine, State: StateDown}
		m.containers[cid] = c
		m.perMachine[machine]++
		j.containers = append(j.containers, cid)
		m.startContainer(c, "deploy")
	}
	return j
}

// pickMachine returns the live machine with the fewest containers.
func (m *Manager) pickMachine() topology.MachineID {
	var best topology.MachineID
	bestN := -1
	for _, mach := range m.fleet.MachinesInRegion(m.Region) {
		if m.deadMachine[mach.ID] {
			continue
		}
		n := m.perMachine[mach.ID]
		if bestN == -1 || n < bestN {
			best, bestN = mach.ID, n
		}
	}
	if bestN == -1 {
		panic(fmt.Sprintf("cluster: no live machines in region %q", m.Region))
	}
	return best
}

func (m *Manager) startContainer(c *Container, reason string) {
	m.loop.AfterL(m.opts.StartDuration, lbContainerStart, func() {
		if m.deadMachine[c.Machine] {
			return // machine died while starting
		}
		if c.State == StateRunning {
			return
		}
		m.containerUp(c)
	})
}

// containerUp transitions a container to StateRunning and notifies
// listeners. Every start path (cold start, restart, machine restore)
// funnels through here so the running-container metrics stay
// consistent.
func (m *Manager) containerUp(c *Container) {
	c.State = StateRunning
	if mr := m.loop.Metrics(); mr != nil {
		mr.Counter("cluster_container_starts_total",
			"region", string(m.Region), "job", string(c.Job)).Inc()
		mr.Gauge("cluster_containers_running",
			"region", string(m.Region), "job", string(c.Job)).Add(1)
	}
	for _, l := range m.listeners {
		l.ContainerStarted(*c)
	}
}

// stopContainer takes the container down now. planned labels the stop as a
// planned event (Fig 1 accounting) in cluster_container_stops_total.
func (m *Manager) stopContainer(c *Container, reason string, planned bool) {
	if c.State == StateDown {
		return
	}
	if mr := m.loop.Metrics(); mr != nil {
		mr.Counter("cluster_container_stops_total",
			"region", string(m.Region), "job", string(c.Job),
			"planned", fmt.Sprintf("%t", planned)).Inc()
		mr.Gauge("cluster_containers_running",
			"region", string(m.Region), "job", string(c.Job)).Add(-1)
	}
	for _, l := range m.listeners {
		l.ContainerStopping(*c, reason)
	}
	c.State = StateDown
}

// Submit queues a restart. Negotiable operations wait for controller
// approval; others execute after NegotiationDelay without asking. It returns
// the assigned operation ID.
func (m *Manager) Submit(op Operation) OperationID {
	if m.containers[op.Container] == nil {
		panic(fmt.Sprintf("cluster: Submit for unknown container %q", op.Container))
	}
	m.nextOp++
	op.ID = m.nextOp
	m.pending = append(m.pending, &op)
	m.scheduleNegotiation()
	return op.ID
}

// scheduleNegotiation coalesces negotiation rounds.
func (m *Manager) scheduleNegotiation() {
	if m.negotiating {
		return
	}
	m.negotiating = true
	m.loop.AfterL(m.opts.NegotiationDelay, lbNegotiate, func() {
		m.negotiating = false
		m.negotiate()
	})
}

// negotiate offers pending negotiable ops to the controller and executes the
// approved subset plus all non-negotiable ops.
func (m *Manager) negotiate() {
	if len(m.pending) == 0 {
		return
	}
	var negotiable []Operation
	for _, op := range m.pending {
		if op.Negotiable {
			negotiable = append(negotiable, *op)
		}
	}
	approved := make(map[OperationID]bool)
	if m.controller == nil {
		for _, op := range negotiable {
			approved[op.ID] = true
		}
	} else if len(negotiable) > 0 {
		for _, id := range m.controller.OfferOperations(m.Region, negotiable) {
			approved[id] = true
		}
	}
	var stillPending []*Operation
	var toRun []*Operation
	for _, op := range m.pending {
		if !op.Negotiable || approved[op.ID] {
			toRun = append(toRun, op)
		} else {
			stillPending = append(stillPending, op)
		}
	}
	m.pending = stillPending
	for _, op := range toRun {
		m.execute(op)
	}
	// Keep negotiating while work remains; completion also re-arms.
	if len(m.pending) > 0 {
		m.scheduleNegotiation()
	}
}

// execute restarts an approved operation's container in place; a container
// already down completes it at once.
func (m *Manager) execute(op *Operation) {
	done := func() {
		if op.Negotiable && m.controller != nil {
			m.controller.OperationComplete(m.Region, *op)
		}
		if len(m.pending) > 0 {
			m.scheduleNegotiation()
		}
	}
	if cb := m.tracked[op.ID]; cb != nil {
		delete(m.tracked, op.ID)
		inner := done
		done = func() {
			inner()
			cb()
		}
	}
	c := m.containers[op.Container]
	if c.State == StateDown {
		done()
		return
	}
	m.stopContainer(c, op.Reason, true)
	m.loop.AfterL(m.opts.RestartDuration, lbOpExec, func() {
		if !m.deadMachine[c.Machine] {
			m.containerUp(c)
		}
		done()
	})
}

// RollingUpgrade submits negotiable restart operations for every container
// of the job, tagged with the given reason. The controller (if any) paces
// them; with no controller, maxConcurrent bounds how many restart at once
// (Twine's own default pacing). onDone, if non-nil, fires when every
// container has been restarted.
func (m *Manager) RollingUpgrade(job JobID, maxConcurrent int, reason string, onDone func()) {
	j := m.jobs[job]
	if j == nil {
		panic(fmt.Sprintf("cluster: RollingUpgrade of unknown job %q", job))
	}
	if maxConcurrent <= 0 {
		maxConcurrent = 1
	}
	remaining := append([]ContainerID(nil), j.containers...)
	inFlight := 0
	var pump func()
	var complete func()
	complete = func() {
		inFlight--
		pump()
	}
	pump = func() {
		for inFlight < maxConcurrent && len(remaining) > 0 {
			cid := remaining[0]
			remaining = remaining[1:]
			inFlight++
			m.submitTracked(Operation{
				Container:  cid,
				Negotiable: true,
				Reason:     reason,
			}, complete)
		}
		if inFlight == 0 && len(remaining) == 0 && onDone != nil {
			done := onDone
			onDone = nil
			done()
		}
	}
	pump()
}

// tracked completion callbacks keyed by op ID.
func (m *Manager) submitTracked(op Operation, onDone func()) {
	id := m.Submit(op)
	if m.tracked == nil {
		m.tracked = make(map[OperationID]func())
	}
	m.tracked[id] = onDone
}

// ScheduleMaintenance registers a non-negotiable maintenance event and
// notifies maintenance listeners immediately (the advance notice). From
// event start the machines are unreachable, their containers down; at event
// end they recover.
func (m *Manager) ScheduleMaintenance(machines []topology.MachineID, start, end time.Duration) MaintenanceEvent {
	if end <= start {
		panic("cluster: maintenance end before start")
	}
	ev := MaintenanceEvent{
		Machines: append([]topology.MachineID(nil), machines...),
		Start:    start,
		End:      end,
	}
	m.loop.Metrics().Counter("cluster_maintenance_total", "region", string(m.Region)).Inc()
	for _, l := range m.maintaince {
		l.MaintenanceScheduled(m.Region, ev)
	}
	m.loop.AtL(start, lbMaintenance, func() { m.beginMaintenance(ev) })
	return ev
}

func (m *Manager) beginMaintenance(ev MaintenanceEvent) {
	for _, mach := range ev.Machines {
		m.killMachineInternal(mach, "maintenance", true)
	}
	m.loop.AtL(ev.End, lbMaintenance, func() {
		for _, mach := range ev.Machines {
			m.RestoreMachine(mach)
		}
	})
}

// KillMachine simulates an unplanned machine failure: all its containers
// stop (unplanned) and the machine accepts no new containers until restored.
func (m *Manager) KillMachine(id topology.MachineID) {
	m.killMachineInternal(id, "machine-failure", false)
}

func (m *Manager) killMachineInternal(id topology.MachineID, reason string, planned bool) {
	if m.deadMachine[id] {
		return
	}
	m.deadMachine[id] = true
	for _, cid := range m.ContainersOnMachine(id) {
		m.stopContainer(m.containers[cid], reason, planned)
	}
}

// RestoreMachine brings a failed machine back; its containers restart in
// place after StartDuration.
func (m *Manager) RestoreMachine(id topology.MachineID) {
	if !m.deadMachine[id] {
		return
	}
	delete(m.deadMachine, id)
	for _, cid := range m.ContainersOnMachine(id) {
		if c := m.containers[cid]; c.State == StateDown {
			m.startContainer(c, "machine-restore")
		}
	}
}

// FailRegion kills every machine in the region (whole-region outage).
func (m *Manager) FailRegion() {
	for _, mach := range m.fleet.MachinesInRegion(m.Region) {
		m.KillMachine(mach.ID)
	}
}

// RecoverRegion restores every machine in the region.
func (m *Manager) RecoverRegion() {
	for _, mach := range m.fleet.MachinesInRegion(m.Region) {
		m.RestoreMachine(mach.ID)
	}
}

// ContainersOnMachine returns the IDs of containers currently placed on the
// machine (any state), sorted for determinism.
func (m *Manager) ContainersOnMachine(id topology.MachineID) []ContainerID {
	var out []ContainerID
	for cid, c := range m.containers {
		if c.Machine == id {
			out = append(out, cid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
