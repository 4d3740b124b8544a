// Package taskcontroller implements SM's TaskController (§4.1-§4.2): the
// component that speaks the TaskControl protocol with one or more regional
// cluster managers and decides *when* container lifecycle operations may
// safely execute.
//
// For negotiable events (software upgrades: container restarts) the
// TaskController never approves unsafe operations: it enforces the
// application's preconfigured policy — whether to drain shards out of
// impacted containers, a global cap on concurrent container operations, and a
// per-shard cap on simultaneously unavailable replicas — counting replicas
// that are already unavailable due to ongoing unplanned outages. Because one TaskController
// receives notifications from every involved cluster manager, it coordinates
// operations across geo-distributed regions: two regions restarting two
// containers that happen to host two replicas of the same shard will have
// one of them delayed (§2.3, §4.1).
//
// For non-negotiable events (network-loss maintenance) it receives advance
// notice and demotes the affected primaries before the event starts (§4.2).
// The paper's destructive maintenance, which drains instead, is not
// reproduced: no run schedules it.
package taskcontroller

import (
	"sort"
	"time"

	"shardmanager/internal/cluster"
	"shardmanager/internal/metrics"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// ShardStateProvider is the orchestrator-facing dependency: the
// TaskController is "guided by SM's knowledge of the shard-to-container
// assignment" (§4.1).
type ShardStateProvider interface {
	// AliveReplicas returns, for each shard with a replica on the
	// server, how many replicas are currently alive.
	AliveReplicas(server shard.ServerID) map[shard.ID]int
	// TotalReplicas returns the configured replica count of a shard.
	TotalReplicas(s shard.ID) int
	// ShardsOnServer returns how many replicas the server holds.
	ShardsOnServer(server shard.ServerID) int
	// Drain moves every replica off the server, then calls onDone.
	Drain(server shard.ServerID, onDone func())
	// CancelDrain clears the draining mark.
	CancelDrain(server shard.ServerID)
	// DemotePrimaries demotes the server's primaries, promoting
	// secondaries elsewhere.
	DemotePrimaries(server shard.ServerID)
}

// Policy is the application's preconfigured TaskController policy (§4.1).
type Policy struct {
	// DrainOnRestart drains shards out of a container before approving
	// its restart (Fig 8: most applications drain primaries).
	DrainOnRestart bool
	// MaxConcurrentOps is the global cap on concurrent container
	// operations across all regions (e.g. 10% of containers). <= 0
	// means 1.
	MaxConcurrentOps int
	// MaxUnavailableReplicas is the per-shard cap on replicas that may
	// be temporarily unavailable at once (default 1).
	MaxUnavailableReplicas int
}

// maintenanceLead is how far before a non-negotiable event's start the
// controller begins preparing.
const maintenanceLead = 2 * time.Minute

// DefaultPolicy drains before restarts with a global cap of maxOps.
func DefaultPolicy(maxOps int) Policy {
	return Policy{
		DrainOnRestart:         true,
		MaxConcurrentOps:       maxOps,
		MaxUnavailableReplicas: 1,
	}
}

type opState int

const (
	opDraining  opState = iota // waiting for the orchestrator to drain
	opReady                    // drained (or no drain needed): approve next round
	opExecuting                // approved; cluster manager is executing
)

type trackedOp struct {
	op    cluster.Operation
	state opState
}

// Scheduling labels for the kernel profiler (simprof).
var (
	lbMaintPrepare = sim.LabelFor("taskcontroller", "maint_prepare")
	lbMaintRelease = sim.LabelFor("taskcontroller", "maint_release")
)

// Controller is one application's TaskController. Register it with every
// regional cluster manager hosting the application (SetController +
// AddMaintenanceListener).
type Controller struct {
	loop   *sim.Loop
	shards ShardStateProvider
	policy Policy

	// ops tracks container operations by container (at most one tracked
	// op per container at a time).
	ops      map[cluster.ContainerID]*trackedOp
	managers map[topology.RegionID]*cluster.Manager

	// Stats.
	Approved  metrics.Counter
	Delayed   metrics.Counter // approval deferrals (per negotiation round)
	Drains    metrics.Counter
	Demotions metrics.Counter
}

// New creates a TaskController for one application.
func New(loop *sim.Loop, shards ShardStateProvider, policy Policy) *Controller {
	if policy.MaxConcurrentOps <= 0 {
		policy.MaxConcurrentOps = 1
	}
	if policy.MaxUnavailableReplicas <= 0 {
		policy.MaxUnavailableReplicas = 1
	}
	return &Controller{
		loop:     loop,
		shards:   shards,
		policy:   policy,
		ops:      make(map[cluster.ContainerID]*trackedOp),
		managers: make(map[topology.RegionID]*cluster.Manager),
	}
}

// Attach registers the controller with a regional cluster manager for both
// the TaskControl protocol and maintenance notices.
func (c *Controller) Attach(mgr *cluster.Manager) {
	mgr.SetController(c)
	mgr.AddMaintenanceListener(c)
	c.managers[mgr.Region] = mgr
}

// inFlight counts tracked operations occupying global-cap slots.
func (c *Controller) inFlight() int { return len(c.ops) }

// OfferOperations implements cluster.Controller. It returns the subset of
// pending operations that is safe to execute now; for drain-policy apps it
// starts draining impacted containers and approves them once empty.
func (c *Controller) OfferOperations(region topology.RegionID, pending []cluster.Operation) []cluster.OperationID {
	// Deterministic processing order.
	sorted := append([]cluster.Operation(nil), pending...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	var approved []cluster.OperationID
	for _, op := range sorted {
		tracked := c.ops[op.Container]
		if tracked != nil {
			switch tracked.state {
			case opReady:
				tracked.state = opExecuting
				approved = append(approved, op.ID)
				c.Approved.Inc()
			case opDraining, opExecuting:
				c.Delayed.Inc()
			}
			continue
		}
		// New operation: admit it into a global-cap slot if available
		// and the per-shard cap allows taking this container down.
		if c.inFlight() >= c.policy.MaxConcurrentOps {
			c.Delayed.Inc()
			continue
		}
		if !c.shardCapAllows(op.Container) {
			c.Delayed.Inc()
			continue
		}
		needsDrain := c.policy.DrainOnRestart &&
			c.shards.ShardsOnServer(shard.ServerID(op.Container)) > 0
		t := &trackedOp{op: op}
		c.ops[op.Container] = t
		if !needsDrain {
			t.state = opExecuting
			approved = append(approved, op.ID)
			c.Approved.Inc()
			continue
		}
		t.state = opDraining
		c.Drains.Inc()
		container := op.Container
		c.shards.Drain(shard.ServerID(container), func() {
			if cur := c.ops[container]; cur == t && t.state == opDraining {
				t.state = opReady
			}
		})
	}
	return approved
}

// shardCapAllows checks the per-shard unavailability cap for taking the
// container down now: for every shard hosted on it, the number of replicas
// that would be unavailable (already-dead ones, replicas on containers with
// in-flight ops, plus this one) must stay within the cap.
func (c *Controller) shardCapAllows(container cluster.ContainerID) bool {
	alive := c.shards.AliveReplicas(shard.ServerID(container))
	// Every other container with a tracked op puts its replicas at risk, in
	// whatever state the op is: a draining container sheds replicas but holds
	// them until empty, an approved or executing one implies downtime.
	var atRisk []map[shard.ID]int
	for other := range c.ops {
		if other != container {
			atRisk = append(atRisk, c.shards.AliveReplicas(shard.ServerID(other)))
		}
	}
	for s, aliveCount := range alive {
		unavailable := c.shards.TotalReplicas(s) - aliveCount
		for _, held := range atRisk {
			if _, ok := held[s]; ok {
				unavailable++
			}
		}
		if unavailable+1 > c.policy.MaxUnavailableReplicas {
			return false
		}
	}
	return true
}

// OperationComplete implements cluster.Controller.
func (c *Controller) OperationComplete(region topology.RegionID, op cluster.Operation) {
	t := c.ops[op.Container]
	if t == nil || t.op.ID != op.ID {
		return
	}
	delete(c.ops, op.Container)
	// The container may take shards again.
	c.shards.CancelDrain(shard.ServerID(op.Container))
}

// MaintenanceScheduled implements cluster.MaintenanceListener: prepare for
// the non-negotiable event before it starts (§4.2).
func (c *Controller) MaintenanceScheduled(region topology.RegionID, ev cluster.MaintenanceEvent) {
	mgr := c.managers[region]
	if mgr == nil {
		return
	}
	prepareAt := ev.Start - maintenanceLead
	c.loop.AtL(prepareAt, lbMaintPrepare, func() {
		for _, machine := range ev.Machines {
			for _, container := range mgr.ContainersOnMachine(machine) {
				// Short blip: keep secondaries in place, demote
				// primaries so writes keep flowing (the paper's
				// rack-switch example).
				c.Demotions.Inc()
				c.shards.DemotePrimaries(shard.ServerID(container))
			}
		}
	})
	// When the event ends, let the machines take shards again.
	c.loop.AtL(ev.End, lbMaintRelease, func() {
		for _, machine := range ev.Machines {
			for _, container := range mgr.ContainersOnMachine(machine) {
				c.shards.CancelDrain(shard.ServerID(container))
			}
		}
	})
}
