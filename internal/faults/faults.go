// Package faults is the deterministic fault-injection subsystem: it
// schedules composable fault scenarios on the simulation loop, in the spirit
// of Jepsen-style partition testing and Twine's maintenance-event model. A
// Scenario is a timeline of Events; each Event applies an Action at a
// simulated time and, when given a duration, reverts it afterwards. Actions
// cover the failure classes the paper's evaluation (§8) exercises and the
// ones production postmortems add on top:
//
//   - crash faults: machine, rack, datacenter, or whole region loss
//     (driven through the regional cluster managers, so container
//     restarts and failover take their normal paths);
//   - network faults: symmetric and asymmetric region partitions,
//     per-link latency inflation, and packet loss (installed in rpcnet);
//   - coordination faults: session expiry (false-dead servers) and
//     znode-write stalls (coord.SetWriteGate);
//   - gray failures: slow-but-alive servers that pass liveness checks
//     while stalling every request.
//
// Scenarios come from Go code (NewScenario + Add) or from the text DSL
// parsed by ParseSpec ("t=60s partition(region-a|region-b) for 120s"),
// which cmd/smbench and cmd/smctl expose as flags. Everything runs on the
// sim loop and draws no randomness, so a seeded run with a scenario is as
// reproducible as one without.
package faults

import (
	"fmt"
	"sort"
	"time"

	"shardmanager/internal/appserver"
	"shardmanager/internal/cluster"
	"shardmanager/internal/coord"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
)

// Kernel-profiler attribution labels for injector timers.
var (
	lbApply  = sim.LabelFor("faults", "apply")
	lbRevert = sim.LabelFor("faults", "revert")
)

// Env holds the handles an injector needs into a simulated world. Any field
// an action does not touch may be nil; applying an action against a missing
// handle panics with the action's name, which is the desired loud failure
// for a mis-wired experiment.
type Env struct {
	Loop     *sim.Loop
	Fleet    *topology.Fleet
	Net      *rpcnet.Network
	Store    *coord.Store
	Managers map[topology.RegionID]*cluster.Manager
	Hosts    map[topology.RegionID]*appserver.Host
}

// Action is one injectable fault. Apply and Revert run on the sim loop;
// Revert must undo Apply (actions whose effect heals by itself, like
// session expiry with a reconnect, make it a no-op).
type Action interface {
	// Name is a short stable kind label ("partition", "crash-rack", ...)
	// used in traces, metrics, and String().
	Name() string
	// Describe returns the action as ParseSpec's DSL spells it.
	Describe() string
	Apply(env *Env)
	Revert(env *Env)
}

// Event is one scheduled fault.
type Event struct {
	// At is the simulated time the action is applied.
	At time.Duration
	// For, when positive, reverts the action at At+For; zero means the
	// fault is permanent (or heals through its own mechanism).
	For    time.Duration
	Action Action
}

// String renders the event in the DSL's own syntax.
func (e Event) String() string {
	s := fmt.Sprintf("t=%s %s", e.At, e.Action.Describe())
	if e.For > 0 {
		s += fmt.Sprintf(" for %s", e.For)
	}
	return s
}

// Scenario is an ordered fault timeline.
type Scenario struct {
	Events []Event
}

// NewScenario returns an empty timeline.
func NewScenario() *Scenario { return &Scenario{} }

// Add appends one event: apply action at time at, and if dur > 0 revert it
// at at+dur. Returns the scenario for chaining.
func (s *Scenario) Add(at, dur time.Duration, action Action) *Scenario {
	s.Events = append(s.Events, Event{At: at, For: dur, Action: action})
	return s
}

// String renders the whole timeline, one event per line, in time order.
func (s *Scenario) String() string {
	evs := append([]Event(nil), s.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	out := ""
	for i, e := range evs {
		if i > 0 {
			out += "\n"
		}
		out += e.String()
	}
	return out
}

// Injector binds a scenario to an environment and schedules it on the loop.
type Injector struct {
	env *Env

	// Injected and Reverted count fault applications, for tests and smctl.
	Injected int
	Reverted int
}

// NewInjector returns an injector over env.
func NewInjector(env *Env) *Injector {
	if env == nil || env.Loop == nil {
		panic("faults: injector needs an Env with a Loop")
	}
	return &Injector{env: env}
}

// Schedule arms every event of the scenario on the sim loop. Call before
// (or while) running the loop; events in the past fire immediately on the
// next step.
func (in *Injector) Schedule(s *Scenario) {
	for _, ev := range s.Events {
		ev := ev
		in.env.Loop.AtL(ev.At, lbApply, func() { in.apply(ev) })
	}
}

func (in *Injector) apply(ev Event) {
	loop := in.env.Loop
	tr := loop.Tracer()
	var sp trace.SpanID
	if tr.Enabled() {
		sp = tr.StartSpan("faults", ev.Action.Name(), 0,
			trace.String("fault", ev.Action.Describe()),
			trace.Dur("for", ev.For))
	}
	loop.Metrics().Counter("faults_injected_total", "kind", ev.Action.Name()).Inc()
	ev.Action.Apply(in.env)
	in.Injected++
	if ev.For <= 0 {
		if tr.Enabled() {
			tr.EndSpan(sp, trace.String("status", "permanent"))
		}
		return
	}
	loop.AfterL(ev.For, lbRevert, func() {
		ev.Action.Revert(in.env)
		in.Reverted++
		loop.Metrics().Counter("faults_reverted_total", "kind", ev.Action.Name()).Inc()
		if tr.Enabled() {
			tr.EndSpan(sp, trace.String("status", "reverted"))
		}
	})
}

// manager returns the cluster manager owning region r.
func (e *Env) manager(r topology.RegionID) *cluster.Manager {
	m := e.Managers[r]
	if m == nil {
		panic(fmt.Sprintf("faults: no cluster manager for region %q", r))
	}
	return m
}

// host returns the appserver host for region r.
func (e *Env) host(r topology.RegionID) *appserver.Host {
	h := e.Hosts[r]
	if h == nil {
		panic(fmt.Sprintf("faults: no appserver host for region %q", r))
	}
	return h
}

// --- network faults ---

// linkAction installs the same LinkFault on a set of directed links.
type linkAction struct {
	name  string
	pairs [][2]topology.RegionID
	fault rpcnet.LinkFault
}

func (a *linkAction) Name() string { return a.name }

func (a *linkAction) Describe() string {
	sep := ">" // one directed link
	if len(a.pairs) == 2 {
		sep = "|" // both directions
	}
	desc := fmt.Sprintf("%s(%s%s%s", a.name, a.pairs[0][0], sep, a.pairs[0][1])
	switch {
	case a.name == "loss":
		desc += fmt.Sprintf(", %g", a.fault.DropProb)
	case a.fault.LatencyScale > 0:
		desc += fmt.Sprintf(", x%g", a.fault.LatencyScale)
	case a.fault.LatencyAdd > 0:
		desc += fmt.Sprintf(", +%s", a.fault.LatencyAdd)
	}
	return desc + ")"
}

func (a *linkAction) Apply(env *Env) {
	for _, p := range a.pairs {
		env.Net.SetLinkFault(p[0], p[1], a.fault)
	}
}

func (a *linkAction) Revert(env *Env) {
	for _, p := range a.pairs {
		env.Net.ClearLinkFault(p[0], p[1])
	}
}

func bothWays(a, b topology.RegionID) [][2]topology.RegionID {
	return [][2]topology.RegionID{{a, b}, {b, a}}
}

// Partition drops all traffic between a and b, both directions.
func Partition(a, b topology.RegionID) Action {
	return &linkAction{name: "partition", pairs: bothWays(a, b),
		fault: rpcnet.LinkFault{DropProb: 1}}
}

// PartitionOneWay drops all traffic from a to b only — the asymmetric
// partition that breaks naive failure detectors.
func PartitionOneWay(from, to topology.RegionID) Action {
	return &linkAction{name: "partition", pairs: [][2]topology.RegionID{{from, to}},
		fault: rpcnet.LinkFault{DropProb: 1}}
}

// LatencyScale multiplies the latency between a and b (both directions) by
// factor.
func LatencyScale(a, b topology.RegionID, factor float64) Action {
	return &linkAction{name: "latency", pairs: bothWays(a, b),
		fault: rpcnet.LinkFault{LatencyScale: factor}}
}

// LatencyAdd adds extra one-way delay between a and b (both directions).
func LatencyAdd(a, b topology.RegionID, extra time.Duration) Action {
	return &linkAction{name: "latency", pairs: bothWays(a, b),
		fault: rpcnet.LinkFault{LatencyAdd: extra}}
}

// PacketLoss drops each message between a and b (both directions) with
// probability p.
func PacketLoss(a, b topology.RegionID, p float64) Action {
	return &linkAction{name: "loss", pairs: bothWays(a, b),
		fault: rpcnet.LinkFault{DropProb: p}}
}

// --- crash faults ---

// crashAction kills a deterministic set of machines and restores them on
// revert. Machines are resolved lazily at Apply time so a scenario can name
// domains before the fleet exists.
type crashAction struct {
	kind string // "machine", "rack", "dc", "region"
	arg  string
}

func (a *crashAction) Name() string { return "crash-" + a.kind }

func (a *crashAction) Describe() string {
	return fmt.Sprintf("crash(%s:%s)", a.kind, a.arg)
}

func (a *crashAction) machines(env *Env) []*topology.Machine {
	switch a.kind {
	case "machine":
		m := env.Fleet.Machine(topology.MachineID(a.arg))
		if m == nil {
			panic(fmt.Sprintf("faults: unknown machine %q", a.arg))
		}
		return []*topology.Machine{m}
	case "rack":
		return env.Fleet.MachinesInDomain(topology.LevelRack, a.arg)
	case "dc":
		return env.Fleet.MachinesInDomain(topology.LevelDatacenter, a.arg)
	case "region":
		return env.Fleet.MachinesInRegion(topology.RegionID(a.arg))
	default:
		panic(fmt.Sprintf("faults: unknown crash kind %q", a.kind))
	}
}

func (a *crashAction) Apply(env *Env) {
	ms := a.machines(env)
	if len(ms) == 0 {
		panic(fmt.Sprintf("faults: %s matches no machines", a.Describe()))
	}
	for _, m := range ms {
		env.manager(m.Region).KillMachine(m.ID)
	}
}

func (a *crashAction) Revert(env *Env) {
	for _, m := range a.machines(env) {
		env.manager(m.Region).RestoreMachine(m.ID)
	}
}

// CrashMachine kills one machine; revert restores it.
func CrashMachine(id topology.MachineID) Action {
	return &crashAction{kind: "machine", arg: string(id)}
}

// CrashRack kills every machine in a rack fault domain (the fully qualified
// name "region/dcN/rackNN" from Machine.Domain).
func CrashRack(domain string) Action { return &crashAction{kind: "rack", arg: domain} }

// CrashDatacenter kills every machine in a datacenter domain ("region/dcN").
func CrashDatacenter(domain string) Action { return &crashAction{kind: "dc", arg: domain} }

// CrashRegion kills every machine in a region.
func CrashRegion(r topology.RegionID) Action { return &crashAction{kind: "region", arg: string(r)} }

// --- coordination faults ---

// expireAction force-expires coordination sessions of live servers in one
// region: the orchestrator sees them die (ephemeral nodes vanish) while the
// processes keep serving — ZooKeeper's false-dead. The servers reconnect
// after Reconnect (0 = never).
type expireAction struct {
	region    topology.RegionID
	count     int // <= 0 means every server in the region
	reconnect time.Duration
}

func (a *expireAction) Name() string { return "expire-session" }

// Describe includes the clause's "for": the action absorbed it as the
// reconnect delay, so the event carries none.
func (a *expireAction) Describe() string {
	s := fmt.Sprintf("expire(%s)", a.region)
	if a.count > 0 {
		s = fmt.Sprintf("expire(%s, %d)", a.region, a.count)
	}
	if a.reconnect > 0 {
		s += fmt.Sprintf(" for %s", a.reconnect)
	}
	return s
}

func (a *expireAction) Apply(env *Env) {
	h := env.host(a.region)
	ids := h.ServerIDs()
	if a.count > 0 && a.count < len(ids) {
		ids = ids[:a.count]
	}
	for _, id := range ids {
		h.ExpireSession(id, a.reconnect)
	}
}

func (a *expireAction) Revert(*Env) {} // healing is the reconnect itself

// ExpireSessions expires the coordination sessions of the first count live
// servers (sorted by ID; count <= 0 means all) in the region. Each server
// reopens a session after reconnectAfter (0 = never).
func ExpireSessions(region topology.RegionID, count int, reconnectAfter time.Duration) Action {
	return &expireAction{region: region, count: count, reconnect: reconnectAfter}
}

// stallAction gates every mutating coordination-store operation with
// ErrUnavailable — the ensemble is up for reads but write-stalled, a classic
// ZooKeeper overload mode.
type stallAction struct{}

func (stallAction) Name() string     { return "coord-stall" }
func (stallAction) Describe() string { return "stall(coord)" }

func (stallAction) Apply(env *Env) {
	env.Store.SetWriteGate(func(op, path string) error {
		return fmt.Errorf("%w: write stall injected (%s %s)", coord.ErrUnavailable, op, path)
	})
}

func (stallAction) Revert(env *Env) { env.Store.SetWriteGate(nil) }

// CoordStall blocks all coordination-store writes until reverted.
func CoordStall() Action { return stallAction{} }

// --- gray failures ---

// grayAction makes servers slow-but-alive: liveness nodes stay up, the
// orchestrator keeps them in the map, but every request stalls by delay.
type grayAction struct {
	region topology.RegionID
	count  int // <= 0 means every server in the region
	delay  time.Duration
	// applied remembers exactly which servers were slowed, so Revert heals
	// them even if the region's server set changed in between.
	applied []*appserver.Server
}

func (a *grayAction) Name() string { return "gray" }

func (a *grayAction) Describe() string {
	if a.count > 0 {
		return fmt.Sprintf("gray(%s, %d, %s)", a.region, a.count, a.delay)
	}
	return fmt.Sprintf("gray(%s, %s)", a.region, a.delay)
}

func (a *grayAction) targets(env *Env) []*appserver.Server {
	h := env.host(a.region)
	ids := h.ServerIDs()
	if a.count > 0 && a.count < len(ids) {
		ids = ids[:a.count]
	}
	out := make([]*appserver.Server, 0, len(ids))
	for _, id := range ids {
		if srv := h.Server(id); srv != nil {
			out = append(out, srv)
		}
	}
	return out
}

func (a *grayAction) Apply(env *Env) {
	a.applied = a.targets(env)
	for _, srv := range a.applied {
		srv.SetServeDelay(a.delay)
	}
}

func (a *grayAction) Revert(*Env) {
	for _, srv := range a.applied {
		srv.SetServeDelay(0)
	}
	a.applied = nil
}

// Gray stalls every request on the first count live servers (sorted by ID;
// count <= 0 means all) in the region by delay, without touching liveness.
func Gray(region topology.RegionID, count int, delay time.Duration) Action {
	return &grayAction{region: region, count: count, delay: delay}
}
