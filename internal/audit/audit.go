// Package audit implements the runtime migration auditor: a passive
// observer that reconstructs per-shard ownership timelines from the hooks
// exposed by the orchestrator, application servers, service discovery, the
// coordination store, and routing clients, and checks the §4.3
// migration-safety invariants on every ownership-relevant event.
//
// The auditor is RNG-free by construction: every callback it attaches is a
// synchronous observer that draws no randomness, so enabling auditing never
// perturbs a seeded simulation — an audited run and a bare run of the same
// seed execute the identical event sequence. That property is what makes
// torture-seed sweeps trustworthy: a violation found under audit reproduces
// with the pinned seed alone.
//
// Invariants checked (the names are the metric label values):
//
//	one-primary                at most one active primary replica per shard
//	write-owner                no primary-routed write executes locally
//	                           while a second active primary exists (an
//	                           acked write one of them will never see)
//	serve-during-prepare-drop  a replica in the forwarding phase never
//	                           executes a request locally (§4.3 step 2:
//	                           after prepare_drop_shard the old owner must
//	                           forward, not serve)
//	stale-routing              no request outcome proves routing state is
//	                           permanently stale: success on a server
//	                           removed from the map more than staleBound
//	                           ago, or a final not-owner rejection more
//	                           than staleBound after the last publication
package audit

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"shardmanager/internal/appserver"
	"shardmanager/internal/coord"
	"shardmanager/internal/discovery"
	"shardmanager/internal/metrics"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
)

// Invariant names, used as the "invariant" label on audit metrics and in
// reports.
const (
	InvOnePrimary   = "one-primary"
	InvWriteOwner   = "write-owner"
	InvServePrepare = "serve-during-prepare-drop"
	InvStaleRouting = "stale-routing"
)

// Invariants lists all invariant names in report order.
var Invariants = []string{InvOnePrimary, InvServePrepare, InvStaleRouting, InvWriteOwner}

// Options configure an Auditor.
type Options struct {
	// App is the application under audit.
	App shard.AppID
}

const (
	// staleBound is how long routing state may lag reality before the
	// auditor calls it permanently stale. It must exceed the forwarding
	// tombstone TTL (30s) plus map-propagation delay plus client retry
	// backoff.
	staleBound = 45 * time.Second
	// maxTimeline bounds the per-shard ownership timeline ring. Older events
	// fall off the front.
	maxTimeline = 64
	// maxViolations bounds recorded violations with full timeline snapshots.
	// Beyond the cap violations are still counted, just not stored.
	maxViolations = 256
)

// Event is one entry in a shard's ownership timeline.
type Event struct {
	At     time.Duration `json:"at_ns"`
	Kind   string        `json:"kind"` // replica, step, migration, role, map, violation
	Detail string        `json:"detail"`
}

// Violation is one invariant breach, with a snapshot of the shard's
// ownership timeline up to (and including) the breach.
type Violation struct {
	At        time.Duration    `json:"at_ns"`
	Invariant string           `json:"invariant"`
	Shard     shard.ID         `json:"shard"`
	Servers   []shard.ServerID `json:"servers,omitempty"`
	Detail    string           `json:"detail"`
	Timeline  []Event          `json:"timeline,omitempty"`
}

// CoordWrite is one observed coordination-store mutation.
type CoordWrite struct {
	At   time.Duration `json:"at_ns"`
	Op   string        `json:"op"`
	Path string        `json:"path"`
}

// maxCoordWrites bounds the recent-coord-write ring kept for reports.
const maxCoordWrites = 32

// replicaView is the auditor's picture of one replica, rebuilt purely from
// ReplicaChanged / ReplicaConfirmed events.
type replicaView struct {
	role  shard.Role
	phase appserver.Phase
	// unconfirmed mirrors the server's restored-from-store flag: the replica
	// claims the primary role but rejects writes until an authoritative
	// grant confirms it, so it cannot conflict with the real owner.
	unconfirmed bool
}

// shardState is the auditor's per-shard bookkeeping.
type shardState struct {
	replicas  map[shard.ServerID]*replicaView
	inMap     map[shard.ServerID]shard.Role
	mapDesc   string
	mapSeen   bool
	removedAt map[shard.ServerID]time.Duration
	timeline  []Event

	// Dedup flags: one violation per episode, cleared when the episode
	// ends (the condition stops holding / the map entry changes).
	dualPrimary bool
	dualWrite   bool
	staleMap    bool
	staleSrv    map[shard.ServerID]bool
	servedFwd   map[shard.ServerID]bool
}

// Auditor observes one application's ownership events and checks the §4.3
// invariants. Create with New, attach with the Watch* methods, then read
// Violations / WriteText / Report after (or during) the run.
type Auditor struct {
	loop *sim.Loop
	app  shard.AppID
	// timelineCap bounds each shard's timeline: maxTimeline.
	timelineCap int

	shards map[shard.ID]*shardState
	// fencedSrv tracks servers currently in the self-fenced (lost-lease)
	// state: their active primaries neither serve nor accept writes, so
	// "two active primaries" is judged per generation — a fenced primary
	// cannot conflict with the one that superseded it.
	fencedSrv map[shard.ServerID]bool

	checks     map[string]int64
	violCounts map[string]int64
	violations []Violation
	dropped    int

	checkCtr map[string]*metrics.Counter
	violCtr  map[string]*metrics.Counter

	havePublish   bool
	lastPublishAt time.Duration
	lastVersion   int64

	coordWrites []CoordWrite
	coordOps    map[string]int64
	deliveries  map[string]int64
	rejects     map[string]int64
}

// New returns an auditor for opts.App. If the loop has a metrics registry,
// audit_checks_total / audit_violations_total counters are pre-registered
// for every invariant so the exposition is stable from the first scrape.
func New(loop *sim.Loop, opts Options) *Auditor {
	a := &Auditor{
		loop:        loop,
		app:         opts.App,
		timelineCap: maxTimeline,
		shards:      make(map[shard.ID]*shardState),
		fencedSrv:   make(map[shard.ServerID]bool),
		checks:      make(map[string]int64),
		violCounts:  make(map[string]int64),
		checkCtr:    make(map[string]*metrics.Counter),
		violCtr:     make(map[string]*metrics.Counter),
		coordOps:    make(map[string]int64),
		deliveries:  make(map[string]int64),
		rejects:     make(map[string]int64),
	}
	if mr := loop.Metrics(); mr != nil {
		mr.Describe("audit_checks_total", "Invariant evaluations performed by the runtime auditor.")
		mr.Describe("audit_violations_total", "Invariant violations detected by the runtime auditor.")
		for _, inv := range Invariants {
			a.checkCtr[inv] = mr.Counter("audit_checks_total", "invariant", inv)
			a.violCtr[inv] = mr.Counter("audit_violations_total", "invariant", inv)
		}
	}
	return a
}

func (a *Auditor) shard(s shard.ID) *shardState {
	st := a.shards[s]
	if st == nil {
		st = &shardState{
			replicas:  make(map[shard.ServerID]*replicaView),
			inMap:     make(map[shard.ServerID]shard.Role),
			removedAt: make(map[shard.ServerID]time.Duration),
			staleSrv:  make(map[shard.ServerID]bool),
			servedFwd: make(map[shard.ServerID]bool),
		}
		a.shards[s] = st
	}
	return st
}

// event appends one timeline entry, evicting the oldest past timelineCap.
func (a *Auditor) event(st *shardState, kind, detail string) {
	e := Event{At: a.loop.Now(), Kind: kind, Detail: detail}
	if len(st.timeline) >= a.timelineCap {
		copy(st.timeline, st.timeline[1:])
		st.timeline[len(st.timeline)-1] = e
		return
	}
	st.timeline = append(st.timeline, e)
}

// check counts one invariant evaluation.
func (a *Auditor) check(inv string) {
	a.checks[inv]++
	if c := a.checkCtr[inv]; c != nil {
		c.Inc()
	}
}

// violate records one invariant breach against shard s: a timeline marker,
// a stored Violation with the timeline snapshot (up to maxViolations), and
// the labeled metric.
func (a *Auditor) violate(inv string, s shard.ID, st *shardState, servers []shard.ServerID, detail string) {
	a.violCounts[inv]++
	if c := a.violCtr[inv]; c != nil {
		c.Inc()
	}
	a.event(st, "violation", inv+": "+detail)
	if len(a.violations) >= maxViolations {
		a.dropped++
		return
	}
	a.violations = append(a.violations, Violation{
		At:        a.loop.Now(),
		Invariant: inv,
		Shard:     s,
		Servers:   append([]shard.ServerID(nil), servers...),
		Detail:    detail,
		Timeline:  append([]Event(nil), st.timeline...),
	})
}

// activePrimaries returns the sorted servers whose replica of this shard is
// an active, serving primary — the set §4.3 requires to never exceed one.
// Fenced servers (lost lease, self-fenced, rejecting everything) and
// unconfirmed primaries (restored from a possibly-stale snapshot, rejecting
// writes) are excluded: they hold the primary role in name only and cannot
// conflict with the generation's true owner.
func (a *Auditor) activePrimaries(st *shardState) []shard.ServerID {
	var out []shard.ServerID
	for srv, v := range st.replicas {
		if v.role == shard.RolePrimary && v.phase == appserver.PhaseActive &&
			!v.unconfirmed && !a.fencedSrv[srv] {
			out = append(out, srv)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func joinServers(ids []shard.ServerID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return strings.Join(parts, ",")
}

// checkOnePrimary evaluates the one-primary invariant after any replica
// transition, firing at most one violation per dual-primary episode.
func (a *Auditor) checkOnePrimary(s shard.ID, st *shardState) {
	a.check(InvOnePrimary)
	prims := a.activePrimaries(st)
	if len(prims) >= 2 {
		if !st.dualPrimary {
			st.dualPrimary = true
			a.violate(InvOnePrimary, s, st, prims,
				fmt.Sprintf("%d active primaries: %s", len(prims), joinServers(prims)))
		}
		return
	}
	st.dualPrimary = false
	st.dualWrite = false
}

// --- attachment: one Watch* per observed subsystem ---

// WatchOrchestrator chains auditor hooks onto the orchestrator (coexisting
// with healthmon or any other observer).
func (a *Auditor) WatchOrchestrator(o *orchestrator.Orchestrator) {
	o.AddHooks(orchestrator.Hooks{
		MigrationStarted: func(s shard.ID, from, to shard.ServerID, graceful bool) {
			a.event(a.shard(s), "migration", fmt.Sprintf("start %s -> %s graceful=%v", from, to, graceful))
		},
		MigrationFinished: func(s shard.ID, ok bool) {
			a.event(a.shard(s), "migration", fmt.Sprintf("finished ok=%v", ok))
		},
		MigrationStep: func(s shard.ID, step string, server shard.ServerID, status string) {
			a.event(a.shard(s), "step", fmt.Sprintf("%s %s %s", step, server, status))
		},
		RoleChanged: func(s shard.ID, server shard.ServerID, from, to shard.Role) {
			a.event(a.shard(s), "role", fmt.Sprintf("%s %s -> %s", server, from, to))
		},
		MapDelta: a.onMap,
	})
}

// onMap folds one publication's changed entries into the auditor's view:
// per-shard map events, removal timestamps for the stale-routing bound, and
// the publication clock. Shards are visited in sorted order so timelines are
// deterministic; a shard the publication removes has no entry to describe and
// leaves no event.
func (a *Auditor) onMap(d *shard.Delta) {
	now := a.loop.Now()
	a.havePublish = true
	a.lastPublishAt = now
	a.lastVersion = d.ToVersion
	changed := append([]shard.DeltaEntry(nil), d.Changed...)
	sort.Slice(changed, func(i, j int) bool { return changed[i].Shard < changed[j].Shard })
	for _, e := range changed {
		s, as := e.Shard, e.Assignments
		desc := describeAssignments(as)
		st := a.shard(s)
		if st.mapSeen && desc == st.mapDesc {
			continue // unchanged assignment: no timeline noise
		}
		newSet := make(map[shard.ServerID]shard.Role, len(as))
		for _, asn := range as {
			newSet[asn.Server] = asn.Role
		}
		var removed []string
		for srv := range st.inMap {
			if _, ok := newSet[srv]; !ok {
				st.removedAt[srv] = now
				removed = append(removed, string(srv))
			}
		}
		sort.Strings(removed)
		for srv := range newSet {
			delete(st.removedAt, srv)
			delete(st.staleSrv, srv)
		}
		st.inMap = newSet
		st.mapDesc = desc
		st.mapSeen = true
		st.staleMap = false
		ev := fmt.Sprintf("v%d g%d %s", d.ToVersion, d.Gen, desc)
		if len(removed) > 0 {
			ev += " removed=" + strings.Join(removed, ",")
		}
		a.event(st, "map", ev)
	}
}

// describeAssignments renders an assignment list sorted by server, so the
// description is insensitive to the publisher's slice order.
func describeAssignments(as []shard.Assignment) string {
	sorted := append([]shard.Assignment(nil), as...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Server < sorted[j].Server })
	return shard.FormatAssignments(sorted)
}

// WatchDirectory attaches the server-side ownership observer to every
// server resolving through the directory.
func (a *Auditor) WatchDirectory(d *appserver.Directory) {
	d.AddObserver(a.directoryObserver())
}

// directoryObserver builds the appserver observer; split out so tests can
// drive the callbacks directly.
func (a *Auditor) directoryObserver() appserver.Observer {
	return appserver.Observer{
		ReplicaChanged: func(server shard.ServerID, s shard.ID, role shard.Role, phase appserver.Phase, peer shard.ServerID) {
			st := a.shard(s)
			v := st.replicas[server]
			if v == nil {
				v = &replicaView{}
				st.replicas[server] = v
			}
			v.role, v.phase = role, phase
			delete(st.servedFwd, server)
			// A replica transition is the server acting on a control-plane
			// grant: §4.3 re-engages a server (prepare_add, add_shard) before
			// the map re-including it is published, and forwarded traffic
			// legitimately reaches it in that window. Reset the staleness
			// clock so the grant isn't misread as a stale route.
			delete(st.removedAt, server)
			delete(st.staleSrv, server)
			detail := fmt.Sprintf("%s %s/%s", server, role, phase)
			if peer != "" {
				detail += " fwd->" + string(peer)
			}
			a.event(st, "replica", detail)
			a.checkOnePrimary(s, st)
		},
		ReplicaDropped: func(server shard.ServerID, s shard.ID, tombstone bool) {
			st := a.shard(s)
			delete(st.replicas, server)
			delete(st.servedFwd, server)
			detail := string(server) + " dropped"
			if tombstone {
				detail += " (tombstone)"
			}
			a.event(st, "replica", detail)
			a.checkOnePrimary(s, st)
		},
		Handled: func(server shard.ServerID, s shard.ID, write, forwarded bool, phase appserver.Phase) {
			st := a.shard(s)
			a.check(InvServePrepare)
			if phase == appserver.PhaseForwarding && !st.servedFwd[server] {
				st.servedFwd[server] = true
				a.violate(InvServePrepare, s, st, []shard.ServerID{server},
					fmt.Sprintf("%s executed a request while in the forwarding phase", server))
			}
			if write && !forwarded {
				a.check(InvWriteOwner)
				prims := a.activePrimaries(st)
				if len(prims) >= 2 && !st.dualWrite {
					st.dualWrite = true
					a.violate(InvWriteOwner, s, st, prims,
						fmt.Sprintf("write executed on %s while %d active primaries exist (%s)",
							server, len(prims), joinServers(prims)))
				}
			}
		},
		Rejected: func(server shard.ServerID, s shard.ID, reason string) {
			a.rejects[reason]++
		},
		Fenced: func(server shard.ServerID, fenced bool, gen int64) {
			if fenced {
				a.fencedSrv[server] = true
			} else {
				delete(a.fencedSrv, server)
			}
			// The transition changes which primaries count as active, so
			// re-judge every shard with a replica on this server (sorted
			// for deterministic timelines).
			state := "fenced"
			if !fenced {
				state = "unfenced"
			}
			ids := make([]string, 0, len(a.shards))
			for s, st := range a.shards {
				if st.replicas[server] != nil {
					ids = append(ids, string(s))
				}
			}
			sort.Strings(ids)
			for _, sid := range ids {
				s := shard.ID(sid)
				st := a.shards[s]
				a.event(st, "fence", fmt.Sprintf("%s %s g%d", server, state, gen))
				a.checkOnePrimary(s, st)
			}
		},
		ServerRemoved: func(server shard.ServerID) {
			// The container is gone; every replica it held died with the
			// process. Without this the view keeps a crashed server's primary
			// "active" forever and falsely flags its successor as a dual
			// primary. Sorted for deterministic timelines.
			delete(a.fencedSrv, server)
			ids := make([]string, 0, len(a.shards))
			for s, st := range a.shards {
				if st.replicas[server] != nil {
					ids = append(ids, string(s))
				}
			}
			sort.Strings(ids)
			for _, sid := range ids {
				s := shard.ID(sid)
				st := a.shards[s]
				delete(st.replicas, server)
				delete(st.servedFwd, server)
				a.event(st, "replica", string(server)+" removed (server gone)")
				a.checkOnePrimary(s, st)
			}
		},
		ReplicaConfirmed: func(server shard.ServerID, s shard.ID, confirmed bool) {
			st := a.shard(s)
			v := st.replicas[server]
			if v == nil {
				v = &replicaView{}
				st.replicas[server] = v
			}
			v.unconfirmed = !confirmed
			if confirmed {
				a.event(st, "replica", fmt.Sprintf("%s confirmed", server))
				a.checkOnePrimary(s, st)
			} else {
				a.event(st, "replica", fmt.Sprintf("%s unconfirmed (restored)", server))
			}
		},
	}
}

// WatchDiscovery tallies map-delivery outcomes for the audited app.
func (a *Auditor) WatchDiscovery(s *discovery.Service) {
	s.AddObserver(func(app shard.AppID, version int64, lag time.Duration, status string) {
		if app != a.app {
			return
		}
		a.deliveries[status]++
	})
}

// WatchCoord records coordination-store mutations (the control-plane side
// of every ownership change, including session expirations) in a bounded
// ring for report context.
func (a *Auditor) WatchCoord(st *coord.Store) {
	st.AddWriteObserver(func(op, path string) {
		a.coordOps[op]++
		w := CoordWrite{At: a.loop.Now(), Op: op, Path: path}
		if len(a.coordWrites) >= maxCoordWrites {
			copy(a.coordWrites, a.coordWrites[1:])
			a.coordWrites[len(a.coordWrites)-1] = w
			return
		}
		a.coordWrites = append(a.coordWrites, w)
	})
}

// WatchClient attaches the stale-routing check to one client's final
// request results.
func (a *Auditor) WatchClient(c *routing.Client) {
	c.OnResult(a.clientObserver())
}

// clientObserver builds the per-result callback; split out for tests.
func (a *Auditor) clientObserver() func(routing.Result) {
	return func(res routing.Result) {
		if res.Shard == "" {
			return
		}
		a.check(InvStaleRouting)
		st := a.shard(res.Shard)
		now := a.loop.Now()
		if res.OK {
			t, removed := st.removedAt[res.Server]
			if removed && now-t > staleBound && !st.staleSrv[res.Server] {
				st.staleSrv[res.Server] = true
				a.violate(InvStaleRouting, res.Shard, st, []shard.ServerID{res.Server},
					fmt.Sprintf("request served by %s, removed from the map %s ago (client map v%d)",
						res.Server, now-t, res.MapVersion))
			}
			return
		}
		if res.Err == "not-owner" && a.havePublish && now-a.lastPublishAt > staleBound && !st.staleMap {
			st.staleMap = true
			a.violate(InvStaleRouting, res.Shard, st, []shard.ServerID{res.RejectedBy},
				fmt.Sprintf("final not-owner from %s, %s after last publication (client map v%d, published v%d)",
					res.RejectedBy, now-a.lastPublishAt, res.MapVersion, a.lastVersion))
		}
	}
}

// --- read side ---

// Violations returns the recorded violations in detection order.
func (a *Auditor) Violations() []Violation {
	return append([]Violation(nil), a.violations...)
}

// ViolationCount returns the total number of violations detected
// (including any dropped past maxViolations).
func (a *Auditor) ViolationCount() int64 {
	var n int64
	for _, c := range a.violCounts {
		n += c
	}
	return n
}

// Checks returns per-invariant evaluation counts.
func (a *Auditor) Checks() map[string]int64 {
	out := make(map[string]int64, len(a.checks))
	for k, v := range a.checks {
		out[k] = v
	}
	return out
}

// Timeline returns a copy of the shard's ownership timeline (nil if the
// auditor never saw the shard).
func (a *Auditor) Timeline(s shard.ID) []Event {
	st := a.shards[s]
	if st == nil {
		return nil
	}
	return append([]Event(nil), st.timeline...)
}

// Shards returns the sorted shard IDs the auditor has state for.
func (a *Auditor) Shards() []shard.ID {
	out := make([]shard.ID, 0, len(a.shards))
	for s := range a.shards {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
