// Package orchestrator implements the SM orchestrator of §3.2 — the
// control-plane component ("mini-SM", §6.1) that manages one application
// partition:
//
//   - It discovers application-server liveness by watching the ephemeral
//     nodes the SM library creates in the coordination store.
//   - It periodically collects per-shard load from servers by direct RPC.
//   - It invokes the allocator — in emergency mode when servers die, in
//     periodic mode on a timer — and executes the resulting replica moves.
//   - It performs graceful primary-replica migration with the 5-step
//     protocol of §4.3, so that no client request is dropped.
//   - It publishes every new shard map version to the service discovery
//     system and persists per-server assignments to the coordination store
//     so servers can restore them at start-up without the control plane.
//   - It exposes the drain operation the TaskController uses to empty a
//     container before a negotiable lifecycle operation (§4.1), and role
//     demotion ahead of non-negotiable maintenance (§4.2).
package orchestrator

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/appserver"
	"shardmanager/internal/coord"
	"shardmanager/internal/discovery"
	"shardmanager/internal/metrics"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
)

// Kernel-profiler attribution labels for the control plane's timers.
var (
	lbLoadCollect   = sim.LabelFor("orchestrator", "load_collect")
	lbAllocate      = sim.LabelFor("orchestrator", "allocate")
	lbFailoverGrace = sim.LabelFor("orchestrator", "failover_grace")
	lbLoadApply     = sim.LabelFor("orchestrator", "load_apply")
	lbMigrationLoad = sim.LabelFor("orchestrator", "migration_load")
	lbPublishMargin = sim.LabelFor("orchestrator", "publish_margin")
	lbDrainCheck    = sim.LabelFor("orchestrator", "drain_check")
	lbPromoteHold   = sim.LabelFor("orchestrator", "promote_hold")
	lbOrphanGC      = sim.LabelFor("orchestrator", "orphan_gc")
)

// ShardConfig declares one shard of the application.
type ShardConfig struct {
	ID       shard.ID
	Replicas int
	// RegionPreference pins the shard's preferred region (§5.1 soft
	// goal 1); empty means none.
	RegionPreference topology.RegionID
	PreferenceWeight float64
	// DefaultLoad seeds the shard's load before the first collection.
	DefaultLoad topology.Capacity
}

// Config configures an orchestrator for one application partition.
type Config struct {
	App      shard.AppID
	Strategy shard.ReplicationStrategy
	Shards   []ShardConfig
	// Policy drives the allocator.
	Policy allocator.Policy
	// ServerCapacity is the per-server capacity used for balancing.
	ServerCapacity topology.Capacity
	// HomeRegion is where this mini-SM runs (RPC latency origin).
	HomeRegion topology.RegionID
	// GracefulMigration enables the §4.3 protocol for primary moves;
	// disabling it is the "no graceful migration" ablation of Fig 17.
	GracefulMigration bool
	// AllocInterval is the periodic-allocation period (default 30s).
	AllocInterval time.Duration
	// FailoverGrace is how long a server must stay dead before its
	// shards are reassigned (default 30s). Quick in-place restarts stay
	// under it. It must exceed promoteHold; New panics otherwise.
	FailoverGrace time.Duration
	// MaxConcurrentMigrations caps in-flight replica migrations (§5.1
	// hard constraint "system stability"; default 20).
	MaxConcurrentMigrations int
	// ShardLoadTime is how long the orchestrator waits after
	// prepare_add_shard for the new replica to finish loading state
	// before telling the old one to forward. Should be >= the servers'
	// LoadTime; the old primary serves clients throughout.
	ShardLoadTime time.Duration
}

// Protocol timings. They are the same for every application, and the order
// among them is what the fencing argument rests on:
// appserver.FenceDelay < promoteHold < Config.FailoverGrace.
const (
	// loadInterval is the load-collection period.
	loadInterval = 10 * time.Second
	// publishMargin is the wait between publishing a new map and dropping
	// the old primary, covering map propagation.
	publishMargin = 3 * time.Second
	// promoteHold is how long after a primary's server dies (liveness node
	// lost) the orchestrator waits before promoting a replacement primary.
	// It exceeds the SM library's self-fence delay so a false-dead server —
	// healthy process, expired session — has provably stopped serving as
	// primary before a second primary can appear anywhere (the MIT 6.824
	// "two servers both believe they own a shard" race).
	promoteHold = 5 * time.Second
	// orphanRetry is the retry interval for cleanup RPCs that failed —
	// dropping a replica a migration left behind, or resuming a forwarding
	// primary whose migration aborted. An RPC can execute on the server yet
	// report failure (reply lost), so cleanup must be retried until
	// acknowledged: an unacknowledged orphan is a live primary the control
	// plane no longer knows about.
	orphanRetry = 5 * time.Second
)

// The fence must come down before the hold lifts: a negative constant does
// not fit a uint, so reordering the two stops the build.
const _ = uint(promoteHold - appserver.FenceDelay - 1)

func (c *Config) fillDefaults() {
	if c.AllocInterval <= 0 {
		c.AllocInterval = 30 * time.Second
	}
	if c.FailoverGrace <= 0 {
		c.FailoverGrace = 30 * time.Second
	}
	if c.MaxConcurrentMigrations <= 0 {
		c.MaxConcurrentMigrations = 20
	}
}

type serverState struct {
	id       shard.ServerID
	domains  map[string]string
	alive    bool
	draining bool
	// deadSince is when the server was last seen dying.
	deadSince time.Duration
	// load is the latest per-shard load report.
	load map[shard.ID]topology.Capacity
	// shards is the server's part of the placement — the shards' replica
	// lists inverted, sorted by shard, kept in step by the mutators
	// (placement.go) — which is what its assignment node in the coordination
	// store should hold; nodeStale is set while the node does not hold it:
	// never written, changed since the last write, or the last write failed.
	shards    []appserver.AssignEntry
	nodeStale bool
}

type shardState struct {
	cfg ShardConfig
	pos int // index in configuration order
	// replicas is the shard's entry in the shard map, the one copy of where
	// its replicas are: read anywhere, written only by the mutators
	// (placement.go). changed is set while the shard is on o.changed.
	replicas []shard.Assignment
	changed  bool
	// migrating marks an in-flight migration touching this shard.
	migrating bool
	// mig is the in-flight migration itself (nil unless migrating); rejoin
	// syncs consult it so they never drop a half-handed-over replica.
	mig *migration
	// holdUntil blocks primary promotion for this shard until the given
	// sim time: set when a dead server's primary is demoted in place, it
	// gives the possibly-false-dead old primary time to self-fence.
	holdUntil time.Duration
	// orphans names servers that may still hold an unacknowledged replica
	// of this shard (a cleanup drop failed and is being retried). While any
	// orphan is pending, the shard's old primary must not resume serving:
	// the orphan could be an active primary whose add executed even though
	// the reply was lost.
	orphans map[shard.ServerID]bool
}

// Hooks let an external monitor observe control-plane transitions. Unlike a
// discovery subscription, hooks fire synchronously and draw no randomness,
// so attaching them (healthmon does) cannot perturb a seeded run. Any field
// may be nil.
type Hooks struct {
	// MigrationStarted fires when a queued migration begins executing.
	MigrationStarted func(s shard.ID, from, to shard.ServerID, graceful bool)
	// MigrationFinished fires when a migration completes or fails.
	MigrationFinished func(s shard.ID, ok bool)
	// MigrationStep fires when one shard-lifecycle RPC (prepare_add_shard,
	// prepare_drop_shard, add_shard, drop_shard) completes, with status "ok"
	// or "failed".
	MigrationStep func(s shard.ID, step string, server shard.ServerID, status string)
	// RoleChanged fires when the orchestrator issues a change_role RPC.
	RoleChanged func(s shard.ID, server shard.ServerID, from, to shard.Role)
	// MapPublished fires on every shard-map publication.
	MapPublished func(version int64, entries int)
	// MapDelta fires on every publication with the entries that changed
	// since the previous one (every entry, on the first). The callback must
	// treat the delta as read-only and not retain it past the call.
	MapDelta func(d *shard.Delta)
}

// Orchestrator is one mini-SM control-plane instance.
type Orchestrator struct {
	cfg   Config
	loop  *sim.Loop
	store *coord.Store
	disc  *discovery.Service
	net   *rpcnet.Network
	dir   *appserver.Directory
	fleet *topology.Fleet
	alloc *allocator.Allocator
	memo  solveMemo
	paths appserver.CoordPaths

	servers map[shard.ServerID]*serverState
	byID    []*serverState // the same servers sorted by ID: deterministic iteration
	shards  map[shard.ID]*shardState
	order   []shard.ID // deterministic shard iteration
	// version and gen stamp the last publication, placed counts the shards
	// with at least one replica (the map's entries), changed lists the shards
	// whose replica list was written since, and delta is publish's staging
	// buffer, restaged every time.
	version, gen int64
	placed       int
	changed      []*shardState
	delta        *shard.Delta

	migrationQueue []migration
	inFlight       int
	curAlloc       trace.SpanID // open "allocate" span, parent of spawned work

	draining        map[shard.ServerID]func() // a drain's completion callback, nil for none
	drainCheckArmed bool
	started         bool
	tickers         []*sim.Ticker
	hooks           []Hooks

	// Stats.
	ShardMoves    metrics.Counter
	EmergencyRuns metrics.Counter
	PeriodicRuns  metrics.Counter
	FailedRPCs    metrics.Counter
}

type migration struct {
	shard    shard.ID
	from, to shard.ServerID
	graceful bool
	// span covers the whole migration from enqueue to finish; the per-step
	// RPCs (prepare_add_shard, add_shard, drop_shard, ...) are its children.
	span trace.SpanID
}

// New creates an orchestrator. Call Start to begin managing.
func New(loop *sim.Loop, store *coord.Store, disc *discovery.Service,
	net *rpcnet.Network, dir *appserver.Directory, fleet *topology.Fleet,
	cfg Config, seed uint64) *Orchestrator {
	cfg.fillDefaults()
	if cfg.FailoverGrace <= promoteHold {
		panic(fmt.Sprintf("orchestrator: FailoverGrace %v must exceed the promote hold %v", cfg.FailoverGrace, promoteHold))
	}
	if cfg.HomeRegion == "" {
		cfg.HomeRegion = fleet.Regions()[0]
	}
	o := &Orchestrator{
		cfg:      cfg,
		loop:     loop,
		store:    store,
		disc:     disc,
		net:      net,
		dir:      dir,
		fleet:    fleet,
		alloc:    allocator.New(cfg.Policy, seed),
		paths:    appserver.DefaultPaths(cfg.App),
		delta:    shard.NewDelta(cfg.App),
		servers:  make(map[shard.ServerID]*serverState),
		shards:   make(map[shard.ID]*shardState),
		draining: make(map[shard.ServerID]func()),
	}
	for _, sc := range cfg.Shards {
		if sc.Replicas <= 0 {
			sc.Replicas = 1
		}
		if _, dup := o.shards[sc.ID]; dup {
			panic(fmt.Sprintf("orchestrator: duplicate shard %q", sc.ID))
		}
		o.shards[sc.ID] = &shardState{cfg: sc, pos: len(o.order)}
		o.order = append(o.order, sc.ID)
	}
	return o
}

// AddHooks attaches a set of observer hooks without disturbing ones already
// installed; all attached hooks fire in attachment order, which is how the
// runtime auditor coexists with healthmon.
func (o *Orchestrator) AddHooks(h Hooks) { o.hooks = append(o.hooks, h) }

// App returns the managed application ID.
func (o *Orchestrator) App() shard.AppID { return o.cfg.App }

// ServerDomains returns the failure-domain labels (region/datacenter/rack)
// last resolved for the server, or nil if unknown. Domains persist after a
// server dies so failures can still be attributed to the right domain.
func (o *Orchestrator) ServerDomains(id shard.ServerID) map[string]string {
	if st := o.servers[id]; st != nil {
		return st.domains
	}
	return nil
}

// Start begins membership watching, load collection, and periodic
// allocation.
func (o *Orchestrator) Start() {
	if o.started {
		return
	}
	o.started = true
	mustEnsure(o.store, o.paths.ServersPath)
	mustEnsure(o.store, o.paths.AssignPath)
	o.watchMembership()
	o.syncMembership()
	o.tickers = append(o.tickers,
		o.loop.EveryL(loadInterval, lbLoadCollect, o.collectLoads),
		o.loop.EveryL(o.cfg.AllocInterval, lbAllocate, func() { o.allocate(allocator.Periodic) }))
	// Initial placement as soon as servers appear.
	o.loop.AfterL(time.Second, lbAllocate, func() { o.allocate(allocator.Periodic) })
}

// Stop halts the control plane: no more load collection, allocations, or
// migrations. Application clients keep using the last published shard map
// and servers keep serving — §6.2's guarantee that an SM control-plane
// outage does not take applications down; "new shard assignments would not
// be generated". Start resumes.
func (o *Orchestrator) Stop() {
	if !o.started {
		return
	}
	o.started = false
	for _, t := range o.tickers {
		t.Stop()
	}
	o.tickers = nil
	// A queued migration dies with the queue: release its shard, or nothing
	// would ever plan for it again.
	tr := o.loop.Tracer()
	for _, m := range o.migrationQueue {
		o.shards[m.shard].migrating = false
		if tr.Enabled() {
			tr.EndSpan(m.span, trace.Bool("ok", false))
		}
	}
	o.migrationQueue = nil
}

func mustEnsure(store *coord.Store, path string) {
	if !store.Exists(path) {
		if err := store.CreateAll(path, nil, nil); err != nil {
			panic(fmt.Sprintf("orchestrator: ensure %s: %v", path, err))
		}
	}
}

// --- membership ---

func (o *Orchestrator) watchMembership() {
	err := o.store.WatchChildren(o.paths.ServersPath, func(coord.Event) {
		o.syncMembership()
		o.watchMembership() // re-arm the one-shot watch
	})
	if err != nil {
		panic(fmt.Sprintf("orchestrator: watch: %v", err))
	}
}

// syncMembership reconciles the coordination store's liveness nodes with
// the orchestrator's server table.
func (o *Orchestrator) syncMembership() {
	kids, err := o.store.Children(o.paths.ServersPath)
	if err != nil {
		return
	}
	seen := make(map[shard.ServerID]bool, len(kids))
	for _, kid := range kids {
		data, _, err := o.store.Get(o.paths.ServersPath + "/" + kid)
		if err != nil {
			continue
		}
		id := unescapeID(kid)
		seen[id] = true
		st := o.servers[id]
		rejoined := st != nil && !st.alive
		if st == nil {
			st = &serverState{id: id, load: make(map[shard.ID]topology.Capacity), nodeStale: true}
			o.servers[id] = st
			i, _ := slices.BinarySearchFunc(o.byID, id, func(s *serverState, id shard.ServerID) int {
				return cmp.Compare(s.id, id)
			})
			o.byID = slices.Insert(o.byID, i, st)
		}
		if !st.alive {
			if st.deadSince+o.cfg.FailoverGrace <= o.memo.at {
				o.touch() // it had dropped out of the remembered problem
			}
			st.alive = true
			o.resolveMachine(st, string(data))
		}
		if rejoined && o.started {
			// A server coming back from the dead (false-dead reconnect or
			// in-place restart) may hold a stale — possibly fenced —
			// replica set; push the authoritative assignment at a fresh
			// generation so it unfences into the current world, not the
			// one it left.
			o.syncServer(id)
		}
	}
	anyDied := false
	for _, st := range o.byID {
		if !seen[st.id] && st.alive {
			st.alive = false
			st.deadSince = o.loop.Now()
			anyDied = true
			o.scheduleFailover(st.id, st.deadSince)
		}
	}
	o.memo.until = o.graceEnd()
	if anyDied && o.started {
		// Demote the dead servers' primaries immediately, but promotion of
		// replacements waits out promoteHold (reconcileRoles gates on
		// holdUntil); re-reconcile once the hold has elapsed so failover
		// does not wait for the next periodic allocation.
		o.reconcileAllRoles()
		o.loop.AfterL(promoteHold, lbPromoteHold, o.reconcileAllRoles)
	}
}

func unescapeID(kid string) shard.ServerID {
	b := []byte(kid)
	for i := range b {
		if b[i] == '~' {
			b[i] = '/'
		}
	}
	return shard.ServerID(b)
}

// resolveMachine fills the server's placement metadata from its liveness
// node payload (the machine ID written by the SM library's host).
func (o *Orchestrator) resolveMachine(st *serverState, payload string) {
	m := o.fleet.Machine(topology.MachineID(payload))
	if m == nil {
		panic(fmt.Sprintf("orchestrator: server %s on unknown machine %q", st.id, payload))
	}
	domains := map[string]string{
		topology.LevelRegion.String():     m.Domain(topology.LevelRegion),
		topology.LevelDatacenter.String(): m.Domain(topology.LevelDatacenter),
		topology.LevelRack.String():       m.Domain(topology.LevelRack),
	}
	if !maps.Equal(st.domains, domains) {
		st.domains = domains
		o.touch()
	}
}

// scheduleFailover reassigns the dead server's shards if it is still dead
// after the grace period; quick in-place restarts never trigger it.
func (o *Orchestrator) scheduleFailover(id shard.ServerID, at time.Duration) {
	o.loop.AfterL(o.cfg.FailoverGrace, lbFailoverGrace, func() {
		st := o.servers[id]
		if st == nil || st.alive || st.deadSince != at {
			return
		}
		if len(st.shards) > 0 {
			o.allocate(allocator.Emergency)
		}
	})
}

// syncServer pushes the authoritative assignment for one server at a fresh
// generation — the anti-entropy step for rejoining servers. It lifts the
// server's self-fence (the new generation supersedes the lost lease), fixes
// roles the server demoted or restored stale, drops replicas the world moved
// away while it was gone, and confirms restored-unconfirmed primaries.
func (o *Orchestrator) syncServer(id shard.ServerID) {
	want := make(map[shard.ID]shard.Role, len(o.servers[id].shards))
	for _, e := range o.servers[id].shards {
		want[e.Shard] = e.Role
	}
	var protect map[shard.ID]bool
	for _, sid := range o.order {
		ss := o.shards[sid]
		if ss.mig != nil && ss.mig.to == id {
			if protect == nil {
				protect = make(map[shard.ID]bool)
			}
			protect[sid] = true
		}
	}
	gen := o.store.NextEpoch()
	o.loop.Metrics().Counter("orchestrator_server_syncs_total",
		"app", string(o.cfg.App)).Inc()
	o.call(id, func(srv *appserver.Server) {
		srv.SyncAssignment(want, protect, gen)
	}, nil, func() { o.failedRPC() })
}

// --- load collection ---

func (o *Orchestrator) collectLoads() {
	for _, st := range o.byID {
		if !st.alive {
			continue
		}
		id := st.id
		o.net.Call(o.cfg.HomeRegion, rpcnet.Endpoint(id), func() {
			srv := o.dir.Lookup(id)
			if srv == nil {
				return
			}
			report := srv.LoadReport()
			o.loop.AfterL(0, lbLoadApply, func() {
				// A report is a value (appserver.LoadReporter), held as it
				// came; a replica it leaves out reports what is held. While a
				// remembered result could still be replayed, an entry that
				// changes what shardLoad reads bumps the epoch; an equal
				// value, or one shardLoad does not read, bumps nothing. Once
				// the epoch has moved there is nothing to check.
				for _, e := range report {
					held, ok := st.load[e.Shard]
					if o.memo.replayable() && !(ok && maps.Equal(held, e.Load)) {
						if ss := o.shards[e.Shard]; ss != nil {
							was := o.shardLoad(ss)
							st.load[e.Shard] = e.Load
							if !maps.Equal(was, o.shardLoad(ss)) {
								o.touch()
							}
							continue
						}
					}
					st.load[e.Shard] = e.Load
				}
			})
		}, nil, func() {
			o.failedRPC()
		})
	}
}

// shardLoad returns the shard's measured load — the report of the last
// replica in its list whose server has one — or its configured default.
func (o *Orchestrator) shardLoad(ss *shardState) topology.Capacity {
	var latest topology.Capacity
	for _, a := range ss.replicas {
		if st := o.servers[a.Server]; st != nil {
			if l, ok := st.load[ss.cfg.ID]; ok {
				latest = l
			}
		}
	}
	if latest == nil {
		latest = ss.cfg.DefaultLoad
	}
	if latest == nil {
		latest = topology.Capacity{topology.ResourceShardCount: 1}
	}
	return latest
}

// --- allocation ---

// allocate runs the allocator in the given mode and executes the diff.
func (o *Orchestrator) allocate(mode allocator.Mode) {
	if !o.started {
		return
	}
	// While a batch of migrations is still queued, a new periodic run
	// would just recompute the same plan (migrating shards are skipped);
	// wait for the queue to drain. Emergencies always run.
	if mode == allocator.Periodic && len(o.migrationQueue) > 0 {
		return
	}
	res := o.solve(mode)
	if res == nil {
		return
	}
	tr := o.loop.Tracer()
	if tr.Enabled() {
		o.curAlloc = tr.StartSpan("orchestrator", "allocate", 0,
			trace.String("app", string(o.cfg.App)),
			trace.String("mode", mode.String()))
	}
	if mode == allocator.Emergency {
		o.EmergencyRuns.Inc()
	} else {
		o.PeriodicRuns.Inc()
	}
	if mr := o.loop.Metrics(); mr != nil {
		app := string(o.cfg.App)
		mr.Counter("orchestrator_allocations_total", "app", app, "mode", mode.String()).Inc()
		mr.Counter("orchestrator_moves_planned_total", "app", app).Add(int64(len(res.Moves)))
		mr.Gauge("orchestrator_violations", "app", app).Set(float64(res.Final.Total()))
	}
	o.executeDiff(res)
	if tr.Enabled() {
		tr.EndSpan(o.curAlloc,
			trace.Int("moves", len(res.Moves)),
			trace.Int("violations", res.Final.Total()))
	}
	o.curAlloc = 0
}

func (o *Orchestrator) buildInput() allocator.Input {
	in := allocator.Input{Current: make(map[shard.ID][]shard.ServerID, len(o.shards))}
	now := o.loop.Now()
	for _, st := range o.byID {
		// A server dead for less than the failover grace (e.g. a quick
		// in-place restart) keeps its replicas: treating it as dead
		// would make every planned restart churn the whole placement.
		alive := st.alive || now-st.deadSince < o.cfg.FailoverGrace
		in.Servers = append(in.Servers, allocator.ServerInfo{
			ID:       st.id,
			Domains:  st.domains,
			Capacity: o.cfg.ServerCapacity,
			Alive:    alive,
			Draining: st.draining,
		})
	}
	for _, id := range o.order {
		ss := o.shards[id]
		in.Shards = append(in.Shards, allocator.ShardSpec{
			ID:               id,
			Replicas:         ss.cfg.Replicas,
			Load:             o.shardLoad(ss),
			RegionPreference: ss.cfg.RegionPreference,
			PreferenceWeight: ss.cfg.PreferenceWeight,
		})
		cur := make([]shard.ServerID, len(ss.replicas))
		for i, a := range ss.replicas {
			cur[i] = a.Server
		}
		in.Current[id] = cur
	}
	return in
}

// executeDiff turns allocator moves into RPC sequences.
func (o *Orchestrator) executeDiff(res *allocator.Result) {
	changed := false
	for _, mv := range res.Moves {
		ss := o.shards[mv.Shard]
		if ss == nil || ss.migrating {
			continue
		}
		if len(ss.orphans) > 0 {
			// An unresolved orphan may be an active primary whose cleanup
			// drop hasn't been acknowledged yet; starting a new move could
			// activate a second primary next to it. The next allocation
			// replans once the orphan resolves.
			o.publishRejected("orphan_pending")
			continue
		}
		switch mv.Kind() {
		case "add":
			if ss.find(mv.To) != -1 {
				// The target already holds a replica of this shard (e.g.
				// a churn-deferred move raced a sibling add); honoring the
				// plan would publish a duplicate-replica map.
				o.publishRejected("duplicate_add")
				continue
			}
			// The add takes the place of a replica on a dead server (the
			// one it replaces) if there is one; otherwise it fills a place
			// never taken yet (the initial placement).
			role := o.roleForNewReplica(ss)
			if i := o.findDeadReplica(ss); i != -1 {
				o.rehomeReplica(ss, i, mv.To)
				o.setRole(ss, i, role)
			} else {
				o.addReplica(ss, mv.To, role)
			}
			o.rpcAddShard(mv.To, mv.Shard, role)
			o.ShardMoves.Inc()
			changed = true
		case "move":
			i := ss.find(mv.From)
			if i == -1 {
				continue
			}
			if ss.find(mv.To) != -1 {
				// Destination already holds a replica; moving there would
				// collapse two replicas onto one server.
				o.publishRejected("duplicate_move")
				continue
			}
			role := ss.replicas[i].Role
			o.enqueueMigration(migration{
				shard:    mv.Shard,
				from:     mv.From,
				to:       mv.To,
				graceful: o.cfg.GracefulMigration && role == shard.RolePrimary,
			})
		}
	}
	for _, id := range o.order {
		if o.reconcileRoles(o.shards[id]) {
			changed = true
		}
	}
	if changed {
		o.publish()
	}
	o.pumpMigrations()
}

// findDeadReplica returns the index of the shard's first replica on a dead
// server, or -1.
func (o *Orchestrator) findDeadReplica(ss *shardState) int {
	for i, a := range ss.replicas {
		if st := o.servers[a.Server]; st == nil || !st.alive {
			return i
		}
	}
	return -1
}

// roleForNewReplica picks the role for a newly added replica under the
// app's replication strategy.
func (o *Orchestrator) roleForNewReplica(ss *shardState) shard.Role {
	switch o.cfg.Strategy {
	case shard.PrimaryOnly:
		return shard.RolePrimary
	case shard.SecondaryOnly:
		return shard.RoleSecondary
	default:
		for _, a := range ss.replicas {
			if a.Role == shard.RolePrimary {
				if st := o.servers[a.Server]; st != nil && st.alive {
					return shard.RoleSecondary
				}
			}
		}
		if o.loop.Now() < ss.holdUntil {
			// The shard just lost its primary; don't mint a new one
			// before the old server's self-fence deadline — join as a
			// secondary and let reconcileRoles promote after the hold.
			return shard.RoleSecondary
		}
		return shard.RolePrimary
	}
}

// reconcileRoles enforces exactly one primary per shard for primary-bearing
// strategies: primaries on dead servers are demoted in place (no RPC — the
// server is gone; if it restarts it reads the corrected role from the
// persisted assignment), surplus alive primaries are demoted by RPC, and if
// no alive primary remains a secondary is promoted (automatic failover of
// the primary role). Returns true if anything changed.
func (o *Orchestrator) reconcileRoles(ss *shardState) bool {
	if o.cfg.Strategy == shard.SecondaryOnly || ss.migrating {
		return false
	}
	changed := false
	alivePrimary := -1
	for i, a := range ss.replicas {
		if a.Role != shard.RolePrimary {
			continue
		}
		st := o.servers[a.Server]
		if st == nil || !st.alive {
			// Demote in place (no RPC — the server is gone), and hold
			// promotion of a successor until the possibly-false-dead old
			// primary has had time to self-fence.
			o.setRole(ss, i, shard.RoleSecondary)
			ss.holdUntil = o.loop.Now() + promoteHold
			changed = true
			continue
		}
		if alivePrimary == -1 {
			alivePrimary = i
		} else {
			o.setRole(ss, i, shard.RoleSecondary)
			o.rpcChangeRole(a.Server, ss.cfg.ID, shard.RolePrimary, shard.RoleSecondary, nil)
			changed = true
		}
	}
	// Promotion additionally waits for pending orphans: an orphan may be an
	// active primary whose cleanup drop wasn't acknowledged, and promoting a
	// secondary next to it would put two primaries up at once.
	if alivePrimary == -1 && o.loop.Now() >= ss.holdUntil && len(ss.orphans) == 0 {
		for i, a := range ss.replicas {
			if a.Role != shard.RoleSecondary {
				continue
			}
			st := o.servers[a.Server]
			if st != nil && st.alive {
				o.setRole(ss, i, shard.RolePrimary)
				o.rpcChangeRole(a.Server, ss.cfg.ID, shard.RoleSecondary, shard.RolePrimary, nil)
				changed = true
				break
			}
		}
	}
	return changed
}

// reconcileAllRoles repairs role invariants across every shard and
// publishes if anything changed; invoked on membership changes so primary
// failover does not wait for the next allocation.
func (o *Orchestrator) reconcileAllRoles() {
	changed := false
	for _, id := range o.order {
		if o.reconcileRoles(o.shards[id]) {
			changed = true
		}
	}
	if changed {
		o.publish()
	}
}

// --- migrations ---

func (o *Orchestrator) enqueueMigration(m migration) {
	ss := o.shards[m.shard]
	ss.migrating = true
	if tr := o.loop.Tracer(); tr.Enabled() {
		// The span opens at enqueue so queueing delay behind the
		// concurrency cap is part of the migration's measured latency.
		m.span = tr.StartSpan("orchestrator", "migration", o.curAlloc,
			trace.String("shard", string(m.shard)),
			trace.String("from", string(m.from)),
			trace.String("to", string(m.to)),
			trace.Bool("graceful", m.graceful))
	}
	o.migrationQueue = append(o.migrationQueue, m)
}

// pumpMigrations starts queued migrations up to the concurrency cap.
func (o *Orchestrator) pumpMigrations() {
	for o.inFlight < o.cfg.MaxConcurrentMigrations && len(o.migrationQueue) > 0 {
		m := o.migrationQueue[0]
		o.migrationQueue = o.migrationQueue[1:]
		o.inFlight++
		o.runMigration(m)
	}
}

func (o *Orchestrator) finishMigration(m migration, ok bool) {
	if tr := o.loop.Tracer(); tr.Enabled() {
		tr.EndSpan(m.span, trace.Bool("ok", ok))
	}
	o.inFlight--
	if mr := o.loop.Metrics(); mr != nil {
		outcome := "ok"
		if !ok {
			outcome = "failed"
		}
		mr.Counter("orchestrator_migrations_total", "app", string(o.cfg.App), "outcome", outcome).Inc()
		mr.Gauge("orchestrator_migrations_inflight", "app", string(o.cfg.App)).Set(float64(o.inFlight))
	}
	for _, h := range o.hooks {
		if h.MigrationFinished != nil {
			h.MigrationFinished(m.shard, ok)
		}
	}
	ss := o.shards[m.shard]
	ss.migrating = false
	ss.mig = nil
	if ok {
		o.ShardMoves.Inc()
	}
	o.pumpMigrations()
	if !ok {
		// The shard may be under-replicated; let emergency repair it.
		o.allocate(allocator.Emergency)
		return
	}
	o.checkDrainsDone()
}

// runMigration executes one replica move. Graceful primary migration uses
// the 5-step protocol of §4.3; other moves use make-before-break
// (add-then-drop) for secondaries, which never reduces read availability,
// and break-before-make for non-graceful primary moves (the Fig 17
// ablation), which opens a visible gap.
func (o *Orchestrator) runMigration(m migration) {
	ss := o.shards[m.shard]
	role := ss.replicas[ss.find(m.from)].Role
	ss.mig = &m
	if tr := o.loop.Tracer(); tr.Enabled() {
		tr.Event("orchestrator", "migration_start", m.span,
			trace.String("shard", string(m.shard)),
			trace.String("role", role.String()))
	}
	o.loop.Metrics().Gauge("orchestrator_migrations_inflight",
		"app", string(o.cfg.App)).Set(float64(o.inFlight))
	for _, h := range o.hooks {
		if h.MigrationStarted != nil {
			h.MigrationStarted(m.shard, m.from, m.to, m.graceful)
		}
	}
	fail := func() {
		o.failedRPC()
		o.finishMigration(m, false)
	}
	commit := func() {
		o.rehomeReplica(ss, ss.find(m.from), m.to)
		o.publish()
	}
	// abort rolls back a half-added replica on the target before declaring
	// the migration failed, so a later plan can reuse the server without
	// tripping the duplicate-replica guards or leaving a stuck forwarder.
	// Any step's RPC can have executed on the server even though the reply
	// was lost, so the rollback can never be fire-and-forget: the target
	// drop retries until acknowledged (an unacknowledged "failed" add may
	// be a live orphan primary), and only once the target is provably gone
	// does the old primary resume serving — resuming earlier could put two
	// active primaries up at once. As on the other failure paths, the
	// orphan is registered before fail(): fail runs an emergency
	// allocation, whose plan must see the orphan and leave the shard alone.
	abort := func() {
		o.callStep(m.span, "drop_shard", m.shard, m.to, func(srv *appserver.Server) {
			srv.DropShard(m.shard)
		}, func() {
			fail()
			o.resumeSource(m.shard, m.from)
		}, func() {
			o.scheduleOrphanDrop(m.shard, m.to, func() { o.resumeSource(m.shard, m.from) })
			fail()
		})
	}
	switch {
	case m.graceful && role == shard.RolePrimary:
		// Step 1: prepare_add on the new primary, then give it time to
		// load the shard's state; the old primary keeps serving. A failed
		// prepare_add still aborts (not plain fail): the RPC may have
		// executed, leaving a half-prepared replica to clean up.
		gen := o.store.NextEpoch()
		o.callStep(m.span, "prepare_add_shard", m.shard, m.to, func(srv *appserver.Server) {
			srv.PrepareAddShard(m.shard, m.from, shard.RolePrimary, gen)
		}, func() {
			o.loop.AfterL(o.cfg.ShardLoadTime, lbMigrationLoad, func() { o.gracefulStep2(m, commit, abort) })
		}, abort)
	case role == shard.RoleSecondary:
		// Make-before-break: add the new secondary, then drop the old.
		gen := o.store.NextEpoch()
		o.callStep(m.span, "add_shard", m.shard, m.to, func(srv *appserver.Server) {
			srv.AddShard(m.shard, shard.RoleSecondary, gen)
		}, func() {
			commit()
			o.loop.AfterL(publishMargin, lbPublishMargin, func() {
				o.callStep(m.span, "drop_shard", m.shard, m.from, func(srv *appserver.Server) {
					srv.DropShard(m.shard)
				}, func() { o.finishMigration(m, true) },
					func() {
						o.scheduleOrphanDrop(m.shard, m.from, nil)
						o.finishMigration(m, true)
					})
			})
		}, func() {
			o.scheduleOrphanDrop(m.shard, m.to, nil)
			fail()
		})
	default:
		// Non-graceful primary move: drop, then add. SM's guarantee
		// that no two servers serve the same shard forces the gap.
		addNew := func() {
			gen := o.store.NextEpoch()
			o.callStep(m.span, "add_shard", m.shard, m.to, func(srv *appserver.Server) {
				srv.AddShard(m.shard, role, gen)
			}, func() {
				commit()
				o.finishMigration(m, true)
			}, func() {
				o.scheduleOrphanDrop(m.shard, m.to, nil)
				fail()
			})
		}
		o.callStep(m.span, "drop_shard", m.shard, m.from, func(srv *appserver.Server) {
			srv.DropShard(m.shard)
		}, addNew, func() {
			// Old server is already dead; just add the new one.
			addNew()
		})
	}
}

// gracefulStep2 continues a graceful primary migration after the new
// primary finished loading: prepare_drop on the old (it starts forwarding),
// add_shard on the new, publish, and finally drop the old replica. fail is
// the caller's rollback path (drops the half-added target replica).
func (o *Orchestrator) gracefulStep2(m migration, commit func(), fail func()) {
	// Step 2: prepare_drop on the old; it starts forwarding.
	o.callStep(m.span, "prepare_drop_shard", m.shard, m.from, func(srv *appserver.Server) {
		srv.PrepareDropShard(m.shard, m.to, shard.RolePrimary)
	}, func() {
		// Step 3: add_shard on the new primary.
		gen := o.store.NextEpoch()
		o.callStep(m.span, "add_shard", m.shard, m.to, func(srv *appserver.Server) {
			srv.AddShard(m.shard, shard.RolePrimary, gen)
		}, func() {
			// Step 4: publish the new map.
			commit()
			// Step 5: drop the old replica once clients have
			// learned the new map.
			o.loop.AfterL(publishMargin, lbPublishMargin, func() {
				o.callStep(m.span, "drop_shard", m.shard, m.from, func(srv *appserver.Server) {
					srv.DropShard(m.shard)
				}, func() {
					o.finishMigration(m, true)
				}, func() {
					// The migration still succeeded, but the old
					// replica may survive an unacknowledged drop
					// (e.g. the reply was lost): keep retrying so
					// it cannot forward — or serve — forever.
					o.scheduleOrphanDrop(m.shard, m.from, nil)
					o.finishMigration(m, true)
				})
			})
		}, fail)
	}, fail)
}

// scheduleOrphanDrop arms a retry for a cleanup drop that failed: the
// replica on id may still exist (an RPC can execute yet report failure when
// the reply is lost), and an orphaned active primary is invisible to the
// replica lists, so nothing else would ever reclaim it. The server is
// registered as a pending orphan of the shard — resumeSource refuses to resume
// an old primary while any orphan is pending. then (optional) runs once the
// orphan is resolved (drop acknowledged, server died, or a newer migration
// took the server over).
func (o *Orchestrator) scheduleOrphanDrop(s shard.ID, id shard.ServerID, then func()) {
	if ss := o.shards[s]; ss != nil {
		if ss.orphans == nil {
			ss.orphans = make(map[shard.ServerID]bool)
		}
		ss.orphans[id] = true
	}
	o.loop.AfterL(orphanRetry, lbOrphanGC, func() { o.dropOrphan(s, id, then) })
}

// dropOrphan retries a drop_shard until the server acknowledges it, dies
// (its replicas die with the process; a rejoin runs SyncAssignment), or
// legitimately re-engages with the shard. Every exit path clears the
// shard's pending-orphan mark and fires then.
//
// Re-engaging is narrow. executeDiff starts no add or move on a shard with a
// pending orphan, and every failure path registers its orphan before fail()
// runs the emergency plan. So the one writer that can still put a pending
// orphan's server back into the replica list is runMigration's commit
// (rehomeReplica) of a migration enqueued before the orphan was registered.
// That migration added the shard on the server under a newer generation.
func (o *Orchestrator) dropOrphan(s shard.ID, id shard.ServerID, then func()) {
	ss := o.shards[s]
	if ss == nil {
		return
	}
	resolved := func() {
		delete(ss.orphans, id)
		if then != nil {
			then()
		}
	}
	if ss.mig != nil && (ss.mig.to == id || ss.mig.from == id) {
		resolved() // a live migration owns this server's replica state now
		return
	}
	if ss.find(id) != -1 {
		resolved() // the server legitimately holds the shard again
		return
	}
	st := o.servers[id]
	if st == nil || !st.alive {
		resolved() // death or the rejoin sync cleans up
		return
	}
	o.callStep(o.curAlloc, "drop_orphan", s, id, func(srv *appserver.Server) {
		srv.DropShard(s)
	}, func() {
		o.loop.Metrics().Counter("orchestrator_orphan_drops_total",
			"app", string(o.cfg.App)).Inc()
		resolved()
	}, func() {
		o.failedRPC()
		o.loop.AfterL(orphanRetry, lbOrphanGC, func() { o.dropOrphan(s, id, then) })
	})
}

// resumeSource returns an aborted graceful migration's old primary to active
// serving: its prepare_drop may have executed (leaving it forwarding to a
// target that no longer holds the shard) even though the reply was lost.
// Safe to issue blindly — ResumeShard no-ops unless the replica is
// forwarding. It waits out any pending orphan of the shard first: an orphan
// may be an active primary, and resuming next to it would put two primaries
// up at once. Retries until acknowledged: a stuck forwarder bounces every
// client of the shard.
func (o *Orchestrator) resumeSource(s shard.ID, id shard.ServerID) {
	ss := o.shards[s]
	if ss == nil || ss.mig != nil || ss.find(id) == -1 {
		return // superseded: a newer migration or assignment owns the shard
	}
	st := o.servers[id]
	if st == nil || !st.alive {
		return
	}
	if len(ss.orphans) > 0 {
		o.loop.AfterL(orphanRetry, lbOrphanGC, func() { o.resumeSource(s, id) })
		return
	}
	gen := o.store.NextEpoch()
	o.callStep(o.curAlloc, "resume_shard", s, id, func(srv *appserver.Server) {
		srv.ResumeShard(s, gen)
	}, nil, func() {
		o.failedRPC()
		o.loop.AfterL(orphanRetry, lbOrphanGC, func() { o.resumeSource(s, id) })
	})
}

// failedRPC counts one failed orchestrator->server RPC in both the legacy
// counter and the labeled registry.
func (o *Orchestrator) failedRPC() {
	o.FailedRPCs.Inc()
	o.loop.Metrics().Counter("orchestrator_failed_rpcs_total",
		"app", string(o.cfg.App)).Inc()
}

// call performs an orchestrator->server RPC: handle runs at the server,
// done runs back home after the round trip, fail runs if the server is
// unreachable.
func (o *Orchestrator) call(id shard.ServerID, handle func(*appserver.Server), done func(), fail func()) {
	o.net.Call(o.cfg.HomeRegion, rpcnet.Endpoint(id), func() {
		if srv := o.dir.Lookup(id); srv != nil {
			handle(srv)
		}
	}, func(time.Duration) {
		if done != nil {
			done()
		}
	}, func() {
		if fail != nil {
			fail()
		}
	})
}

// callStep performs one shard-lifecycle RPC as a traced child span of
// parent, so a migration reads as its protocol steps in the trace viewer.
// The step's completion (ok or failed) also fires the MigrationStep hook.
func (o *Orchestrator) callStep(parent trace.SpanID, step string, s shard.ID, id shard.ServerID,
	handle func(*appserver.Server), done func(), fail func()) {
	tr := o.loop.Tracer()
	var sp trace.SpanID
	if tr.Enabled() {
		sp = tr.StartSpan("orchestrator", step, parent, trace.String("server", string(id)))
	}
	stepDone := func(status string) {
		for _, h := range o.hooks {
			if h.MigrationStep != nil {
				h.MigrationStep(s, step, id, status)
			}
		}
	}
	o.call(id, handle, func() {
		if tr.Enabled() {
			tr.EndSpan(sp, trace.String("status", "ok"))
		}
		stepDone("ok")
		if done != nil {
			done()
		}
	}, func() {
		if tr.Enabled() {
			tr.EndSpan(sp, trace.String("status", "failed"))
		}
		stepDone("failed")
		if fail != nil {
			fail()
		}
	})
}

func (o *Orchestrator) rpcAddShard(id shard.ServerID, s shard.ID, role shard.Role) {
	gen := o.store.NextEpoch()
	o.callStep(o.curAlloc, "add_shard", s, id,
		func(srv *appserver.Server) { srv.AddShard(s, role, gen) }, nil, func() {
			o.failedRPC()
			o.loop.AfterL(orphanRetry, lbOrphanGC, func() { o.retryAdd(s, id) })
		})
}

// retryAdd re-issues an add_shard whose RPC failed while the shard's replica
// list still names the server: the published map already promises the
// replica there, so clients route to it — an unrepaired replica bounces them
// with not-owner until something else happens to move the shard. Retries
// stop once the replica is reassigned or the server dies; an add that executed
// even though its reply was lost makes the retry an idempotent no-op.
func (o *Orchestrator) retryAdd(s shard.ID, id shard.ServerID) {
	ss := o.shards[s]
	if ss == nil {
		return
	}
	if ss.migrating {
		// A migration owns this shard's transitions; re-check after it.
		o.loop.AfterL(orphanRetry, lbOrphanGC, func() { o.retryAdd(s, id) })
		return
	}
	i := ss.find(id)
	if i == -1 {
		return // replica reassigned; the map no longer promises it here
	}
	st := o.servers[id]
	if st == nil || !st.alive {
		return // death or the rejoin sync reconciles
	}
	o.rpcAddShard(id, s, ss.replicas[i].Role)
}

// rpcChangeRole issues a change_role RPC; done, if not nil, runs with true
// after the server acknowledged the role change and with false if it was
// unreachable. DemotePrimaries chains demote→promote through it so the two
// primaries can never be active simultaneously server-side.
func (o *Orchestrator) rpcChangeRole(id shard.ServerID, s shard.ID, from, to shard.Role, done func(ok bool)) {
	tr := o.loop.Tracer()
	var sp trace.SpanID
	if tr.Enabled() {
		sp = tr.StartSpan("orchestrator", "change_role", o.curAlloc,
			trace.String("server", string(id)),
			trace.String("shard", string(s)),
			trace.String("from", from.String()),
			trace.String("to", to.String()))
	}
	o.loop.Metrics().Counter("orchestrator_role_changes_total",
		"app", string(o.cfg.App), "to", to.String()).Inc()
	for _, h := range o.hooks {
		if h.RoleChanged != nil {
			h.RoleChanged(s, id, from, to)
		}
	}
	gen := o.store.NextEpoch()
	o.call(id, func(srv *appserver.Server) { _ = srv.ChangeRole(s, from, to, gen) },
		func() {
			tr.EndSpan(sp, trace.String("status", "ok"))
			if done != nil {
				done(true)
			}
		},
		func() {
			tr.EndSpan(sp, trace.String("status", "failed"))
			o.failedRPC()
			if done != nil {
				done(false)
			}
		})
}

// --- publication ---

// publishRejected counts one refused-to-publish-garbage event: a planned
// change or map entry that would have violated map invariants (duplicate
// replica, two primaries) was dropped instead of published.
func (o *Orchestrator) publishRejected(reason string) {
	o.loop.Metrics().Counter("orchestrator_publish_rejected_total",
		"app", string(o.cfg.App), "reason", reason).Inc()
}

// publish pushes a new shard-map version to service discovery and persists
// per-server assignments to the coordination store, at a cost proportional to
// what changed: the shards on the changed list, taken in configuration order,
// are validated and staged as the delta, and the servers whose node is stale
// have it rewritten. Every publication is stamped with a fresh coordination
// epoch so consumers apply maps in generation order and drop stale ones.
func (o *Orchestrator) publish() {
	lastVersion, lastGen := o.version, o.gen // what discovery should be holding
	o.version, o.gen = lastVersion+1, o.store.NextEpoch()
	d := o.delta.Reset(o.cfg.App, lastVersion, o.version, o.gen)
	slices.SortFunc(o.changed, byPos)
	for _, ss := range o.changed {
		// The entries left alone were validated when they were published and
		// Validate judges each entry on its own, so checking the changed ones
		// keeps the whole map valid.
		id := ss.cfg.ID
		if err := shard.ValidateEntry(id, ss.replicas); err != nil {
			// Never publish (or panic on) an invariant-violating entry:
			// repair the offending replicas and count the rejection.
			o.sanitizeReplicas(ss)
			if err := shard.ValidateEntry(id, ss.replicas); err != nil {
				panic(fmt.Sprintf("orchestrator: invalid map after sanitize: %v", err))
			}
		}
		d.Set(id, ss.replicas)
		// The mutators marked the servers the change touched; the shard's
		// other servers get their (unchanged) node rewritten as well, because
		// coord's write count is part of the seeded record (ROADMAP 1(d)).
		for _, a := range ss.replicas {
			if st := o.servers[a.Server]; st != nil {
				st.nodeStale = true
			}
		}
		ss.changed = false // only now: a repair above must not re-list the shard
	}
	o.changed = o.changed[:0]
	if tr := o.loop.Tracer(); tr.Enabled() {
		tr.Event("orchestrator", "publish", o.curAlloc,
			trace.String("app", string(o.cfg.App)),
			trace.Int64("version", o.version),
			trace.Int("entries", o.placed))
	}
	o.loop.Metrics().Counter("orchestrator_publishes_total",
		"app", string(o.cfg.App)).Inc()
	for _, h := range o.hooks {
		if h.MapPublished != nil {
			h.MapPublished(o.version, o.placed)
		}
		if h.MapDelta != nil {
			h.MapDelta(d)
		}
	}
	if lv := o.disc.Latest(o.cfg.App); lv.Version != lastVersion || lv.Gen != lastGen {
		// Discovery is not where this orchestrator left it: another
		// incarnation published in between, so the last delta was dropped or
		// this one would land on a map it was not made against. Resend the
		// whole map.
		m := o.AssignmentSnapshot()
		m.Gen = o.gen
		o.disc.Publish(m.Diff(nil, nil))
	} else {
		o.disc.Publish(d)
	}

	// Persist assignments for server start-up reads (§3.2); a server left
	// with no shards gets its node cleared. A write the store refuses (a
	// coord stall) leaves the node stale, so the next publish retries it.
	for _, st := range o.byID {
		if !st.nodeStale {
			continue
		}
		node := o.paths.AssignNode(st.id)
		data := appserver.EncodeEntries(st.shards)
		var err error
		if o.store.Exists(node) {
			_, err = o.store.Set(node, data, -1)
		} else {
			err = o.store.Create(node, data, nil)
		}
		st.nodeStale = err != nil
	}
}

// --- TaskController-facing API ---

// AssignmentSnapshot returns a copy of the current authoritative shard map
// (not the possibly stale discovery view), stamped with the last published
// version.
func (o *Orchestrator) AssignmentSnapshot() *shard.Map {
	m := shard.NewMap(o.cfg.App)
	m.Version = o.version
	for id, ss := range o.shards {
		if len(ss.replicas) > 0 {
			m.Entries[id] = slices.Clone(ss.replicas)
		}
	}
	return m
}

// AliveReplicas returns, for each shard with a replica on server, how many
// of its replicas are currently on alive servers (draining or not); nil for
// an unknown server. The TaskController uses this to enforce the per-shard
// unavailability cap.
func (o *Orchestrator) AliveReplicas(server shard.ServerID) map[shard.ID]int {
	st := o.servers[server]
	if st == nil {
		return nil
	}
	out := make(map[shard.ID]int, len(st.shards))
	for _, e := range st.shards {
		alive := 0
		for _, a := range o.shards[e.Shard].replicas {
			if host := o.servers[a.Server]; host != nil && host.alive {
				alive++
			}
		}
		out[e.Shard] = alive
	}
	return out
}

// SetRegionPreference updates a shard's regional placement preference; the
// next periodic allocation migrates replicas toward it (the Fig 20
// AppShard-follows-DBShard workflow).
func (o *Orchestrator) SetRegionPreference(s shard.ID, region topology.RegionID, weight float64) {
	if ss := o.shards[s]; ss != nil && (ss.cfg.RegionPreference != region || ss.cfg.PreferenceWeight != weight) {
		ss.cfg.RegionPreference = region
		ss.cfg.PreferenceWeight = weight
		o.touch()
	}
}

// ShardLoadValue returns the latest measured load of a shard for one
// resource.
func (o *Orchestrator) ShardLoadValue(s shard.ID, r topology.Resource) float64 {
	if ss := o.shards[s]; ss != nil {
		return o.shardLoad(ss).Get(r)
	}
	return 0
}

// ShardIDs returns the managed shard IDs in configuration order.
func (o *Orchestrator) ShardIDs() []shard.ID {
	out := make([]shard.ID, len(o.order))
	copy(out, o.order)
	return out
}

// TotalReplicas returns the configured replica count of a shard (0 if
// unknown).
func (o *Orchestrator) TotalReplicas(s shard.ID) int {
	if ss := o.shards[s]; ss != nil {
		return ss.cfg.Replicas
	}
	return 0
}

// ServerAlive reports whether the orchestrator currently believes the
// server is alive.
func (o *Orchestrator) ServerAlive(id shard.ServerID) bool {
	st := o.servers[id]
	return st != nil && st.alive
}

// ShardsOnServer returns how many replicas the server currently holds.
func (o *Orchestrator) ShardsOnServer(id shard.ServerID) int {
	if st := o.servers[id]; st != nil {
		return len(st.shards)
	}
	return 0
}

// Drain moves every replica off the server and calls onDone when the
// server is empty. The TaskController drains containers before approving
// restarts for applications configured to do so (§4.1).
func (o *Orchestrator) Drain(id shard.ServerID, onDone func()) {
	st := o.servers[id]
	if st == nil || o.ShardsOnServer(id) == 0 {
		if onDone != nil {
			onDone()
		}
		return
	}
	if !st.draining {
		st.draining = true
		o.touch()
	}
	o.draining[id] = onDone
	o.allocate(allocator.Periodic)
	o.checkDrainsDone() // arms the periodic re-check
}

// CancelDrain clears the draining mark (e.g. operation aborted).
func (o *Orchestrator) CancelDrain(id shard.ServerID) {
	if st := o.servers[id]; st != nil && st.draining {
		st.draining = false
		o.touch()
	}
	delete(o.draining, id)
}

// checkDrainsDone fires completions for servers that emptied out. Servers
// still holding shards are picked up by the regular periodic allocation
// (which retries moves the churn caps deferred); a single re-check timer is
// kept armed while any drain is outstanding.
func (o *Orchestrator) checkDrainsDone() {
	ids := make([]shard.ServerID, 0, len(o.draining))
	for id := range o.draining {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		// A queued migration's source still holds its shard (the move
		// commits only after the migration leaves the queue), so an empty
		// server has none queued.
		if onDone := o.draining[id]; o.ShardsOnServer(id) == 0 {
			delete(o.draining, id)
			if onDone != nil {
				onDone()
			}
		}
	}
	if len(o.draining) > 0 && !o.drainCheckArmed {
		o.drainCheckArmed = true
		o.loop.AfterL(o.cfg.AllocInterval, lbDrainCheck, func() {
			o.drainCheckArmed = false
			o.checkDrainsDone()
		})
	}
}

// DemotePrimaries demotes every primary replica on the server, promoting a
// secondary elsewhere — SM's preparation for short non-negotiable events
// like rack-switch maintenance (§4.2).
func (o *Orchestrator) DemotePrimaries(id shard.ServerID) {
	st := o.servers[id]
	if st == nil {
		return
	}
	changed := false
	for _, ss := range o.shardsOn(st) {
		i := ss.find(id)
		if ss.migrating || ss.replicas[i].Role != shard.RolePrimary {
			continue
		}
		// Find an alive secondary to promote.
		promote := -1
		for j, other := range ss.replicas {
			if other.Role != shard.RoleSecondary {
				continue
			}
			if host := o.servers[other.Server]; host != nil && host.alive && !host.draining {
				promote = j
				break
			}
		}
		if promote == -1 {
			continue
		}
		o.setRole(ss, i, shard.RoleSecondary)
		o.setRole(ss, promote, shard.RolePrimary)
		// Chain the RPCs: promote only after the demote is acknowledged, so
		// the two servers never both hold the active primary role (concurrent
		// RPCs could land promote-first).
		sid, promoteSrv := ss.cfg.ID, ss.replicas[promote].Server
		o.rpcChangeRole(id, sid, shard.RolePrimary, shard.RoleSecondary, func(ok bool) {
			if !ok {
				// The old primary never heard the demotion (it may still be
				// serving); revert the book-keeping rather than promote a
				// second primary next to it. The list may have shifted while
				// the RPC was in flight, so find the servers again instead of
				// trusting the indices.
				if j := ss.find(id); j != -1 && ss.replicas[j].Role == shard.RoleSecondary {
					o.setRole(ss, j, shard.RolePrimary)
				}
				if j := ss.find(promoteSrv); j != -1 && ss.replicas[j].Role == shard.RolePrimary {
					o.setRole(ss, j, shard.RoleSecondary)
				}
				o.publish()
				return
			}
			o.rpcChangeRole(promoteSrv, sid, shard.RoleSecondary, shard.RolePrimary, nil)
		})
		changed = true
	}
	if changed {
		o.publish()
	}
}

// ForceAllocate triggers an immediate allocation (exposed for tests and
// the smbench harness).
func (o *Orchestrator) ForceAllocate(mode allocator.Mode) { o.allocate(mode) }

// Stats returns a human-readable summary for smctl.
func (o *Orchestrator) Stats() string {
	alive := 0
	for _, st := range o.servers {
		if st.alive {
			alive++
		}
	}
	return fmt.Sprintf("app=%s servers=%d/%d shards=%d version=%d moves=%d emergencies=%d",
		o.cfg.App, alive, len(o.servers), len(o.shards), o.version,
		o.ShardMoves.Value(), o.EmergencyRuns.Value())
}
