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
	"slices"
	"strings"
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
	// experiments.Build defaults it to the deployment's last region.
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
	// bucket is the server's number in the kept allocation problem, -1 while
	// it is none (dead past its grace, or not stated yet).
	bucket int
	// seen is the membership sync (Orchestrator.syncs) that last found the
	// server's liveness node.
	seen uint64
	// shards is the server's part of the placement — the shards' replica
	// lists inverted, sorted by shard, kept in step by the mutators
	// (placement.go) — which is what its assignment node in the coordination
	// store should hold; nodeStale is set while the node does not hold it:
	// never written, changed since the last write, or the last write failed.
	// node is that node's path.
	shards    []appserver.AssignEntry
	nodeStale bool
	node      string
	// collect and apply are the server's load-collection callbacks, bound
	// once when the server is first seen: collect runs at the server and
	// keeps its report in report, which is the server's own buffer, and apply
	// holds the report's loads back home at the same instant, long before the
	// next round asks the server again.
	collect, apply func()
	report         []appserver.LoadEntry
}

type shardState struct {
	cfg ShardConfig
	pos int // index in configuration order
	// replicas is the shard's entry in the shard map, the one copy of where
	// its replicas are: read anywhere, written only by the mutators
	// (placement.go). changed is set while the shard is on o.changed.
	replicas []shard.Assignment
	changed  bool
	// hosts[i] is the server of replicas[i] (nil for one not known), kept in
	// step by the same mutators: the refresh (a shard's load and buckets) and
	// every liveness read of a replica's server go through it, not by name.
	hosts []*serverState
	// stale is set while the shard is on o.stale: its load or placement
	// changed since the kept allocation problem last stated them.
	stale bool
	// mig is the shard's migration, queued or started (nil for none): while
	// it is set, allocation, role reconciliation and demotion leave the shard
	// alone, and rejoin syncs protect a started one's half-handed-over replica.
	mig *migration
	// holdUntil blocks primary promotion for this shard until the given
	// sim time: set when a dead server's primary is demoted in place, it
	// gives the possibly-false-dead old primary time to self-fence.
	holdUntil time.Duration
	// cleanups are the RPCs owed to the shard's servers until acknowledged:
	// orphan drops, source resumes and adds (cleanup). While an orphan is
	// pending, the shard's old primary must not resume serving: the orphan
	// could be an active primary whose add executed though its reply was lost.
	cleanups []*cleanup
	// loadFrom lists the servers whose last report named the shard, and loads
	// holds what they reported, one value per policy metric in the policy's
	// order: loadFrom[k]'s values are loads[k*m:(k+1)*m] for m metrics. A
	// server's next report is written over its values (holdLoad), and its
	// entry goes when the placement stops listing the shard on it (dropLoad).
	loadFrom []*serverState
	loads    []float64
}

// reported returns st's last report of the shard's m metrics, or nil for none.
func (ss *shardState) reported(st *serverState, m int) []float64 {
	if k := slices.Index(ss.loadFrom, st); k >= 0 {
		return ss.loads[k*m : (k+1)*m : (k+1)*m]
	}
	return nil
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
	// MigrationStep fires when one shard-lifecycle RPC completes, with status
	// "ok" or "failed": a migration's prepare_add_shard, prepare_drop_shard,
	// add_shard or drop_shard, and a cleanup's drop_orphan, resume_shard or
	// add_shard — the last also for a replica added outside any migration.
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
	paths appserver.CoordPaths

	// prob is the allocation problem, kept across solves and restated by
	// refresh: the server list every time, the shards on stale where the
	// writers marked them. infos and cur are refresh's scratch.
	prob  *allocator.Problem
	stale []*shardState
	infos []allocator.ServerInfo
	cur   []int
	// solved, when set, is told every result solve returned: the seam
	// through which the tests run the allocator fresh beside the kept problem.
	solved func(mode allocator.Mode, res *allocator.Result)

	servers map[shard.ServerID]*serverState
	byID    []*serverState // the same servers sorted by ID: deterministic iteration
	// nodes are the same servers by liveness node name, and syncs counts the
	// membership syncs (serverState.seen).
	nodes  map[string]*serverState
	syncs  uint64
	shards map[shard.ID]*shardState
	order  []shard.ID // deterministic shard iteration
	// defaults[i*m:(i+1)*m] is the configured default load of the shard at
	// position i, converted once to the policy's m metrics.
	defaults []float64
	// version and gen stamp the last publication, changed lists the shards
	// whose replica list was written since, and delta and enc are publish's
	// staging buffers, restaged every time: the delta and an assignment node's
	// bytes. snap is AssignmentSnapshot's map, kept current: every mutator
	// writes the shard's entry (reindex) and every publication its version;
	// its entries are the shards with at least one replica.
	version, gen int64
	changed      []*shardState
	delta        *shard.Delta
	enc          []byte
	snap         *shard.Map

	// migrationQueue holds the migrations behind the concurrency cap, inFlight
	// those started and not finished (the cap counts them), in start order.
	migrationQueue []*migration
	inFlight       []*migration
	curAlloc       trace.SpanID // open "allocate" span, parent of spawned work
	// freeSteps and freeMigs are the free lists of step records (stepCall)
	// and migration records, and failRPC, waited and retried are o.failedRPC,
	// a migration's wait ending and a cleanup's retry, bound once: the RPCs
	// and waits the control plane issues all the time allocate no record and
	// no closure.
	freeSteps       *stepCall
	freeMigs        *migration
	failRPC         func()
	waited, retried func(any)

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

// New creates an orchestrator. Call Start to begin managing.
func New(loop *sim.Loop, store *coord.Store, disc *discovery.Service,
	net *rpcnet.Network, dir *appserver.Directory, fleet *topology.Fleet,
	cfg Config, seed uint64) *Orchestrator {
	cfg.fillDefaults()
	if cfg.FailoverGrace <= promoteHold {
		panic(fmt.Sprintf("orchestrator: FailoverGrace %v must exceed the promote hold %v", cfg.FailoverGrace, promoteHold))
	}
	o := &Orchestrator{
		cfg:      cfg,
		loop:     loop,
		store:    store,
		disc:     disc,
		net:      net,
		dir:      dir,
		fleet:    fleet,
		paths:    appserver.DefaultPaths(cfg.App),
		delta:    shard.NewDelta(cfg.App),
		servers:  make(map[shard.ServerID]*serverState),
		nodes:    make(map[string]*serverState),
		shards:   make(map[shard.ID]*shardState),
		draining: make(map[shard.ServerID]func()),
	}
	o.failRPC = o.failedRPC
	o.waited = func(m any) { o.drive(m.(*migration), true) }
	o.retried = func(c any) { o.runCleanup(c.(*cleanup)) }
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
	o.snap = &shard.Map{App: cfg.App, Entries: make(map[shard.ID][]shard.Assignment, len(o.order))}
	// Every replica's report is held in room made here, so that a collection
	// allocates nothing per replica: a shard has room for its replica count,
	// and grows only while a migration has it on one server more.
	dir.SetMetrics(cfg.App, cfg.Policy.Metrics)
	m := len(cfg.Policy.Metrics)
	replicas := 0
	for _, ss := range o.shards {
		replicas += ss.cfg.Replicas
	}
	from := make([]*serverState, replicas)
	vals := make([]float64, replicas*m)
	o.defaults = make([]float64, len(o.order)*m)
	specs := make([]allocator.ShardSpec, len(o.order))
	for i, id := range o.order {
		ss := o.shards[id]
		def := ss.cfg.DefaultLoad
		if def == nil {
			def = topology.Capacity{topology.ResourceShardCount: 1}
		}
		for k, r := range cfg.Policy.Metrics {
			o.defaults[i*m+k] = def.Get(r)
		}
		n := ss.cfg.Replicas
		ss.loadFrom, ss.loads = from[:0:n], vals[:0:n*m]
		from, vals = from[n:], vals[n*m:]
		specs[i] = allocator.ShardSpec{ID: id, Replicas: n}
		o.markShard(ss)
	}
	o.prob = allocator.New(cfg.Policy, seed).NewProblem(specs)
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
		o.shards[m.shard].mig = nil
		if tr.Enabled() {
			tr.EndSpan(m.span, trace.Bool("ok", false))
		}
		o.freeMigration(m)
	}
	clear(o.migrationQueue)
	o.migrationQueue = o.migrationQueue[:0]
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
	err := o.store.WatchChildren(o.paths.ServersPath, func(ev coord.Event) {
		if tr := o.loop.Tracer(); tr.Enabled() {
			tr.EndSpan(tr.StartSpan("orchestrator", "watch_fire", 0,
				trace.String("path", ev.Path),
				trace.String("type", ev.Type.String())))
		}
		o.syncMembership()
		o.watchMembership() // re-arm the one-shot watch
	})
	if err != nil {
		panic(fmt.Sprintf("orchestrator: watch: %v", err))
	}
}

// syncMembership reconciles the coordination store's liveness nodes with
// the orchestrator's server table. A node whose server is held alive is only
// marked seen: its payload and its name are read for a server not held
// alive.
func (o *Orchestrator) syncMembership() {
	kids, err := o.store.Children(o.paths.ServersPath)
	if err != nil {
		return
	}
	o.syncs++
	for _, kid := range kids {
		if st := o.nodes[kid]; st != nil && st.alive {
			st.seen = o.syncs
			continue
		}
		data, _, err := o.store.Get(o.paths.ServersPath + "/" + kid)
		if err != nil {
			continue
		}
		id := shard.ServerID(strings.ReplaceAll(kid, "~", "/")) // node names escape '/' as '~'
		st := o.servers[id]
		rejoined := st != nil
		if st == nil {
			st = &serverState{id: id, nodeStale: true, node: o.paths.AssignNode(id), bucket: -1}
			o.bindCollection(st)
			o.servers[id] = st
			o.nodes[kid] = st
			i, _ := slices.BinarySearchFunc(o.byID, id, func(s *serverState, id shard.ServerID) int {
				return cmp.Compare(s.id, id)
			})
			o.byID = slices.Insert(o.byID, i, st)
		}
		st.seen = o.syncs
		st.alive = true
		o.resolveMachine(st, string(data))
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
		if st.seen != o.syncs && st.alive {
			st.alive = false
			st.deadSince = o.loop.Now()
			anyDied = true
			o.scheduleFailover(st.id, st.deadSince)
		}
	}
	if anyDied && o.started {
		// Demote the dead servers' primaries immediately, but promotion of
		// replacements waits out promoteHold (reconcileRoles gates on
		// holdUntil); re-reconcile once the hold has elapsed so failover
		// does not wait for the next periodic allocation.
		o.reconcileAllRoles()
		o.loop.AfterL(promoteHold, lbPromoteHold, o.reconcileAllRoles)
	}
}

// resolveMachine fills the server's placement metadata from its liveness
// node payload (the machine ID written by the SM library's host).
func (o *Orchestrator) resolveMachine(st *serverState, payload string) {
	m := o.fleet.Machine(topology.MachineID(payload))
	if m == nil {
		panic(fmt.Sprintf("orchestrator: server %s on unknown machine %q", st.id, payload))
	}
	st.domains = map[string]string{
		topology.LevelRegion.String():     m.Domain(topology.LevelRegion),
		topology.LevelDatacenter.String(): m.Domain(topology.LevelDatacenter),
		topology.LevelRack.String():       m.Domain(topology.LevelRack),
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
	for _, m := range o.inFlight {
		if m.to == id {
			if protect == nil {
				protect = make(map[shard.ID]bool)
			}
			protect[m.shard] = true
		}
	}
	gen := o.store.NextEpoch()
	o.loop.Metrics().Counter("orchestrator_server_syncs_total",
		"app", string(o.cfg.App)).Inc()
	o.call(id, func(srv *appserver.Server) {
		srv.SyncAssignment(want, protect, gen)
	}, func() {}, o.failRPC)
}

// --- load collection ---

// collectLoads asks every live server for its load report. A round allocates
// nothing once every server has reported once: the callbacks are bound on the
// server's state and the report is written into the server's buffers.
func (o *Orchestrator) collectLoads() {
	for _, st := range o.byID {
		if st.alive {
			o.net.Call(o.cfg.HomeRegion, rpcnet.Endpoint(st.id), st.collect, nil, o.failRPC)
		}
	}
}

// bindCollection binds st's load-collection callbacks.
func (o *Orchestrator) bindCollection(st *serverState) {
	st.collect = func() {
		srv := o.dir.Lookup(st.id)
		if srv == nil {
			return
		}
		st.report = srv.LoadReport()
		o.loop.AfterL(0, lbLoadApply, st.apply)
	}
	st.apply = func() {
		// Each entry's values are copied into the room its shard holds for
		// this server. A replica the report leaves out reports what is held.
		// Every shard it names is marked, for the refresh to restate its
		// load.
		for _, e := range st.report {
			if ss := o.shards[e.Shard]; ss != nil {
				o.holdLoad(ss, st, e.Load)
			}
		}
		st.report = nil
	}
}

// holdLoad holds load as st's report of the shard and marks the shard.
func (o *Orchestrator) holdLoad(ss *shardState, st *serverState, load []float64) {
	if k := slices.Index(ss.loadFrom, st); k >= 0 {
		copy(ss.loads[k*len(load):], load)
	} else {
		ss.loadFrom = append(ss.loadFrom, st)
		ss.loads = append(ss.loads, load...)
	}
	o.markShard(ss)
}

// dropLoad forgets st's report of the shard, if it holds one, and marks the
// shard.
func (o *Orchestrator) dropLoad(ss *shardState, st *serverState) {
	if k := slices.Index(ss.loadFrom, st); k >= 0 {
		m := len(o.cfg.Policy.Metrics)
		ss.loadFrom = slices.Delete(ss.loadFrom, k, k+1)
		ss.loads = slices.Delete(ss.loads, k*m, (k+1)*m)
		o.markShard(ss)
	}
}

// shardLoad returns the shard's measured load — the report of the last
// replica in its list whose server has one — or its configured default, one
// value per policy metric in the policy's order. The slice is the held one:
// read it, do not keep it.
func (o *Orchestrator) shardLoad(ss *shardState) []float64 {
	m := len(o.cfg.Policy.Metrics)
	for i := len(ss.hosts) - 1; i >= 0; i-- {
		if l := ss.reported(ss.hosts[i], m); l != nil {
			return l
		}
	}
	return o.defaults[ss.pos*m : (ss.pos+1)*m : (ss.pos+1)*m]
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
	// The span covers the solve, so a trace puts the search inside the
	// allocation it belongs to.
	tr := o.loop.Tracer()
	if tr.Enabled() {
		o.curAlloc = tr.StartSpan("orchestrator", "allocate", 0,
			trace.String("app", string(o.cfg.App)),
			trace.String("mode", mode.String()))
	}
	res := o.solve(mode)
	if res == nil {
		if tr.Enabled() {
			tr.EndSpan(o.curAlloc)
		}
		o.curAlloc = 0
		return
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

// executeDiff turns allocator moves into RPC sequences.
func (o *Orchestrator) executeDiff(res *allocator.Result) {
	changed := false
	for _, mv := range res.Moves {
		ss := o.shards[mv.Shard]
		if ss == nil || ss.mig != nil {
			continue
		}
		if ss.orphaned() {
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
			o.callStep(o.curAlloc, addShard, mv.Shard, mv.To, "", role, nil, o.owe(ss, addShard, mv.To, ""))
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
	for i, st := range ss.hosts {
		if st == nil || !st.alive {
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
		for i, a := range ss.replicas {
			if st := ss.hosts[i]; a.Role == shard.RolePrimary && st != nil && st.alive {
				return shard.RoleSecondary
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

// reconcileRoles enforces exactly one primary per shard for the
// primary-secondary strategy: primaries on dead servers are demoted in place
// (no RPC — the server is gone; if it restarts it reads the corrected role
// from the persisted assignment), surplus alive primaries are demoted by RPC,
// and if no alive primary remains a secondary is promoted (automatic failover
// of the primary role). A primary-only shard has no secondary to promote: its
// one replica stays primary on a dead server, and one that restarts inside
// the failover grace is confirmed by the rejoin sync. Returns true if
// anything changed.
func (o *Orchestrator) reconcileRoles(ss *shardState) bool {
	if o.cfg.Strategy != shard.PrimarySecondary || ss.mig != nil {
		return false
	}
	changed := false
	alivePrimary := -1
	for i, a := range ss.replicas {
		if a.Role != shard.RolePrimary {
			continue
		}
		if st := ss.hosts[i]; st == nil || !st.alive {
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
	if alivePrimary == -1 && o.loop.Now() >= ss.holdUntil && !ss.orphaned() {
		for i, a := range ss.replicas {
			if a.Role != shard.RoleSecondary {
				continue
			}
			if st := ss.hosts[i]; st != nil && st.alive {
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

// A migration moves one replica of a shard from one server to another. It is
// a record the step table drives: its phase names the list of steps it is on,
// and step the one it is at. An RPC or timer in flight holds the record, never
// a continuation: its outcome goes through advance, and drive carries out
// what advance returns.
type migration struct {
	shard    shard.ID
	from, to shard.ServerID
	graceful bool
	// role is the moving replica's, read when the migration leaves the queue;
	// every grant of the move carries it.
	role  shard.Role
	phase phase
	step  int // index into steps[phase]
	// span covers the whole migration from enqueue to finish; the per-step
	// RPCs (prepare_add_shard, add_shard, drop_shard, ...) are its children.
	span trace.SpanID
	next *migration // free-list link
}

// phase is where a migration is: queued, on one of the step lists, or
// finished.
type phase uint8

const (
	queued          phase = iota // behind the concurrency cap
	gracefulMove                 // §4.3's primary hand-off
	makeBeforeBreak              // a secondary: add the new, then drop the old
	breakBeforeMake              // a primary without §4.3 (Fig 17's ablation): drop, then add
	rollingBack                  // undoing a graceful move that failed before its commit
	finished                     // only its last effects are left to run
)

// op is one RPC, named as its span and MigrationStep hook are, or one wait.
type op string

const (
	prepareAdd   op = "prepare_add_shard"
	prepareDrop  op = "prepare_drop_shard" // the source forwards to the target
	addShard     op = "add_shard"
	dropShard    op = "drop_shard"
	orphanDrop   op = "drop_orphan"
	sourceResume op = "resume_shard"
	loadWait     op = "load_wait"    // ShardLoadTime, while the target loads
	publishWait  op = "publish_wait" // publishMargin, while clients learn the map
)

// effect is one thing a transition does besides issuing its next op.
type effect uint8

const (
	commit             effect = iota + 1 // re-home the replica to the target and publish
	orphanTarget                         // the target may hold the shard: make it a pending orphan
	orphanTargetResume                   // the same, and resume the source once the orphan settles
	orphanSource                         // the source may still hold the shard: make it a pending orphan
	succeed                              // finish ok
	fail                                 // count the failed RPC and finish failed: the emergency plan runs
	resume                               // resume the source now
)

// A stepDef is one step: its op, on the target unless atSource, and the
// effects of its success and of its failure, in order. A failure with no
// effects carries on as a success would, unless the step rolls back. The
// last step's success, and every failure with effects, ends the migration.
type stepDef struct {
	op           op
	atSource     bool
	onOK, onFail []effect
	rollsBack    bool
}

// steps are the step lists. An orphan is registered before its migration
// finishes: finishing failed runs an emergency allocation, whose plan must see
// the orphan and leave the shard alone. A rolled-back source resumes only once
// the target provably holds nothing (after the drop, or once the orphan
// settles), or two primaries could be active at once.
var steps = [...][]stepDef{
	gracefulMove: {
		// Any RPC may have executed though its reply was lost, so a failure
		// before the commit rolls back even where nothing was added yet.
		{op: prepareAdd, rollsBack: true},
		{op: loadWait},
		{op: prepareDrop, atSource: true, rollsBack: true},
		{op: addShard, onOK: []effect{commit}, rollsBack: true},
		{op: publishWait},
		// The move committed, but an unacknowledged drop may leave the source
		// forwarding, or serving, unless it is retried.
		{op: dropShard, atSource: true, onOK: []effect{succeed}, onFail: []effect{orphanSource, succeed}},
	},
	makeBeforeBreak: {
		{op: addShard, onOK: []effect{commit}, onFail: []effect{orphanTarget, fail}},
		{op: publishWait},
		{op: dropShard, atSource: true, onOK: []effect{succeed}, onFail: []effect{orphanSource, succeed}},
	},
	breakBeforeMake: {
		// A failed drop may leave a live source serving: adding the target
		// then would make a second primary, so the move fails instead.
		{op: dropShard, atSource: true, onFail: []effect{orphanSource, fail}},
		{op: addShard, onOK: []effect{commit, succeed}, onFail: []effect{orphanTarget, fail}},
	},
	rollingBack: {
		{op: dropShard, onOK: []effect{fail, resume}, onFail: []effect{orphanTargetResume, fail}},
	},
}

// advance is the migrations' transition function. Given a migration and the
// outcome of its current step (a wait always succeeds), it returns the
// migration's next state, the effects to run and the step to issue next (none
// once it finished). A queued migration starts: a graceful primary move runs
// §4.3's protocol, a secondary moves make-before-break and any other primary
// move break-before-make. It reads and writes nothing else.
func advance(m migration, ok bool) (migration, []effect, stepDef) {
	if m.phase == queued {
		m.phase = breakBeforeMake
		if m.role == shard.RoleSecondary {
			m.phase = makeBeforeBreak
		} else if m.graceful && m.role == shard.RolePrimary {
			m.phase = gracefulMove
		}
		return m, nil, steps[m.phase][0]
	}
	st := steps[m.phase][m.step]
	switch {
	case !ok && st.rollsBack:
		m.phase, m.step = rollingBack, 0
		return m, nil, steps[rollingBack][0]
	case !ok && st.onFail != nil:
		m.phase = finished
		return m, st.onFail, stepDef{}
	case m.step == len(steps[m.phase])-1:
		m.phase = finished
		return m, st.onOK, stepDef{}
	}
	m.step++
	return m, st.onOK, steps[m.phase][m.step]
}

// enqueueMigration queues m, copied into a record off the free list.
func (o *Orchestrator) enqueueMigration(m migration) {
	r := o.freeMigs
	if r == nil {
		r = &migration{}
	} else {
		o.freeMigs = r.next
	}
	*r = m
	r.phase = queued
	o.shards[r.shard].mig = r
	if tr := o.loop.Tracer(); tr.Enabled() {
		// The span opens at enqueue so queueing delay behind the
		// concurrency cap is part of the migration's measured latency.
		r.span = tr.StartSpan("orchestrator", "migration", o.curAlloc,
			trace.String("shard", string(r.shard)),
			trace.String("from", string(r.from)),
			trace.String("to", string(r.to)),
			trace.Bool("graceful", r.graceful))
	}
	o.migrationQueue = append(o.migrationQueue, r)
}

// freeMigration puts a record that nothing holds any more, one finished or
// dropped from the queue, on the free list.
func (o *Orchestrator) freeMigration(m *migration) {
	*m = migration{next: o.freeMigs}
	o.freeMigs = m
}

// pumpMigrations starts queued migrations up to the concurrency cap. The
// queue is shifted down in place, so that it keeps its room.
func (o *Orchestrator) pumpMigrations() {
	for len(o.inFlight) < o.cfg.MaxConcurrentMigrations && len(o.migrationQueue) > 0 {
		m := o.migrationQueue[0]
		o.migrationQueue = slices.Delete(o.migrationQueue, 0, 1)
		o.inFlight = append(o.inFlight, m)
		ss := o.shards[m.shard]
		m.role = ss.replicas[ss.find(m.from)].Role
		if tr := o.loop.Tracer(); tr.Enabled() {
			tr.EndSpan(tr.StartSpan("orchestrator", "migration_start", m.span,
				trace.String("shard", string(m.shard)),
				trace.String("role", m.role.String())))
		}
		o.loop.Metrics().Gauge("orchestrator_migrations_inflight",
			"app", string(o.cfg.App)).Set(float64(len(o.inFlight)))
		for _, h := range o.hooks {
			if h.MigrationStarted != nil {
				h.MigrationStarted(m.shard, m.from, m.to, m.graceful)
			}
		}
		o.drive(m, true)
	}
}

func (o *Orchestrator) finishMigration(m *migration, ok bool) {
	if tr := o.loop.Tracer(); tr.Enabled() {
		tr.EndSpan(m.span, trace.Bool("ok", ok))
	}
	i := slices.Index(o.inFlight, m)
	o.inFlight = slices.Delete(o.inFlight, i, i+1)
	mr := o.loop.Metrics()
	mr.Counter("orchestrator_migrations_total", "app", string(o.cfg.App), "outcome", status(ok)).Inc()
	mr.Gauge("orchestrator_migrations_inflight", "app", string(o.cfg.App)).Set(float64(len(o.inFlight)))
	for _, h := range o.hooks {
		if h.MigrationFinished != nil {
			h.MigrationFinished(m.shard, ok)
		}
	}
	o.shards[m.shard].mig = nil
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

// drive is the migrations' one executor: it feeds the outcome of m's current
// step through advance, runs the effects in order and issues the next step.
// A wait holds the record as its argument. A finished record goes back on the
// free list only after the last effect: a failed rollback resumes its source
// after it finished, and finishing can enqueue new migrations.
func (o *Orchestrator) drive(m *migration, ok bool) {
	n, effects, next := advance(*m, ok)
	*m = n
	ss := o.shards[m.shard]
	for _, e := range effects {
		switch e {
		case commit:
			o.rehomeReplica(ss, ss.find(m.from), m.to)
			o.publish()
		case orphanTarget:
			o.retryCleanup(o.owe(ss, orphanDrop, m.to, ""))
		case orphanTargetResume:
			o.retryCleanup(o.owe(ss, orphanDrop, m.to, m.from))
		case orphanSource:
			o.retryCleanup(o.owe(ss, orphanDrop, m.from, ""))
		case succeed:
			o.finishMigration(m, true)
		case fail:
			o.failedRPC()
			o.finishMigration(m, false)
		case resume:
			o.runCleanup(o.owe(ss, sourceResume, m.from, ""))
		}
	}
	server, peer := m.to, m.from
	if next.atSource {
		server, peer = m.from, m.to
	}
	switch next.op {
	case "":
		o.freeMigration(m)
	case loadWait:
		o.loop.PostArgL(o.cfg.ShardLoadTime, lbMigrationLoad, o.waited, m)
	case publishWait:
		o.loop.PostArgL(publishMargin, lbPublishMargin, o.waited, m)
	default:
		o.callStep(m.span, next.op, m.shard, server, peer, m.role, m, nil)
	}
}

// A cleanup is an RPC the control plane owes one server of a shard until the
// server acknowledges it or no longer needs it: the drop of a replica a
// migration may have left behind (an orphan: an RPC can execute yet report
// failure when the reply is lost, and an orphaned active primary is invisible
// to the replica lists), the resume of an aborted hand-off's source (its
// prepare_drop may have executed, leaving it forwarding to a target that no
// longer holds the shard), or an add the published map already promises
// (clients route to it; an unrepaired replica bounces them with not-owner).
// Each is retried every orphanRetry by runCleanup until it settles.
type cleanup struct {
	ss     *shardState
	op     op // orphanDrop, sourceResume or addShard
	server shard.ServerID
	then   shard.ServerID // an orphan drop's: the source its settling resumes
}

// owe records a cleanup on ss.
func (o *Orchestrator) owe(ss *shardState, op op, server, then shard.ServerID) *cleanup {
	c := &cleanup{ss: ss, op: op, server: server, then: then}
	ss.cleanups = append(ss.cleanups, c)
	return c
}

// orphaned reports whether the shard has a pending orphan.
func (ss *shardState) orphaned() bool {
	return slices.ContainsFunc(ss.cleanups, func(c *cleanup) bool { return c.op == orphanDrop })
}

// facts decide a cleanup: whether a migration of the shard is queued or
// started, has started, has started and moves the shard to or from the
// server; whether the replica list names the server; whether it is alive; and
// whether the shard has a pending orphan.
type facts struct {
	migrating, started, owned, listed, alive, orphaned bool
}

// decide is a cleanup's rule: whether it is still owed and, if so, whether
// its RPC goes out now rather than after orphanRetry. An orphan drop settles
// once a started migration owns the server's replica state, the server
// legitimately holds the shard again, or it died (its replicas die with the process; a rejoin runs
// SyncAssignment). Re-engaging is narrow: executeDiff starts nothing on a
// shard with a pending orphan and every orphan is registered before its
// migration finishes, so the one writer that can list a pending orphan's
// server again is the commit of a migration enqueued before the orphan was
// registered, which added the shard there under a newer generation. A resume
// settles once a started migration or another assignment supersedes it or the
// server died, and waits while any orphan is pending: an orphan may be an
// active primary, and resuming next to it would put two primaries up at once
// (ResumeShard itself no-ops unless the replica forwards). An add waits while
// a migration owns the shard's transitions and settles once the replica is
// re-assigned or the server died.
func decide(op op, f facts) (owed, now bool) {
	switch {
	case op == orphanDrop && (f.owned || f.listed || !f.alive),
		op == sourceResume && (f.started || !f.listed || !f.alive),
		op == addShard && !f.migrating && (!f.listed || !f.alive):
		return false, false
	case op == sourceResume && f.orphaned, op == addShard && f.migrating:
		return true, false
	}
	return true, true
}

// runCleanup decides c and carries the verdict out.
func (o *Orchestrator) runCleanup(c *cleanup) {
	ss, st, m := c.ss, o.servers[c.server], c.ss.mig
	i := ss.find(c.server)
	f := facts{migrating: m != nil, listed: i != -1, alive: st != nil && st.alive, orphaned: ss.orphaned()}
	f.started = m != nil && m.phase != queued
	f.owned = f.started && (m.from == c.server || m.to == c.server)
	switch owed, now := decide(c.op, f); {
	case !owed:
		o.settle(c)
	case !now:
		o.retryCleanup(c)
	default:
		var role shard.Role
		if c.op == addShard {
			role = ss.replicas[i].Role
		}
		o.callStep(o.curAlloc, c.op, ss.cfg.ID, c.server, "", role, nil, c)
	}
}

// retryCleanup runs c again after orphanRetry.
func (o *Orchestrator) retryCleanup(c *cleanup) {
	o.loop.PostArgL(orphanRetry, lbOrphanGC, o.retried, c)
}

// settle removes c from its shard; an orphan drop's settling resumes the
// source it names.
func (o *Orchestrator) settle(c *cleanup) {
	i := slices.Index(c.ss.cleanups, c)
	c.ss.cleanups = slices.Delete(c.ss.cleanups, i, i+1)
	if c.then != "" {
		o.runCleanup(o.owe(c.ss, sourceResume, c.then, ""))
	}
}

// status names an RPC's or a migration's outcome.
func status(ok bool) string {
	if ok {
		return "ok"
	}
	return "failed"
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
// unreachable. None may be nil.
func (o *Orchestrator) call(id shard.ServerID, handle func(*appserver.Server), done func(), fail func()) {
	o.net.Call(o.cfg.HomeRegion, rpcnet.Endpoint(id), func() {
		if srv := o.dir.Lookup(id); srv != nil {
			handle(srv)
		}
	}, done, fail)
}

// callStep performs one shard-lifecycle RPC, step on server about shard s
// (peer: prepare_add's current owner, prepare_drop's new owner), as a traced
// child span of parent, so a migration reads as its protocol steps in the
// trace viewer. A grant draws its generation here. The outcome fires the
// MigrationStep hook and goes to the record that sent the RPC: the migration
// m, or else the cleanup c, which settles or is retried.
func (o *Orchestrator) callStep(parent trace.SpanID, step op, s shard.ID, server, peer shard.ServerID,
	role shard.Role, m *migration, c *cleanup) {
	r := o.freeSteps
	if r == nil {
		r = &stepCall{o: o}
		r.handle, r.done, r.fail = r.run, r.succeeded, r.failed
	} else {
		o.freeSteps = r.next
		r.next = nil
	}
	r.step, r.shard, r.server, r.peer, r.role, r.m, r.c = step, s, server, peer, role, m, c
	if step == prepareAdd || step == addShard || step == sourceResume {
		r.gen = o.store.NextEpoch()
	}
	if tr := o.loop.Tracer(); tr.Enabled() {
		r.span = tr.StartSpan("orchestrator", string(step), parent, trace.String("server", string(server)))
	}
	o.net.Call(o.cfg.HomeRegion, rpcnet.Endpoint(server), r.handle, r.done, r.fail)
}

// A stepCall is one shard-lifecycle RPC in flight: callStep's arguments, the
// generation it drew and its span. It comes off the orchestrator's free list,
// and its handle, done and fail are its methods bound once, when the record
// is made, so a step allocates nothing. rpcnet runs handle at most once and
// then exactly one of done and fail, and report puts the record back after it
// has read the fields and before the outcome runs anything, so a step that
// issues the next one reuses the record.
type stepCall struct {
	o            *Orchestrator
	next         *stepCall // free-list link
	step         op
	shard        shard.ID
	server, peer shard.ServerID
	role         shard.Role
	gen          int64
	span         trace.SpanID
	m            *migration
	c            *cleanup

	handle, done, fail func()
}

// run carries the step out at the server.
func (r *stepCall) run() {
	srv := r.o.dir.Lookup(r.server)
	if srv == nil {
		return
	}
	switch r.step {
	case prepareAdd:
		srv.PrepareAddShard(r.shard, r.peer, r.role, r.gen)
	case prepareDrop:
		srv.PrepareDropShard(r.shard, r.peer, r.role)
	case addShard:
		srv.AddShard(r.shard, r.role, r.gen)
	case sourceResume:
		srv.ResumeShard(r.shard, r.gen)
	default:
		srv.DropShard(r.shard)
	}
}

func (r *stepCall) succeeded() { r.report(true) }
func (r *stepCall) failed()    { r.report(false) }

// report returns the record to the free list and then ends the step's span,
// fires the MigrationStep hook and hands the outcome to the migration or the
// cleanup that sent the step.
func (r *stepCall) report(ok bool) {
	o, step, s, server, sp, m, c := r.o, r.step, r.shard, r.server, r.span, r.m, r.c
	*r = stepCall{o: o, next: o.freeSteps, handle: r.handle, done: r.done, fail: r.fail}
	o.freeSteps = r

	if tr := o.loop.Tracer(); tr.Enabled() {
		tr.EndSpan(sp, trace.String("status", status(ok)))
	}
	for _, h := range o.hooks {
		if h.MigrationStep != nil {
			h.MigrationStep(s, string(step), server, status(ok))
		}
	}
	switch {
	case m != nil:
		o.drive(m, ok)
	case !ok:
		o.failedRPC()
		o.retryCleanup(c)
	default:
		if step == orphanDrop {
			o.loop.Metrics().Counter("orchestrator_orphan_drops_total",
				"app", string(o.cfg.App)).Inc()
		}
		o.settle(c)
	}
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
	o.snap.Version = o.version
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
		// coord's write count is part of the seeded record (ROADMAP 3(b)).
		for _, st := range ss.hosts {
			if st != nil {
				st.nodeStale = true
			}
		}
		ss.changed = false // only now: a repair above must not re-list the shard
	}
	o.changed = o.changed[:0]
	if tr := o.loop.Tracer(); tr.Enabled() {
		tr.EndSpan(tr.StartSpan("orchestrator", "publish", o.curAlloc,
			trace.String("app", string(o.cfg.App)),
			trace.Int64("version", o.version),
			trace.Int("entries", len(o.snap.Entries))))
	}
	o.loop.Metrics().Counter("orchestrator_publishes_total",
		"app", string(o.cfg.App)).Inc()
	for _, h := range o.hooks {
		if h.MapPublished != nil {
			h.MapPublished(o.version, len(o.snap.Entries))
		}
		if h.MapDelta != nil {
			h.MapDelta(d)
		}
	}
	if lv := o.disc.Latest(o.cfg.App); lv.Version != lastVersion || lv.Gen != lastGen {
		// Discovery is not where this orchestrator left it: another
		// incarnation published in between, so the last delta was dropped or
		// this one would land on a map it was not made against. Resend the
		// whole map, its generation stamped on a copy of the kept map.
		m := *o.snap
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
		o.enc = appserver.AppendEntries(o.enc[:0], st.shards)
		var err error
		if o.store.Exists(st.node) {
			_, err = o.store.Set(st.node, o.enc, -1)
		} else {
			err = o.store.Create(st.node, o.enc, nil)
		}
		st.nodeStale = err != nil
	}
}

// --- TaskController-facing API ---

// AssignmentSnapshot returns the current authoritative shard map (not the
// possibly stale discovery view), stamped with the last published version.
// The map is the orchestrator's own, kept current as the placement changes,
// so a read allocates nothing: it is read-only, and valid until the placement
// next changes. A reader that keeps it across a change, or edits it, takes a
// Clone. Each entry is capped at its own length, so a reader's append copies
// it rather than write into the placement.
func (o *Orchestrator) AssignmentSnapshot() *shard.Map { return o.snap }

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
		for _, host := range o.shards[e.Shard].hosts {
			if host != nil && host.alive {
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
	if ss := o.shards[s]; ss != nil {
		ss.cfg.RegionPreference = region
		ss.cfg.PreferenceWeight = weight
		o.markShard(ss)
	}
}

// ShardLoadValue returns the latest measured load of a shard for one
// resource. It is 0 for a resource the policy does not balance on: reports
// carry only the policy's metrics.
func (o *Orchestrator) ShardLoadValue(s shard.ID, r topology.Resource) float64 {
	ss := o.shards[s]
	k := slices.Index(o.cfg.Policy.Metrics, r)
	if ss == nil || k < 0 {
		return 0
	}
	return o.shardLoad(ss)[k]
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
	st.draining = true
	o.draining[id] = onDone
	o.allocate(allocator.Periodic)
	o.checkDrainsDone() // arms the periodic re-check
}

// CancelDrain clears the draining mark (e.g. operation aborted).
func (o *Orchestrator) CancelDrain(id shard.ServerID) {
	if st := o.servers[id]; st != nil {
		st.draining = false
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
		if ss.mig != nil || ss.replicas[i].Role != shard.RolePrimary {
			continue
		}
		// Find an alive secondary to promote.
		promote := -1
		for j, other := range ss.replicas {
			if other.Role != shard.RoleSecondary {
				continue
			}
			if host := ss.hosts[j]; host != nil && host.alive && !host.draining {
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
