package orchestrator

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/appserver"
	"shardmanager/internal/cluster"
	"shardmanager/internal/coord"
	"shardmanager/internal/discovery"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// countApp tracks per-shard ownership for assertions.
type countApp struct {
	owner map[shard.ID]shard.Role
}

func newCountApp() *countApp { return &countApp{owner: map[shard.ID]shard.Role{}} }

func (a *countApp) AddShard(s shard.ID, role shard.Role) any {
	a.owner[s] = role
	return nil
}
func (a *countApp) DropShard(s shard.ID)                    { delete(a.owner, s) }
func (a *countApp) ChangeRole(s shard.ID, _, to shard.Role) { a.owner[s] = to }
func (a *countApp) HandleRequest(*appserver.Request, any) (any, error) {
	return "ok", nil
}

type world struct {
	loop     *sim.Loop
	fleet    *topology.Fleet
	store    *coord.Store
	disc     *discovery.Service
	net      *rpcnet.Network
	dir      *appserver.Directory
	managers map[topology.RegionID]*cluster.Manager
	host     *appserver.Host
	orch     *Orchestrator
}

// buildWorld wires a full single-app deployment: fleet, one cluster manager
// per region, one job per region, hosts, and an orchestrator.
func buildWorld(t *testing.T, regions []topology.RegionID, serversPerRegion int, cfg Config) *world {
	t.Helper()
	return buildWorldOf(t, regions, serversPerRegion, cfg,
		func(*appserver.Server) appserver.Application { return newCountApp() })
}

// buildWorldOf is buildWorld with the application each server runs.
func buildWorldOf(t *testing.T, regions []topology.RegionID, serversPerRegion int, cfg Config,
	factory func(*appserver.Server) appserver.Application) *world {
	t.Helper()
	fleet := topology.Build(topology.Spec{
		Regions:           regions,
		MachinesPerRegion: serversPerRegion,
	})
	loop := sim.NewLoop(11)
	w := &world{
		loop:     loop,
		fleet:    fleet,
		store:    coord.NewStore(),
		disc:     discovery.NewService(loop, discovery.FixedDelay(500*time.Millisecond)),
		net:      rpcnet.NewNetwork(loop, fleet),
		dir:      appserver.NewDirectory(),
		managers: make(map[topology.RegionID]*cluster.Manager),
	}
	for _, r := range regions {
		mgr := cluster.NewManager(loop, fleet, r, cluster.DefaultOptions())
		w.managers[r] = mgr
		job := cluster.JobID(fmt.Sprintf("%s-job-%s", cfg.App, r))
		host := appserver.NewHost(loop, w.net, w.dir, w.store, fleet, cfg.App, job, factory)
		mgr.AddListener(host)
		w.host = host
		mgr.CreateJob(job, serversPerRegion)
	}
	cfg.HomeRegion = regions[0]
	w.orch = New(loop, w.store, w.disc, w.net, w.dir, fleet, cfg, 1)
	w.orch.Start()
	return w
}

// machineOf returns the machine the server's container runs on.
func (w *world) machineOf(t *testing.T, id shard.ServerID) topology.MachineID {
	t.Helper()
	for _, mgr := range w.managers {
		if c, ok := mgr.Container(cluster.ContainerID(id)); ok {
			return c.Machine
		}
	}
	t.Fatalf("no container %s", id)
	return ""
}

func shardConfigs(n, replicas int) []ShardConfig {
	out := make([]ShardConfig, n)
	for i := range out {
		out[i] = ShardConfig{
			ID:       shard.ID(fmt.Sprintf("s%03d", i)),
			Replicas: replicas,
			DefaultLoad: topology.Capacity{
				topology.ResourceCPU:        1,
				topology.ResourceShardCount: 1,
			},
		}
	}
	return out
}

func basePolicy() allocator.Policy {
	return allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
}

func baseConfig(strategy shard.ReplicationStrategy, shards, replicas int) Config {
	return Config{
		App:               "app",
		Strategy:          strategy,
		Shards:            shardConfigs(shards, replicas),
		Policy:            basePolicy(),
		ServerCapacity:    topology.Capacity{topology.ResourceCPU: 100, topology.ResourceShardCount: 1000},
		GracefulMigration: true,
	}
}

// assertConverged checks that every shard has the expected replica count on
// alive servers and that the authoritative map validates.
func assertConverged(t *testing.T, w *world, replicas int) {
	t.Helper()
	m := w.orch.AssignmentSnapshot()
	if err := m.Validate(); err != nil {
		t.Fatalf("invalid map: %v", err)
	}
	for id, as := range m.Entries {
		if len(as) != replicas {
			t.Fatalf("shard %s has %d replicas, want %d", id, len(as), replicas)
		}
		for _, a := range as {
			if srv := w.dir.Lookup(a.Server); srv == nil {
				t.Fatalf("shard %s on dead server %s", id, a.Server)
			}
		}
	}
	if len(m.Entries) != len(w.orch.cfg.Shards) {
		t.Fatalf("map has %d shards, want %d", len(m.Entries), len(w.orch.cfg.Shards))
	}
}

func TestInitialPlacementPrimaryOnly(t *testing.T) {
	w := buildWorld(t, []topology.RegionID{"r1"}, 6, baseConfig(shard.PrimaryOnly, 30, 1))
	w.loop.RunFor(3 * time.Minute)
	assertConverged(t, w, 1)
	// Every replica is a primary and the owning server agrees.
	m := w.orch.AssignmentSnapshot()
	for id, as := range m.Entries {
		if as[0].Role != shard.RolePrimary {
			t.Fatalf("shard %s role = %v", id, as[0].Role)
		}
		srv := w.dir.Lookup(as[0].Server)
		if !srv.HoldsActive(id) {
			t.Fatalf("server %s does not hold %s", as[0].Server, id)
		}
	}
	// Discovery received the map: its latest version is the orchestrator's.
	if got := w.disc.Latest("app").Map(); got == nil || got.Version != w.orch.version || len(got.Entries) != len(m.Entries) {
		t.Fatalf("discovery holds %+v, orchestrator published v%d with %d entries", got, w.orch.version, len(m.Entries))
	}
}

func TestInitialPlacementPrimarySecondarySpread(t *testing.T) {
	w := buildWorld(t, []topology.RegionID{"r1", "r2", "r3"}, 4, baseConfig(shard.PrimarySecondary, 20, 3))
	w.loop.RunFor(5 * time.Minute)
	assertConverged(t, w, 3)
	m := w.orch.AssignmentSnapshot()
	for id, as := range m.Entries {
		primaries := 0
		regions := map[topology.RegionID]bool{}
		for _, a := range as {
			if a.Role == shard.RolePrimary {
				primaries++
			}
			regions[w.net.Region(rpcnet.Endpoint(a.Server))] = true
		}
		if primaries != 1 {
			t.Fatalf("shard %s has %d primaries", id, primaries)
		}
		if len(regions) != 3 {
			t.Fatalf("shard %s spans %d regions, want 3", id, len(regions))
		}
	}
}

func TestFailoverReplacesDeadServerReplicas(t *testing.T) {
	cfg := baseConfig(shard.PrimaryOnly, 24, 1)
	cfg.FailoverGrace = 20 * time.Second
	w := buildWorld(t, []topology.RegionID{"r1"}, 6, cfg)
	w.loop.RunFor(3 * time.Minute)
	assertConverged(t, w, 1)

	// Kill a machine; after the grace period its shards move elsewhere.
	mgr := w.managers["r1"]
	cid := mgr.RunningContainers("app-job-r1")[0]
	victim := shard.ServerID(cid)
	before := w.orch.ShardsOnServer(victim)
	if before == 0 {
		t.Fatal("victim held no shards")
	}
	c, _ := mgr.Container(cid)
	mgr.KillMachine(c.Machine)
	w.loop.RunFor(5 * time.Minute)
	assertConverged(t, w, 1)
	if w.orch.EmergencyRuns.Value() == 0 {
		t.Fatal("no emergency allocation ran")
	}
	if n := w.orch.ShardsOnServer(victim); n != 0 {
		t.Fatalf("dead server still holds %d shards", n)
	}
}

func TestQuickRestartDoesNotTriggerFailover(t *testing.T) {
	cfg := baseConfig(shard.PrimaryOnly, 12, 1)
	cfg.FailoverGrace = 5 * time.Minute // restart (60s) well under grace
	w := buildWorld(t, []topology.RegionID{"r1"}, 4, cfg)
	w.loop.RunFor(3 * time.Minute)
	mgr := w.managers["r1"]
	cid := mgr.RunningContainers("app-job-r1")[0]
	mgr.Submit(cluster.Operation{Container: cid, Negotiable: false, Reason: "upgrade"})
	w.loop.RunFor(10 * time.Minute)
	if w.orch.EmergencyRuns.Value() != 0 {
		t.Fatalf("emergency ran %d times for a quick restart", w.orch.EmergencyRuns.Value())
	}
	// The restarted server restored its shards from the store.
	srv := w.dir.Lookup(shard.ServerID(cid))
	if srv == nil {
		t.Fatal("server did not come back")
	}
	if w.orch.ShardsOnServer(shard.ServerID(cid)) == 0 {
		t.Fatal("orchestrator forgot the server's shards")
	}
	if len(srv.Shards()) == 0 {
		t.Fatal("server did not restore shards at start-up")
	}
}

func TestPrimaryFailoverPromotesSecondary(t *testing.T) {
	cfg := baseConfig(shard.PrimarySecondary, 10, 2)
	cfg.FailoverGrace = 20 * time.Second
	w := buildWorld(t, []topology.RegionID{"r1", "r2"}, 4, cfg)
	w.loop.RunFor(5 * time.Minute)
	assertConverged(t, w, 2)

	// Find the primary server of shard s000 and kill its machine.
	m := w.orch.AssignmentSnapshot()
	prim, ok := m.Primary("s000")
	if !ok {
		t.Fatal("no primary for s000")
	}
	var mgr *cluster.Manager
	var container cluster.Container
	for _, cm := range w.managers {
		if c, ok := cm.Container(cluster.ContainerID(prim)); ok {
			mgr, container = cm, c
			break
		}
	}
	mgr.KillMachine(container.Machine)
	w.loop.RunFor(5 * time.Minute)

	m = w.orch.AssignmentSnapshot()
	newPrim, ok := m.Primary("s000")
	if !ok {
		t.Fatal("shard lost its primary permanently")
	}
	if newPrim == prim {
		t.Fatal("primary still on dead server")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainEmptiesServer(t *testing.T) {
	cfg := baseConfig(shard.PrimaryOnly, 24, 1)
	w := buildWorld(t, []topology.RegionID{"r1"}, 6, cfg)
	w.loop.RunFor(3 * time.Minute)
	mgr := w.managers["r1"]
	victim := shard.ServerID(mgr.RunningContainers("app-job-r1")[0])
	if w.orch.ShardsOnServer(victim) == 0 {
		t.Fatal("victim empty before drain")
	}
	done := false
	w.orch.Drain(victim, func() { done = true })
	w.loop.RunFor(10 * time.Minute)
	if !done {
		t.Fatalf("drain never completed; still %d shards", w.orch.ShardsOnServer(victim))
	}
	if n := w.orch.ShardsOnServer(victim); n != 0 {
		t.Fatalf("server still holds %d shards", n)
	}
	assertConverged(t, w, 1)
	// After CancelDrain + reallocation, the server may receive shards
	// again.
	w.orch.CancelDrain(victim)
	w.loop.RunFor(5 * time.Minute)
}

func TestDrainEmptyServerCompletesImmediately(t *testing.T) {
	cfg := baseConfig(shard.PrimaryOnly, 4, 1)
	w := buildWorld(t, []topology.RegionID{"r1"}, 4, cfg)
	done := false
	w.orch.Drain("ghost", func() { done = true })
	if !done {
		t.Fatal("drain of unknown server should complete immediately")
	}
	_ = w
}

func TestDemotePrimariesPromotesElsewhere(t *testing.T) {
	cfg := baseConfig(shard.PrimarySecondary, 12, 2)
	w := buildWorld(t, []topology.RegionID{"r1", "r2"}, 4, cfg)
	w.loop.RunFor(5 * time.Minute)
	m := w.orch.AssignmentSnapshot()
	// Pick a server holding at least one primary.
	var victim shard.ServerID
	for id := range m.Entries {
		if p, ok := m.Primary(id); ok {
			victim = p
			break
		}
	}
	w.orch.DemotePrimaries(victim)
	w.loop.RunFor(time.Minute)
	m = w.orch.AssignmentSnapshot()
	for id, as := range m.Entries {
		for _, a := range as {
			if a.Server == victim && a.Role == shard.RolePrimary {
				t.Fatalf("shard %s still has primary on demoted server", id)
			}
		}
		primaries := 0
		for _, a := range as {
			if a.Role == shard.RolePrimary {
				primaries++
			}
		}
		if primaries != 1 {
			t.Fatalf("shard %s has %d primaries after demotion", id, primaries)
		}
	}
}

func TestAliveReplicasReporting(t *testing.T) {
	cfg := baseConfig(shard.SecondaryOnly, 10, 2)
	w := buildWorld(t, []topology.RegionID{"r1", "r2"}, 3, cfg)
	w.loop.RunFor(5 * time.Minute)
	m := w.orch.AssignmentSnapshot()
	srv := m.Entries["s000"][0].Server
	counts := w.orch.AliveReplicas(srv)
	if len(counts) == 0 {
		t.Fatal("no shards reported on server")
	}
	for id, n := range counts {
		if n != 2 {
			t.Fatalf("shard %s alive replicas = %d, want 2", id, n)
		}
	}
}

func TestPublishPersistsAssignments(t *testing.T) {
	cfg := baseConfig(shard.PrimaryOnly, 8, 1)
	w := buildWorld(t, []topology.RegionID{"r1"}, 4, cfg)
	w.loop.RunFor(3 * time.Minute)
	m := w.orch.AssignmentSnapshot()
	srv := m.Entries["s000"][0].Server
	node := appserver.DefaultPaths("app").AssignNode(srv)
	data, _, err := w.store.Get(node)
	if err != nil || len(data) == 0 {
		t.Fatalf("assignment node missing: %v", err)
	}
}

func TestStatsString(t *testing.T) {
	cfg := baseConfig(shard.PrimaryOnly, 4, 1)
	w := buildWorld(t, []topology.RegionID{"r1"}, 4, cfg)
	w.loop.RunFor(2 * time.Minute)
	if s := w.orch.Stats(); s == "" {
		t.Fatal("empty stats")
	}
}

// newPanics reports whether New refuses cfg.
func newPanics(cfg Config) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fleet := topology.Build(topology.Spec{Regions: []topology.RegionID{"r"}, MachinesPerRegion: 1})
	loop := sim.NewLoop(1)
	New(loop, coord.NewStore(), discovery.NewService(loop, nil),
		rpcnet.NewNetwork(loop, fleet), appserver.NewDirectory(), fleet, cfg, 1)
	return false
}

func TestDuplicateShardConfigPanics(t *testing.T) {
	cfg := baseConfig(shard.PrimaryOnly, 1, 1)
	cfg.Shards = append(cfg.Shards, cfg.Shards[0])
	if !newPanics(cfg) {
		t.Fatal("expected panic")
	}
}

// A server declared dead must have been held (promoteHold) before its shards
// are reassigned (FailoverGrace), or a replacement primary is placed while
// the old one may still be unfenced.
func TestFailoverGraceAtOrBelowPromoteHoldPanics(t *testing.T) {
	for _, c := range []struct {
		grace time.Duration
		want  bool
	}{
		{promoteHold - time.Second, true},
		{promoteHold, true},
		{promoteHold + time.Second, false},
		{0, false}, // the default, 30 s
	} {
		cfg := baseConfig(shard.PrimaryOnly, 1, 1)
		cfg.FailoverGrace = c.grace
		if got := newPanics(cfg); got != c.want {
			t.Errorf("FailoverGrace %v: New panicked = %v, want %v", c.grace, got, c.want)
		}
	}
}

// --- model check of the migration and cleanup rules ---

// The model composes the rules the orchestrator runs — advance, its step
// table and decide — with a toy of the three servers one migration touches:
// the source (0), the target (1) and a spare (2). A breadth-first search walks
// every interleaving of the migration's next step and the cleanups' retries,
// and every RPC ends in one of four ways: executed and acknowledged, failed
// without executing, executed with its reply lost, or the server died.

// mrep is what a toy server holds of the shard.
type mrep uint8

const (
	mNone       mrep = iota
	mLoading         // prepared by prepare_add: loading, not serving
	mActive          // serving
	mForwarding      // forwarding to fwd
)

type mserver struct {
	holds   mrep
	primary bool
	fwd     int8
	dead    bool
}

// Bits of mstate.owed: the cleanups owed to one server.
const (
	owesDrop uint8 = 1 << iota
	owesResume
	owesAdd
)

// mstate is one state of the model: the migration, what each server holds,
// the orchestrator's replica list (0 unlisted, 1 secondary, 2 primary) and
// the cleanups it owes each server.
type mstate struct {
	m      migration
	srv    [3]mserver
	listed [3]int8
	owed   [3]uint8
}

// mOutcome is how one RPC ends.
type mOutcome uint8

const (
	mReplied    mOutcome = iota // executed, acknowledged
	mNotRun                     // failed without executing
	mLostAck                    // executed, but the reply was lost
	mServerDied                 // the server died before executing it
)

func (s *mstate) live() bool { return s.m.phase != queued && s.m.phase != finished }

func (s *mstate) orphaned() bool { return (s.owed[0]|s.owed[1]|s.owed[2])&owesDrop != 0 }

// exec runs step at server x as appserver does; peer is the server
// prepare_drop forwards to.
func (s *mstate) exec(x int, step op, peer int, primary bool) {
	r := &s.srv[x]
	switch step {
	case prepareAdd:
		r.holds, r.primary = mLoading, primary
	case prepareDrop:
		if r.holds != mNone {
			r.holds, r.fwd = mForwarding, int8(peer)
		}
	case addShard:
		// A loading replica activates when its load ends; taking it as active
		// at once only makes two primaries easier to find.
		r.holds, r.primary = mActive, primary
	case sourceResume:
		if r.holds == mForwarding {
			r.holds = mActive
		}
	default:
		r.holds = mNone
	}
}

// mChecker explores one migration under one cleanup rule.
type mChecker struct {
	start  migration
	decide func(op, facts) (owed, now bool)
}

// rpc returns the states step at server x can end in, each with whether its
// reply said ok.
func (c *mChecker) rpc(s mstate, x int, step op, peer int, primary bool) (out []mstate, oks []bool) {
	if s.srv[x].dead {
		return []mstate{s}, []bool{false}
	}
	for _, oc := range []mOutcome{mReplied, mNotRun, mLostAck, mServerDied} {
		n := s
		switch oc {
		case mReplied, mLostAck:
			n.exec(x, step, peer, primary)
		case mServerDied:
			n.srv[x].dead = true
		}
		out, oks = append(out, n), append(oks, oc == mReplied)
	}
	return out, oks
}

// transition feeds one outcome of the migration's current step through
// advance and applies the effects in order; a failed finish runs the
// emergency plan, which branches.
func (c *mChecker) transition(s mstate, ok bool, out []mstate) []mstate {
	var effects []effect
	s.m, effects, _ = advance(s.m, ok)
	states := []mstate{s}
	for _, e := range effects {
		var next []mstate
		for _, s := range states {
			switch e {
			case commit:
				s.listed[1], s.listed[0] = s.listed[0], 0
			case orphanTarget:
				s.owed[1] |= owesDrop
			case orphanTargetResume:
				// The resume is owed from now on, though the orchestrator only
				// starts it once the drop settles: the model lets it be tried
				// at any time, and decide must hold it back.
				s.owed[1] |= owesDrop
				s.owed[0] |= owesResume
			case orphanSource:
				s.owed[0] |= owesDrop
			case resume:
				s.owed[0] |= owesResume
			case fail:
				next = append(next, c.plans(s)...)
				continue
			}
			next = append(next, s)
		}
		states = next
	}
	return append(out, states...)
}

// plans are the states the emergency plan after a failed migration may leave:
// nothing placed, or the shard added on one live server not in the list. Like
// executeDiff, it places nothing while the shard has a pending orphan. The new
// replica is a primary if the moving one was and no live listed replica is.
func (c *mChecker) plans(s mstate) []mstate {
	out := []mstate{s}
	if s.orphaned() {
		return out
	}
	role := int8(1)
	if s.m.role == shard.RolePrimary {
		role = 2
		for x := range s.srv {
			if s.listed[x] == 2 && !s.srv[x].dead {
				role = 1
			}
		}
	}
	for y := range s.srv {
		if s.listed[y] == 0 && !s.srv[y].dead {
			n := s
			n.listed[y] = role
			n.owed[y] |= owesAdd
			out = append(out, n)
		}
	}
	return out
}

// next returns the states one event leads to: the migration's current step
// ends, or one owed cleanup is tried.
func (c *mChecker) next(s mstate) []mstate {
	var out []mstate
	if s.live() {
		switch st := steps[s.m.phase][s.m.step]; st.op {
		case loadWait, publishWait:
			out = c.transition(s, true, out)
		default:
			x, peer := 1, 0
			if st.atSource {
				x, peer = 0, 1
			}
			ns, oks := c.rpc(s, x, st.op, peer, s.m.role == shard.RolePrimary)
			for i := range ns {
				out = c.transition(ns[i], oks[i], out)
			}
		}
	}
	for x := range s.srv {
		for _, k := range []struct {
			bit uint8
			op  op
		}{{owesDrop, orphanDrop}, {owesResume, sourceResume}, {owesAdd, addShard}} {
			if s.owed[x]&k.bit == 0 {
				continue
			}
			f := facts{
				migrating: s.live(),
				started:   s.live(),
				owned:     s.live() && x < 2,
				listed:    s.listed[x] != 0,
				alive:     !s.srv[x].dead,
				orphaned:  s.orphaned(),
			}
			switch owed, now := c.decide(k.op, f); {
			case !owed:
				n := s
				n.owed[x] &^= k.bit
				out = append(out, n)
			case now:
				ns, oks := c.rpc(s, x, k.op, 0, s.listed[x] == 2)
				for i, n := range ns {
					if oks[i] {
						n.owed[x] &^= k.bit
					}
					out = append(out, n)
				}
			}
		}
	}
	return out
}

// modelViolation names what is wrong with one state, or returns "": two
// servers serve the shard as active primaries, or a server forwards to a
// target that holds nothing or is dead while no step of the migration and no
// resume or drop of that server is still owed.
func modelViolation(s mstate) string {
	primaries := 0
	for _, r := range s.srv {
		if !r.dead && r.holds == mActive && r.primary {
			primaries++
		}
	}
	if primaries > 1 {
		return "two active primaries"
	}
	for x, r := range s.srv {
		if r.dead || r.holds != mForwarding {
			continue
		}
		if t := s.srv[r.fwd]; (t.dead || t.holds == mNone) && !s.live() && s.owed[x]&(owesDrop|owesResume) == 0 {
			return fmt.Sprintf("server %d forwards to server %d, which is not live, and nothing will resume or drop it", x, r.fwd)
		}
	}
	return ""
}

// explore walks every state reachable from c.start and returns how many there
// are and the first problem found, with the path to it: a state
// modelViolation objects to, a state from which no path ends, or an end — the
// migration finished and nothing owed — at which a pending orphan was never
// dropped, so that a live server the list does not name still holds the
// shard.
func (c *mChecker) explore() (int, string) {
	start := mstate{m: c.start}
	start.srv[0] = mserver{holds: mActive, primary: c.start.role == shard.RolePrimary}
	start.listed[0] = 1
	if c.start.role == shard.RolePrimary {
		start.listed[0] = 2
	}
	parent := map[mstate]mstate{}
	preds := map[mstate][]mstate{}
	seen := map[mstate]bool{}
	var queue, ends []mstate
	for _, s := range c.transition(start, true, nil) {
		if !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	path := func(s mstate) string {
		var states []string
		for {
			states = append(states, fmt.Sprintf("%+v", s))
			p, ok := parent[s]
			if !ok {
				break
			}
			s = p
		}
		slices.Reverse(states)
		return strings.Join(states, "\n  ")
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if v := modelViolation(s); v != "" {
			return len(seen), v + ":\n  " + path(s)
		}
		if !s.live() && s.owed == [3]uint8{} {
			for x, r := range s.srv {
				if !r.dead && r.holds != mNone && s.listed[x] == 0 {
					return len(seen), fmt.Sprintf("the end leaves server %d holding a replica the list does not name:\n  %s", x, path(s))
				}
			}
			ends = append(ends, s)
			continue
		}
		for _, n := range c.next(s) {
			if n == s {
				continue
			}
			preds[n] = append(preds[n], s)
			if !seen[n] {
				seen[n] = true
				parent[n] = s
				queue = append(queue, n)
			}
		}
	}
	// Every state must still be able to end.
	ending := map[mstate]bool{}
	for len(ends) > 0 {
		s := ends[len(ends)-1]
		ends = ends[:len(ends)-1]
		if !ending[s] {
			ending[s] = true
			ends = append(ends, preds[s]...)
		}
	}
	for s := range seen {
		if !ending[s] {
			return len(seen), "no path from here ends:\n  " + path(s)
		}
	}
	return len(seen), ""
}

// modelStarts are the three kinds of migration, as they leave the queue.
var modelStarts = map[string]migration{
	"graceful":          {graceful: true, role: shard.RolePrimary},
	"make-before-break": {role: shard.RoleSecondary},
	"break-before-make": {role: shard.RolePrimary},
}

// TestMigrationModel runs the model check on every kind of migration: no
// reachable state has two active primaries or a forwarder whose target is not
// live with nothing left to resume or drop it, and every path can end, with no
// pending orphan and no replica outside the list. Then it checks that the
// model catches the three rules that keep primaries apart, broken: a failed
// rollback that finishes before it registers its orphan (the order behind the
// seed-69 dual primary), a resume that does not wait for pending orphans, and
// a break-before-make that adds its target after a failed drop.
func TestMigrationModel(t *testing.T) {
	for name, m := range modelStarts {
		n, bad := (&mChecker{start: m, decide: decide}).explore()
		if bad != "" {
			t.Errorf("%s, %d states: %s", name, n, bad)
		}
		if n < 10 {
			t.Errorf("%s: only %d states reached; the model explores nothing", name, n)
		}
	}

	graceful := modelStarts["graceful"]
	saved := steps[rollingBack]
	steps[rollingBack] = []stepDef{{op: dropShard, onOK: []effect{fail, resume}, onFail: []effect{fail, orphanTargetResume}}}
	_, bad := (&mChecker{start: graceful, decide: decide}).explore()
	steps[rollingBack] = saved
	if bad == "" {
		t.Error("a failed rollback that finishes before registering its orphan passes the model")
	}

	impatient := func(step op, f facts) (bool, bool) {
		if step == sourceResume {
			f.orphaned = false
		}
		return decide(step, f)
	}
	if _, bad := (&mChecker{start: graceful, decide: impatient}).explore(); bad == "" {
		t.Error("a resume that ignores pending orphans passes the model")
	}

	saved = steps[breakBeforeMake]
	steps[breakBeforeMake] = append([]stepDef{{op: dropShard, atSource: true}}, saved[1:]...)
	_, bad = (&mChecker{start: modelStarts["break-before-make"], decide: decide}).explore()
	steps[breakBeforeMake] = saved
	if bad == "" {
		t.Error("a break-before-make that adds after a failed drop passes the model")
	}
}
