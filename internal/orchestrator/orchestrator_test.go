package orchestrator

import (
	"fmt"
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

func (a *countApp) AddShard(s shard.ID, role shard.Role)    { a.owner[s] = role }
func (a *countApp) DropShard(s shard.ID)                    { delete(a.owner, s) }
func (a *countApp) ChangeRole(s shard.ID, _, to shard.Role) { a.owner[s] = to }
func (a *countApp) HandleRequest(req *appserver.Request) (any, error) {
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
