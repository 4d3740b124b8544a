package experiments

import (
	"fmt"
	"time"

	"shardmanager/internal/appserver"
	"shardmanager/internal/audit"
	"shardmanager/internal/cluster"
	"shardmanager/internal/coord"
	"shardmanager/internal/discovery"
	"shardmanager/internal/faults"
	"shardmanager/internal/healthmon"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/taskcontroller"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
)

// DeploymentSpec wires a complete single-application world: fleet, one
// cluster manager + job per region, application hosts, an orchestrator,
// and optionally a TaskController.
type DeploymentSpec struct {
	Regions          []topology.RegionID
	ServersPerRegion int
	// Latency configures pairwise one-way region latency; unset pairs
	// use topology defaults.
	Latency map[[2]topology.RegionID]time.Duration

	// Orchestrator configuration; App, Shards, Strategy, Policy must be
	// set. HomeRegion defaults to the last region (survives failures of
	// the first).
	Orch orchestrator.Config

	// TaskPolicy, if non-nil, attaches a TaskController to every
	// regional cluster manager.
	TaskPolicy *taskcontroller.Policy

	// AppFactory builds the per-server application (required).
	AppFactory func(*appserver.Server) appserver.Application

	// ClusterOpts configure container lifecycle timing.
	ClusterOpts cluster.Options

	// Tracer, if non-nil, records the whole deployment's control-plane
	// activity.
	Tracer *trace.Tracer

	// Health, if non-nil, watches the whole deployment — cluster managers,
	// discovery, orchestrator, and every client made with NewClient.
	Health *healthmon.Monitor

	// Profiler, if non-nil, receives the loop's kernel-profiling hooks.
	Profiler sim.Profiler

	// Audit, if non-nil, attaches a runtime migration auditor to the whole
	// deployment (orchestrator, servers, discovery, coordination store, and
	// every client made with NewClient). The App field is filled from the
	// deployment; auditing is RNG-free, so enabling it does not perturb the
	// seeded run.
	Audit *audit.Options

	Seed uint64
}

// Deployment is a fully wired world under simulation.
type Deployment struct {
	Loop     *sim.Loop
	Fleet    *topology.Fleet
	Store    *coord.Store
	Disc     *discovery.Service
	Net      *rpcnet.Network
	Dir      *appserver.Directory
	Managers map[topology.RegionID]*cluster.Manager
	Jobs     map[topology.RegionID]cluster.JobID
	Hosts    map[topology.RegionID]*appserver.Host
	Orch     *orchestrator.Orchestrator
	Ctrl     *taskcontroller.Controller
	Health   *healthmon.Monitor
	Auditor  *audit.Auditor
	App      shard.AppID
}

// Build constructs and starts the deployment. Containers begin starting at
// t=0; call Settle to reach a converged initial placement.
func Build(spec DeploymentSpec) *Deployment {
	if spec.AppFactory == nil {
		panic("experiments: DeploymentSpec.AppFactory required")
	}
	if spec.ServersPerRegion <= 0 || len(spec.Regions) == 0 {
		panic("experiments: deployment needs regions and servers")
	}
	loop := sim.NewLoop(spec.Seed)
	loop.SetTracer(spec.Tracer) // before any component is built or scheduled
	if spec.Profiler != nil {
		loop.SetProfiler(spec.Profiler)
	}
	mon := spec.Health
	if mon != nil {
		mon.Bind(loop)
		loop.SetMetrics(mon.Registry())
	}
	fleet := topology.Build(topology.Spec{
		Regions:           spec.Regions,
		MachinesPerRegion: spec.ServersPerRegion,
		Latency:           spec.Latency,
	})
	d := &Deployment{
		Loop:     loop,
		Fleet:    fleet,
		Store:    coord.NewStore(),
		Net:      rpcnet.NewNetwork(loop, fleet),
		Dir:      appserver.NewDirectory(),
		Managers: make(map[topology.RegionID]*cluster.Manager),
		Jobs:     make(map[topology.RegionID]cluster.JobID),
		Hosts:    make(map[topology.RegionID]*appserver.Host),
		Health:   mon,
		App:      spec.Orch.App,
	}
	d.Disc = discovery.NewService(loop, nil) // DefaultDelay: a map arrives 0.5-2 s after its publish

	for _, r := range spec.Regions {
		mgr := cluster.NewManager(loop, fleet, r, spec.ClusterOpts)
		if mon != nil {
			mon.WatchManager(mgr)
		}
		d.Managers[r] = mgr
		job := cluster.JobID(fmt.Sprintf("%s-%s", spec.Orch.App, r))
		d.Jobs[r] = job
		host := appserver.NewHost(loop, d.Net, d.Dir, d.Store, fleet, spec.Orch.App, job, spec.AppFactory)
		d.Hosts[r] = host
		mgr.AddListener(host)
		mgr.CreateJob(job, spec.ServersPerRegion)
	}

	cfg := spec.Orch
	if cfg.HomeRegion == "" {
		cfg.HomeRegion = spec.Regions[len(spec.Regions)-1]
	}
	d.Orch = orchestrator.New(loop, d.Store, d.Disc, d.Net, d.Dir, fleet, cfg, spec.Seed)
	if mon != nil {
		mon.WatchDiscovery(d.Disc)
		mon.WatchOrchestrator(d.Orch)
	}
	if spec.Audit != nil {
		ao := *spec.Audit
		ao.App = spec.Orch.App
		a := audit.New(loop, ao)
		a.WatchDirectory(d.Dir)
		a.WatchCoord(d.Store)
		a.WatchDiscovery(d.Disc)
		a.WatchOrchestrator(d.Orch)
		d.Auditor = a
	}
	d.Orch.Start()

	if spec.TaskPolicy != nil {
		d.Ctrl = taskcontroller.New(loop, d.Orch, *spec.TaskPolicy)
		for _, mgr := range d.Managers {
			d.Ctrl.Attach(mgr)
		}
	}
	return d
}

// Settle runs the loop until the initial placement converges (every shard
// fully replicated), bounded by maxWait.
func (d *Deployment) Settle(maxWait time.Duration) error {
	deadline := d.Loop.Now() + maxWait
	for d.Loop.Now() < deadline {
		d.Loop.RunFor(30 * time.Second)
		if d.converged() {
			return nil
		}
	}
	return fmt.Errorf("experiments: placement did not settle within %v (%s)", maxWait, d.Orch.Stats())
}

func (d *Deployment) converged() bool {
	m := d.Orch.AssignmentSnapshot()
	want := 0
	for _, id := range d.Orch.ShardIDs() {
		want++
		as := m.Replicas(id)
		if len(as) != d.Orch.TotalReplicas(id) {
			return false
		}
		for _, a := range as {
			srv := d.Dir.Lookup(a.Server)
			if srv == nil || !srv.HoldsActive(id) {
				return false
			}
		}
	}
	return want > 0
}

// FaultEnv adapts the deployment to the fault-injection subsystem: every
// handle an Action can touch, taken from this world.
func (d *Deployment) FaultEnv() *faults.Env {
	return &faults.Env{
		Loop:     d.Loop,
		Fleet:    d.Fleet,
		Net:      d.Net,
		Store:    d.Store,
		Managers: d.Managers,
		Hosts:    d.Hosts,
	}
}

// NewClient creates a routed application client in a region. When the
// deployment has a health monitor, the client's results feed it.
func (d *Deployment) NewClient(region topology.RegionID, ks *shard.Keyspace, opts routing.Options) *routing.Client {
	c := routing.NewClient(d.Loop, d.Net, d.Dir, d.Disc, d.Fleet, d.App, ks, region, opts)
	if d.Health != nil {
		d.Health.WatchClient(c)
	}
	if d.Auditor != nil {
		d.Auditor.WatchClient(c)
	}
	return c
}

// Drive starts an open-loop workload on client c: every interval it sends
// count(rng) requests (one when count is nil), each to a uniformly drawn shard
// index i among the first shards of the keyspace, at key KeyForShard(i), with
// the write flag, op and payload req returns for i. done, when non-nil, gets
// every request's result. Its randomness is one fork of the loop RNG, taken
// at the call; each tick draws the count, then per request its shard and
// whatever req draws. Outside routing, the benchmark and the examples, it is
// the one sender of client requests.
func (d *Deployment) Drive(c *routing.Client, interval time.Duration, shards int,
	count func(*sim.RNG) int, req func(rng *sim.RNG, i int) (write bool, op string, payload any),
	done func(routing.Result)) {
	rng := d.Loop.RNG().Fork()
	if done == nil {
		done = func(routing.Result) {}
	}
	d.Loop.EveryL(interval, lbExpClient, func() {
		n := 1
		if count != nil {
			n = count(rng)
		}
		for ; n > 0; n-- {
			i := rng.Intn(shards)
			write, op, payload := req(rng, i)
			c.Do(KeyForShard(i), write, op, payload, done)
		}
	})
}

// UniformShardConfigs builds n single-load shard configs named "sNNNNN".
func UniformShardConfigs(n, replicas int, load topology.Capacity) []orchestrator.ShardConfig {
	out := make([]orchestrator.ShardConfig, n)
	for i := range out {
		out[i] = orchestrator.ShardConfig{
			ID:          shard.ID(fmt.Sprintf("s%05d", i)),
			Replicas:    replicas,
			DefaultLoad: load,
		}
	}
	return out
}

// KeyspaceFor builds the app-owned keyspace matching UniformShardConfigs:
// key "sNNNNN/..." maps to shard sNNNNN via explicit ranges, preserving key
// locality.
func KeyspaceFor(n int) *shard.Keyspace {
	ids := make([]shard.ID, n)
	starts := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = shard.ID(fmt.Sprintf("s%05d", i))
		if i > 0 {
			starts[i] = fmt.Sprintf("s%05d", i)
		}
	}
	ks, err := shard.NewKeyspace(ids, starts)
	if err != nil {
		panic(err)
	}
	return ks
}

// KeyForShard returns a key owned by shard index i.
func KeyForShard(i int) string { return fmt.Sprintf("s%05d/key", i) }
