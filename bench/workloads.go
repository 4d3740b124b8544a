package main

import (
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/cluster"
	"shardmanager/internal/experiments"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/taskcontroller"
	"shardmanager/internal/topology"
	loadshape "shardmanager/internal/workload"
)

// nominalSeconds is how long an untraced pass measures, in host seconds on
// the 2-core reference box, with the horizons below: windowReps windows of
// about six seconds each. -seconds N scales every horizon and every
// disturbance time by N/nominalSeconds (the time-scale factor); shard,
// server and client counts never change.
const nominalSeconds = 18

// warmup is the simulated traffic time that ends set-up: clients have their
// first shard map and the initial rebalancing has died out (moves stop within
// half a simulated minute of Settle on every workload).
const warmup = time.Minute

// drain is the simulated time clients get after the horizon to finish the
// requests still in flight (longer than the worst retry chain), so that
// attempted == ok + failed holds exactly.
const drain = time.Minute

// clientOptions give a request ten attempts: the capped exponential backoff
// then outlasts the ~25 simulated seconds a shard is unplaced after its last
// replica's region fails, so a request waits for the control plane instead of
// failing, and the wait shows in the latency tail and in req_slo_ok_ratio.
func clientOptions() routing.Options {
	o := routing.DefaultOptions()
	o.MaxAttempts = 10
	return o
}

// sloLimit is the fixed latency limit of req_slo_ok_ratio: local reads take
// ~2 ms and cross-region ones ~95 ms, so only a request that needed a retry
// backoff (or failed) misses it.
const sloLimit = 500 * time.Millisecond

var threeRegions = []topology.RegionID{"frc", "prn", "odn"}

var geoLatency = map[[2]topology.RegionID]time.Duration{
	{"frc", "prn"}: 35 * time.Millisecond,
	{"frc", "odn"}: 45 * time.Millisecond,
	{"prn", "odn"}: 80 * time.Millisecond,
}

// workload is one named traffic mix on one deployment shape. Every field is
// an input the harness generates; nothing here is a performance option of
// the system under test.
type workload struct {
	name string
	why  string

	regions  []topology.RegionID
	servers  int // per region
	shards   int
	replicas int
	clients  int // in total, spread round-robin over the regions
	rate     int // requests per second per client (open loop)

	// horizon is the measured simulated time at time-scale factor 1.
	horizon time.Duration
	// disturbAt is when the disturbance starts, as a share of the horizon
	// (0 = the workload has none). Spans are kept from this moment.
	disturbAt float64

	// spec builds the deployment; it may keep per-server application
	// handles in r for later load injection.
	spec func(r *run) experiments.DeploymentSpec
	// request picks the next request of client c: a shard index and whether
	// it is a primary-routed write.
	request func(r *run, c *client) (shardIdx int, write bool)
	readOp  string
	writeOp string
	payload any // write payload, boxed once
	// prepare runs on the settled deployment, before the warm-up traffic
	// (dataset population, first load injection).
	prepare func(r *run)
	// arm schedules the disturbance and any load injection for the measured
	// window, which starts at r.t0 and lasts r.horizon.
	arm func(r *run)
}

func kvFactory(r *run, backing *apps.KVBacking) func(*appserver.Server) appserver.Application {
	return func(s *appserver.Server) appserver.Application {
		kv := apps.NewKVStore(s, backing)
		r.kv[s.ID] = kv
		return kv
	}
}

var workloads = []workload{
	{
		name:    "geo_failover",
		why:     "a region fails and recovers: emergency allocation, then ~1900 moves with a full-map publish each, put orchestrator, discovery and routing retry on the blocking path",
		regions: threeRegions, servers: 40, shards: 3000, replicas: 2,
		clients: 30, rate: 50,
		horizon: 240 * time.Second, disturbAt: 1.0 / 6,
		readOp: apps.KVOpScan,
		spec: func(r *run) experiments.DeploymentSpec {
			pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
			pol.SpreadLevel = topology.LevelRegion
			pol.SpreadWeight = 500
			pol.AffinityWeight = 300
			shards := r.shardConfigs()
			for i := 0; i < r.ecShards(); i++ {
				shards[i].RegionPreference = "frc"
			}
			return experiments.DeploymentSpec{
				Regions: r.w.regions, ServersPerRegion: r.w.servers, Latency: geoLatency,
				Orch: orchestrator.Config{
					App: "geostore", Strategy: shard.SecondaryOnly, Shards: shards, Policy: pol,
					ServerCapacity:          r.serverCapacity(),
					HomeRegion:              "prn",
					GracefulMigration:       true,
					FailoverGrace:           20 * time.Second,
					AllocInterval:           15 * time.Second,
					MaxConcurrentMigrations: 200,
				},
				AppFactory: kvFactory(r, apps.NewKVBacking()),
			}
		},
		// East-coast users read east-coast data: frc clients read the
		// frc-preferred shards, everyone else reads the rest.
		request: func(r *run, c *client) (int, bool) {
			ec := r.ecShards()
			if c.region == "frc" {
				return c.rng.Intn(ec), false
			}
			return ec + c.rng.Intn(r.w.shards-ec), false
		},
		arm: func(r *run) {
			frc := r.d.Managers["frc"]
			r.d.Loop.AtL(r.t0+r.at(r.w.disturbAt), lbAdmin, func() {
				r.disturbed = r.d.Loop.Now()
				frc.FailRegion()
			})
			r.d.Loop.AtL(r.t0+r.at(4.0/6), lbAdmin, frc.RecoverRegion)
		},
	},
	{
		name:    "rolling_upgrade",
		why:     "rolling restart of a primary-only queue under writes: TaskController drains, graceful-migration steps and forwarding dominate; the allocator does almost nothing",
		regions: []topology.RegionID{"region1"}, servers: 40, shards: 4000, replicas: 1,
		clients: 10, rate: 20,
		horizon: 450 * time.Second, disturbAt: 0.05,
		readOp: apps.QueueOpDepth, writeOp: apps.QueueOpEnqueue, payload: "msg",
		spec: func(r *run) experiments.DeploymentSpec {
			const loadTime = 5 * time.Second
			pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
			pol.SpreadWeight = 0 // single-replica shards
			tp := taskcontroller.DefaultPolicy(r.w.servers / 10)
			opts := cluster.DefaultOptions()
			opts.RestartDuration = 80 * time.Second
			backing := apps.NewQueueBacking()
			return experiments.DeploymentSpec{
				Regions: r.w.regions, ServersPerRegion: r.w.servers,
				Orch: orchestrator.Config{
					App: "queueapp", Strategy: shard.PrimaryOnly, Shards: r.shardConfigs(), Policy: pol,
					ServerCapacity:    r.serverCapacity(),
					GracefulMigration: true,
					// Restarts take 80s; keep them under the failover grace so
					// a restart is downtime, not a permanent failure.
					FailoverGrace:           3 * time.Minute,
					MaxConcurrentMigrations: max(r.w.shards/100, 4),
					AllocInterval:           30 * time.Second,
					ShardLoadTime:           loadTime,
				},
				TaskPolicy:  &tp,
				ClusterOpts: opts,
				AppFactory: func(s *appserver.Server) appserver.Application {
					s.LoadTime = loadTime
					return apps.NewQueue(s, backing)
				},
			}
		},
		request: func(r *run, c *client) (int, bool) { return c.rng.Intn(r.w.shards), true },
		arm: func(r *run) {
			r.d.Loop.AtL(r.t0+r.at(r.w.disturbAt), lbAdmin, func() {
				r.disturbed = r.d.Loop.Now()
				for _, mgr := range r.d.Managers {
					mgr.RollingUpgrade(r.d.Jobs[mgr.Region], r.w.servers/10, "upgrade", nil)
				}
			})
		},
	},
	{
		name:    "steady_serving",
		why:     "no faults, idle control plane: sim dispatch, rpcnet, routing and appserver do nearly all the work, so a data-path gain shows most here and a solver gain must not show",
		regions: threeRegions, servers: 40, shards: 3000, replicas: 3,
		clients: 60, rate: 100,
		horizon: 240 * time.Second,
		readOp:  apps.KVOpGet, writeOp: apps.KVOpPut, payload: apps.KVPut{Value: "v"},
		spec: func(r *run) experiments.DeploymentSpec {
			pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
			r.backing = apps.NewKVBacking()
			return experiments.DeploymentSpec{
				Regions: r.w.regions, ServersPerRegion: r.w.servers, Latency: geoLatency,
				Orch: orchestrator.Config{
					App: "kvstore", Strategy: shard.PrimarySecondary, Shards: r.shardConfigs(), Policy: pol,
					ServerCapacity:    r.serverCapacity(),
					HomeRegion:        "prn",
					GracefulMigration: true,
				},
				AppFactory: kvFactory(r, r.backing),
			}
		},
		// Every key is written once up front so that reads never miss.
		prepare: func(r *run) {
			for i, k := range r.keys {
				r.backing.Put(r.ids[i], k, "v")
			}
		},
		// 80% any-replica reads, 20% primary writes.
		request: func(r *run, c *client) (int, bool) {
			return c.rng.Intn(r.w.shards), c.rng.Intn(5) == 0
		},
	},
	{
		name:    "lb_churn",
		why:     "shard loads skewed 20x and drifting: the solver reworks a 12k-replica x 300-server problem every 15 s under a move cap; the only workload where allocation is a large share of the cost",
		regions: threeRegions, servers: 100, shards: 6000, replicas: 2,
		clients: 30, rate: 20,
		horizon: 240 * time.Second,
		readOp:  apps.KVOpScan,
		spec: func(r *run) experiments.DeploymentSpec {
			pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
			pol.MaxTotalMoves = 30
			// With ~40 replicas a server the skew leaves server utilisation
			// within a few points of the mean; a half-point band keeps so
			// many servers over it that every allocation runs into the move
			// cap, which also makes the work per window much the same from
			// seed to seed.
			pol.MaxDiff = 0.005
			// Base loads spread 20x: 0.1 to 2.0 of the mean.
			shards := r.shardConfigs()
			r.base = make([]float64, r.w.shards)
			for i := range r.base {
				r.base[i] = r.cpu[i] * (0.1 + 1.9*r.in.Float64())
				r.cpu[i] = r.base[i]
				shards[i].DefaultLoad[topology.ResourceCPU] = r.base[i]
			}
			return experiments.DeploymentSpec{
				Regions: r.w.regions, ServersPerRegion: r.w.servers, Latency: geoLatency,
				Orch: orchestrator.Config{
					App: "lbstore", Strategy: shard.SecondaryOnly, Shards: shards, Policy: pol,
					ServerCapacity:          r.serverCapacity(),
					HomeRegion:              "prn",
					GracefulMigration:       true,
					AllocInterval:           15 * time.Second,
					MaxConcurrentMigrations: 200,
				},
				AppFactory: kvFactory(r, apps.NewKVBacking()),
			}
		},
		request: func(r *run, c *client) (int, bool) { return c.rng.Intn(r.w.shards), false },
		// The loads are pushed once during set-up, so that the warm-up
		// balances on what the servers report; the measured window then
		// drifts them once per simulated minute (a diurnal swing compressed
		// to a one-hour period, 15% per-shard noise).
		prepare: func(r *run) { r.injectLoads(0) },
		arm: func(r *run) {
			r.d.Loop.EveryL(time.Minute, lbAdmin, func() {
				r.injectLoads(r.d.Loop.Now() - r.t0)
			})
		},
	},
}

// injectLoads sets every shard's CPU load for simulated offset t and pushes
// it to the application instances on the servers holding the shard.
func (r *run) injectLoads(t time.Duration) {
	swing := loadshape.Diurnal(t*24, 0.35) // one simulated hour = one day
	m := r.d.Orch.AssignmentSnapshot()
	for i := range r.cpu {
		noise := 1.0
		if t > 0 {
			noise = max(1+0.15*r.in.NormFloat64(), 0.1)
		}
		r.cpu[i] = r.base[i] * swing * noise
		load := topology.Capacity{topology.ResourceCPU: r.cpu[i], topology.ResourceShardCount: 1}
		for _, a := range m.Replicas(r.ids[i]) {
			if kv := r.kv[a.Server]; kv != nil {
				kv.SetShardLoad(r.ids[i], load)
			}
		}
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Harness scheduling labels: the traced pass charges these events to the
// "bench" layer, which is how the harness's own cost is reported.
var (
	lbClient = sim.LabelFor("bench", "client")
	lbSample = sim.LabelFor("bench", "sample")
	lbAdmin  = sim.LabelFor("bench", "admin")
	lbResult = sim.LabelFor("bench", "result")
	lbDo     = sim.LabelFor("routing", "do")
)
