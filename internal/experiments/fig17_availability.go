package experiments

import (
	"fmt"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/cluster"
	"shardmanager/internal/metrics"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/taskcontroller"
	"shardmanager/internal/topology"
)

// AvailabilityParams configure the Fig 17 rolling-upgrade experiment. The
// paper deploys a primary-only application with 10,000 shards on 60
// servers, allows up to 10% of containers to restart concurrently, and
// compares three configurations:
//
//	SM (TaskController drains + graceful migration)  -> ~100% success
//	no graceful migration                            -> ~98%
//	neither (Twine paces restarts on its own)        -> <90%, but faster
//	                                                    (800s vs 1500s)
type AvailabilityParams struct {
	Servers            int
	Shards             int
	ConcurrentFraction float64
	// RequestRate is client requests per second.
	RequestRate int
	// Horizon bounds the measured window after the upgrade starts.
	Horizon time.Duration
	Seed    uint64
}

// DefaultAvailabilityParams mirror the paper's setup.
func DefaultAvailabilityParams() AvailabilityParams {
	return AvailabilityParams{
		Servers:            60,
		Shards:             10000,
		ConcurrentFraction: 0.10,
		RequestRate:        100,
		Horizon:            2000 * time.Second,
		Seed:               17,
	}
}

// shardLoadTime is how long a replica takes to load shard state on a new
// server. Graceful migration hides it behind prepare_add_shard; without it
// every migrated shard is down for this long.
const shardLoadTime = 5 * time.Second

// availabilityVariant names one configuration of the comparison.
type availabilityVariant struct {
	name       string
	graceful   bool
	controller bool
}

// availabilityOutcome is one variant's measured result.
type availabilityOutcome struct {
	curve         []metrics.Point
	rate          float64
	worstBucket   float64
	upgradeLength time.Duration
	// windowFrom/windowTo delimit the measured upgrade window, so external
	// monitors can recompute rate over the exact same interval.
	windowFrom time.Duration
	windowTo   time.Duration
}

// Fig17 regenerates Figure 17.
func Fig17(c RunConfig, p AvailabilityParams) *Report {
	r := &Report{
		ID:    "fig17",
		Title: "Request success rate during a rolling software upgrade",
		Params: map[string]string{
			"servers":    fmt.Sprint(p.Servers),
			"shards":     fmt.Sprint(p.Shards),
			"concurrent": fmt.Sprintf("%.0f%%", p.ConcurrentFraction*100),
			"req_rate":   fmt.Sprint(p.RequestRate),
			"seed":       fmt.Sprint(p.Seed),
		},
	}
	variants := []availabilityVariant{
		{"SM", true, true},
		{"no graceful migration", false, true},
		{"no graceful migration & no TaskController", false, false},
	}
	t := Table{
		Title:   "outcome per configuration",
		Columns: []string{"configuration", "success rate", "worst 30s bucket", "upgrade duration"},
	}
	for _, v := range variants {
		out := runAvailabilityVariant(c, p, v)
		r.Curves = append(r.Curves, Curve{Name: v.name, Unit: "success fraction", Points: out.curve})
		t.Rows = append(t.Rows, []string{
			v.name,
			fmt.Sprintf("%.3f%%", out.rate*100),
			fmt.Sprintf("%.1f%%", out.worstBucket*100),
			out.upgradeLength.Truncate(time.Second).String(),
		})
		r.AddNote("%s: success %.3f%%, upgrade took %v", v.name, out.rate*100,
			out.upgradeLength.Truncate(time.Second))
		r.AddValue(v.name+"/success_rate", out.rate)
		r.AddValue(v.name+"/window_from_ns", float64(out.windowFrom))
		r.AddValue(v.name+"/window_to_ns", float64(out.windowTo))
	}
	r.Tables = append(r.Tables, t)
	r.AddNote("paper: SM ~100%%, no graceful migration ~98%%, neither <90%% (800s vs 1500s upgrade)")
	return r
}

func runAvailabilityVariant(c RunConfig, p AvailabilityParams, v availabilityVariant) availabilityOutcome {
	pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
	pol.SpreadWeight = 0 // single-replica shards
	pol.MaxTotalMoves = 0
	cfg := orchestrator.Config{
		App:      "queueapp",
		Strategy: shard.PrimaryOnly,
		Shards: UniformShardConfigs(p.Shards, 1, topology.Capacity{
			topology.ResourceCPU:        0.05,
			topology.ResourceShardCount: 1,
		}),
		Policy: pol,
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: float64(p.Shards),
		},
		GracefulMigration: v.graceful,
		// Restarts take 80s; keep them under the failover grace so a
		// restart is downtime, not a permanent failure.
		FailoverGrace:           3 * time.Minute,
		MaxConcurrentMigrations: p.Shards / 100,
		AllocInterval:           30 * time.Second,
		ShardLoadTime:           shardLoadTime,
	}
	var taskPolicy *taskcontroller.Policy
	if v.controller {
		tp := taskcontroller.DefaultPolicy(int(float64(p.Servers) * p.ConcurrentFraction))
		taskPolicy = &tp
	}
	backing := apps.NewQueueBacking()
	opts := cluster.DefaultOptions()
	opts.RestartDuration = 80 * time.Second
	d := c.build(DeploymentSpec{
		Regions:          []topology.RegionID{"region1"},
		ServersPerRegion: p.Servers,
		Orch:             cfg,
		TaskPolicy:       taskPolicy,
		ClusterOpts:      opts,
		AppFactory: func(s *appserver.Server) appserver.Application {
			s.LoadTime = shardLoadTime
			return apps.NewQueue(s, backing)
		},
		Seed: p.Seed,
	})
	if err := d.Settle(15 * time.Minute); err != nil {
		panic(err)
	}

	// Client traffic: enqueue to a random shard every tick.
	ks := KeyspaceFor(p.Shards)
	client := d.NewClient("region1", ks, routing.DefaultOptions())
	ratio := metrics.NewSuccessRatio(30 * time.Second)
	d.Drive(client, time.Second/time.Duration(p.RequestRate), p.Shards, nil,
		func(*sim.RNG, int) (bool, string, any) { return true, apps.QueueOpEnqueue, "msg" },
		func(res routing.Result) { ratio.Observe(d.Loop.Now(), res.OK) })
	// Warm-up traffic before the upgrade starts.
	d.Loop.RunFor(2 * time.Minute)

	// Rolling upgrade of every container.
	start := d.Loop.Now()
	var finished time.Duration
	maxConc := int(float64(p.Servers) * p.ConcurrentFraction)
	for _, mgr := range d.Managers {
		mgr.RollingUpgrade(d.Jobs[mgr.Region], maxConc, "upgrade", func() {
			finished = d.Loop.Now()
		})
	}
	d.Loop.RunFor(p.Horizon)
	if finished == 0 {
		finished = d.Loop.Now() // did not finish within horizon
	}

	// Measure over the upgrade window only, as the paper's figure does.
	return availabilityOutcome{
		curve:         ratio.Curve(),
		rate:          ratio.RateBetween(start, finished),
		worstBucket:   ratio.MinBucketBetween(start, finished),
		upgradeLength: finished - start,
		windowFrom:    start,
		windowTo:      finished,
	}
}
