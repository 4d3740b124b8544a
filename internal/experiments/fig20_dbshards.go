package experiments

import (
	"fmt"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/metrics"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// DBShardParams configure the Fig 20 experiment. Facebook's
// instant-messaging product stores messages in a sharded SQL database not
// managed by SM; all accesses to a DBShard must go through a paired
// AppShard (an SM-managed primary-only soft-state service). A DBShard and
// its AppShard should run in the same region. An administrator moves
// batches of DBShards across regions; updating the impacted AppShards'
// regional placement preferences triggers SM to migrate them after their
// DBShards, restoring locality.
type DBShardParams struct {
	Shards           int
	ServersPerRegion int
	Regions          int
	// BatchSize DBShards move in each administrative batch.
	BatchSize int
	// Batch1At / Batch2At are the two batch times; Horizon ends the run.
	Batch1At, Batch2At, Horizon time.Duration
	Seed                        uint64
}

// DefaultDBShardParams mirror the paper's two-batch production episode
// (Fig 20 spans two hours with batches ~30 minutes apart).
func DefaultDBShardParams() DBShardParams {
	return DBShardParams{
		Shards:           800,
		ServersPerRegion: 15,
		Regions:          4,
		BatchSize:        200,
		Batch1At:         30 * time.Minute,
		Batch2At:         60 * time.Minute,
		Horizon:          2 * time.Hour,
		Seed:             20,
	}
}

// Fig20 regenerates Figure 20.
func Fig20(c RunConfig, p DBShardParams) *Report {
	r := &Report{
		ID:    "fig20",
		Title: "SM migrates AppShards across regions to follow DBShards and reduce latency",
		Params: map[string]string{
			"shards":  fmt.Sprint(p.Shards),
			"regions": fmt.Sprint(p.Regions),
			"batch":   fmt.Sprint(p.BatchSize),
			"seed":    fmt.Sprint(p.Seed),
		},
	}
	regions := make([]topology.RegionID, p.Regions)
	for i := range regions {
		regions[i] = topology.RegionID(fmt.Sprintf("region%d", i))
	}

	// DBShard home regions (the external database's placement).
	rng := newSeededRNG(p.Seed)
	dbRegion := make([]topology.RegionID, p.Shards)
	for i := range dbRegion {
		dbRegion[i] = regions[rng.Intn(p.Regions)]
	}

	pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
	pol.SpreadWeight = 0 // primary-only
	pol.AffinityWeight = 300
	shards := UniformShardConfigs(p.Shards, 1, topology.Capacity{
		topology.ResourceCPU:        0.5,
		topology.ResourceShardCount: 1,
	})
	for i := range shards {
		shards[i].RegionPreference = dbRegion[i]
	}
	cfg := orchestrator.Config{
		App:      "msgapp",
		Strategy: shard.PrimaryOnly,
		Shards:   shards,
		Policy:   pol,
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: float64(p.Shards),
		},
		GracefulMigration:       true,
		AllocInterval:           30 * time.Second,
		MaxConcurrentMigrations: 100,
		ShardLoadTime:           2 * time.Second,
	}
	bus := apps.NewDataBus()
	d := c.build(DeploymentSpec{
		Regions:          regions,
		ServersPerRegion: p.ServersPerRegion,
		Orch:             cfg,
		AppFactory: func(s *appserver.Server) appserver.Application {
			s.LoadTime = 2 * time.Second
			return apps.NewStreamProcessor(s, bus)
		},
		Seed: p.Seed,
	})
	if err := d.Settle(15 * time.Minute); err != nil {
		panic(err)
	}

	// pairLatency is the mean one-way latency between each AppShard's
	// current region and its DBShard's region — the paper's top curve.
	pairLatency := func() float64 {
		m := d.Orch.AssignmentSnapshot()
		var sum float64
		n := 0
		for i := range shards {
			srv, ok := m.Primary(shards[i].ID)
			if !ok {
				continue
			}
			appRegion := d.Net.Region(rpcnet.Endpoint(srv))
			sum += float64(d.Fleet.Latency(appRegion, dbRegion[i])) / float64(time.Millisecond)
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}

	latCurve := Curve{Name: "latency between AppShard and DBShard", Unit: "ms (mean)"}
	appMoves := Curve{Name: "AppShard moves", Unit: "moves/interval"}
	dbMoves := Curve{Name: "DBShard moves", Unit: "moves/interval"}
	t0 := d.Loop.Now()
	lastMoves := d.Orch.ShardMoves.Value()
	dbMoved := 0
	d.Loop.EveryL(time.Minute, lbExpSample, func() {
		t := d.Loop.Now() - t0
		latCurve.Points = append(latCurve.Points, point(t, pairLatency()))
		cur := d.Orch.ShardMoves.Value()
		appMoves.Points = append(appMoves.Points, point(t, float64(cur-lastMoves)))
		lastMoves = cur
		dbMoves.Points = append(dbMoves.Points, point(t, float64(dbMoved)))
		dbMoved = 0
	})

	// Administrative DBShard batches: move BatchSize DBShards to a new
	// region, then update the impacted AppShards' preferences (the
	// paper's exact workflow).
	moveBatch := func(startIdx int) {
		for i := startIdx; i < startIdx+p.BatchSize && i < p.Shards; i++ {
			next := regions[(regionIndex(regions, dbRegion[i])+1+rng.Intn(p.Regions-1))%p.Regions]
			dbRegion[i] = next
			dbMoved++
			d.Orch.SetRegionPreference(shards[i].ID, next, pol.AffinityWeight)
		}
	}
	d.Loop.AtL(t0+p.Batch1At, lbExpAdmin, func() { moveBatch(0) })
	d.Loop.AtL(t0+p.Batch2At, lbExpAdmin, func() { moveBatch(p.BatchSize) })
	d.Loop.RunFor(p.Horizon)

	r.Curves = append(r.Curves, latCurve, appMoves, dbMoves)
	steady := meanVal(latCurve.Points, 0, p.Batch1At-time.Minute)
	spike1 := maxVal(latCurve.Points, p.Batch1At, p.Batch1At+10*time.Minute)
	settled := meanVal(latCurve.Points, p.Batch2At+30*time.Minute, p.Horizon)
	r.AddNote("AppShard<->DBShard latency: steady %.2fms, spike after batch %.2fms, settled %.2fms", steady, spike1, settled)
	r.AddNote("paper shape: two latency spikes when DBShard batches move, each recovering as SM migrates AppShards to follow")
	return r
}

func regionIndex(regions []topology.RegionID, r topology.RegionID) int {
	for i, x := range regions {
		if x == r {
			return i
		}
	}
	return 0
}

func meanVal(pts []metrics.Point, from, to time.Duration) float64 {
	var sum float64
	n := 0
	for _, p := range pts {
		if p.T >= from && p.T <= to {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func maxVal(pts []metrics.Point, from, to time.Duration) float64 {
	m := 0.0
	for _, p := range pts {
		if p.T >= from && p.T <= to && p.V > m {
			m = p.V
		}
	}
	return m
}
