package experiments

import (
	"fmt"
	"time"

	"shardmanager/internal/controlplane"
	"shardmanager/internal/discovery"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// ControlScalePoint is one partitioned-control-plane benchmark configuration:
// an application of Shards shards split under the given partition/mini-SM
// shard limits, churned for Rounds publication waves.
type ControlScalePoint struct {
	Shards int
	// PartitionMaxShards / MiniSMMaxShards bound the split: Shards /
	// PartitionMaxShards partitions, packed onto mini-SMs that hold
	// MiniSMMaxShards shards each.
	PartitionMaxShards int
	MiniSMMaxShards    int
	// ChurnPerPartition is how many single-replica reassignments each
	// partition stages per publication wave.
	ChurnPerPartition int
	// Rounds is the number of steady-state churn waves.
	Rounds int
}

// ControlScaleParams configure the controlscale benchmark.
type ControlScaleParams struct {
	// Points are run in order; BENCH_controlplane.json records one entry
	// each.
	Points []ControlScalePoint
	// ShardsPerServer sizes the synthetic fleet (Shards/ShardsPerServer
	// servers, minimum 1).
	ShardsPerServer int
	// FlushBatch / FlushStagger shape the cross-partition publication wave:
	// FlushBatch partitions flush per event, consecutive batches
	// FlushStagger apart.
	FlushBatch   int
	FlushStagger time.Duration
	// SettleTime is the simulated time each wave is given to propagate
	// (must exceed the discovery delay ceiling plus the wave stagger).
	SettleTime time.Duration
	Seed       uint64
}

// DefaultControlScaleParams sweep the control plane from 100k shards up to
// the 10M-shard target: 200 partitions of 50k shards, one per mini-SM —
// a 200-mini-SM pool, the paper's "add mini-SMs to scale out" regime (§6.1).
func DefaultControlScaleParams() ControlScaleParams {
	return ControlScaleParams{
		Points: []ControlScalePoint{
			{Shards: 100_000, PartitionMaxShards: 25_000, MiniSMMaxShards: 25_000, ChurnPerPartition: 200, Rounds: 8},
			{Shards: 1_000_000, PartitionMaxShards: 50_000, MiniSMMaxShards: 50_000, ChurnPerPartition: 200, Rounds: 8},
			{Shards: 10_000_000, PartitionMaxShards: 50_000, MiniSMMaxShards: 50_000, ChurnPerPartition: 200, Rounds: 5},
		},
		ShardsPerServer: 1000,
		FlushBatch:      16,
		FlushStagger:    5 * time.Millisecond,
		SettleTime:      5 * time.Second,
		Seed:            1,
	}
}

// ControlScalePointRecord is one point's machine-readable result. Every
// column but the wall-clock ones (bootstrap_wall_ms, churn_wall_ms and the
// rate derived from it) is exact per seed.
type ControlScalePointRecord struct {
	Shards            int     `json:"shards"`
	Partitions        int     `json:"partitions"`
	MiniSMs           int     `json:"mini_sms"`
	Servers           int     `json:"servers"`
	Rounds            int     `json:"rounds"`
	ChurnPerPartition int     `json:"churn_per_partition"`
	BootstrapWallMS   float64 `json:"bootstrap_wall_ms"`
	// Publishes counts steady-state churn publications (the bootstrap
	// snapshots are excluded) and ChangedEntries the edits they carried.
	Publishes      int64 `json:"publishes"`
	ChangedEntries int64 `json:"changed_entries"`
	// BytesPerPublish is the approximate wire size of one steady-state
	// publication (shard.Delta.ApproxBytes).
	BytesPerPublish float64 `json:"bytes_per_publish"`
	// ChurnWallMS is the wall-clock cost of all churn waves end to end:
	// staging, publication, discovery fan-out, and subscriber delivery.
	ChurnWallMS float64 `json:"churn_wall_ms"`
	// EntriesPerSec is changed entries propagated per wall-clock second.
	EntriesPerSec float64 `json:"entries_per_sec"`
	// ConvergenceMS is the worst-case simulated latency from the start of a
	// publication wave until every subscriber has been delivered its update.
	ConvergenceMS float64 `json:"convergence_ms"`
}

// ControlScaleRecord is the BENCH_controlplane.json payload (Report.Extra).
type ControlScaleRecord struct {
	Points []ControlScalePointRecord `json:"points"`
}

// ControlScale benchmarks the partitioned control plane end to end: each
// point registers one application with the control plane, which splits it
// into partitions and packs them onto mini-SMs; every partition owns a
// publication stream (its mini-SM's shard map slice) with one subscriber.
// Steady-state churn — a few hundred reassignments per partition per wave —
// is staged and published partition by partition, and the cost of a wave is
// measured against the partition count.
func ControlScale(p ControlScaleParams) *Report {
	rep := &Report{
		ID:    "controlscale",
		Title: "partitioned control plane: publication cost by scale",
		Params: map[string]string{
			"points":        fmt.Sprintf("%d", len(p.Points)),
			"flush_batch":   fmt.Sprintf("%d", p.FlushBatch),
			"settle":        p.SettleTime.String(),
			"seed":          fmt.Sprintf("%d", p.Seed),
			"shards/server": fmt.Sprintf("%d", p.ShardsPerServer),
		},
	}
	rec := &ControlScaleRecord{}
	table := Table{
		Title: "steady-state publication cost by scale",
		Columns: []string{"shards", "parts", "miniSMs", "publishes", "entries",
			"B/pub", "ms/wave", "entries/s", "converge ms"},
	}
	for i, pt := range p.Points {
		r := runControlScalePoint(p, pt, p.Seed+uint64(i))
		rec.Points = append(rec.Points, r)
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%d", r.Partitions),
			fmt.Sprintf("%d", r.MiniSMs),
			fmt.Sprintf("%d", r.Publishes),
			fmt.Sprintf("%d", r.ChangedEntries),
			fmt.Sprintf("%.0f", r.BytesPerPublish),
			fmt.Sprintf("%.2f", r.ChurnWallMS/float64(r.Rounds)),
			fmt.Sprintf("%.0f", r.EntriesPerSec),
			fmt.Sprintf("%.0f", r.ConvergenceMS),
		})
	}
	rep.Tables = append(rep.Tables, table)
	last := rec.Points[len(rec.Points)-1]
	rep.AddValue("shards", float64(last.Shards))
	rep.AddValue("mini_sms", float64(last.MiniSMs))
	rep.AddNote("largest point: %d shards over %d partitions on %d mini-SMs; a wave of %d changed entries costs %.1f ms of wall clock at %.0f bytes/publish",
		last.Shards, last.Partitions, last.MiniSMs, last.ChangedEntries/int64(last.Rounds),
		last.ChurnWallMS/float64(last.Rounds), last.BytesPerPublish)
	rep.AddNote("worst-case map convergence at that point: %.0f ms simulated from wave start to every subscriber delivered",
		last.ConvergenceMS)
	rep.Extra = rec
	return rep
}

// runControlScalePoint builds one world — control plane, partition
// publishers, one subscriber per partition — bootstraps it with a snapshot
// wave, then drives Rounds churn waves, measuring wall-clock publication cost
// and simulated convergence latency.
func runControlScalePoint(p ControlScaleParams, pt ControlScalePoint, seed uint64) ControlScalePointRecord {
	const app = shard.AppID("controlscale")
	loop := sim.NewLoop(seed)
	disc := discovery.NewService(loop, discovery.DefaultDelay())

	servers := pt.Shards / p.ShardsPerServer
	if servers < 1 {
		servers = 1
	}
	limits := controlplane.Limits{
		PartitionMaxServers: 5000,
		PartitionMaxShards:  pt.PartitionMaxShards,
		MiniSMMaxServers:    50000,
		MiniSMMaxShards:     pt.MiniSMMaxShards,
	}
	cp := controlplane.New(limits)
	parts, err := cp.RegisterApp(controlplane.AppSpec{
		App:     app,
		Servers: servers,
		Shards:  pt.Shards,
		Regions: []topology.RegionID{"global"},
	})
	if err != nil {
		panic(err)
	}
	router := controlplane.NewShardRouter(app, pt.Shards, len(parts))

	r := ControlScalePointRecord{
		Shards:            pt.Shards,
		Partitions:        len(parts),
		MiniSMs:           len(cp.MiniSMs()),
		Servers:           servers,
		Rounds:            pt.Rounds,
		ChurnPerPartition: pt.ChurnPerPartition,
	}

	// Identities are precomputed so churn staging costs no formatting.
	ids := make([]shard.ID, pt.Shards)
	srvs := make([]shard.ServerID, servers)
	for i := range srvs {
		srvs[i] = shard.ServerID(fmt.Sprintf("srv-%05d", i))
	}

	// One publisher and one subscriber per partition. The subscriber stands
	// for a mini-SM's downstream consumer: what it is delivered is a cursor
	// into discovery's store, so all it does here is note the arrival.
	pubs := make([]*controlplane.PartitionPublisher, len(parts))
	lastApplied := make([]time.Duration, len(parts))
	for pi := range parts {
		lo, hi := router.Range(pi)
		pm := shard.NewMap(router.PartitionApp(pi))
		for idx := lo; idx < hi; idx++ {
			ids[idx] = shard.ID(fmt.Sprintf("s%08d", idx))
			pm.Entries[ids[idx]] = []shard.Assignment{{
				Server: srvs[idx%servers],
				Role:   shard.RolePrimary,
			}}
		}
		pubs[pi] = controlplane.NewPartitionPublisher(disc, pm.App, pm)

		cell := &lastApplied[pi]
		disc.Subscribe(pm.App, func(discovery.View) { *cell = loop.Now() })
	}

	settle := func() {
		done := false
		controlplane.FlushWave(loop, pubs, p.FlushBatch, p.FlushStagger, func() { done = true })
		loop.RunFor(p.SettleTime)
		if !done {
			panic("controlscale: flush wave did not complete within the settle window")
		}
	}

	// Bootstrap: the snapshot wave.
	t0 := time.Now()
	settle()
	r.BootstrapWallMS = time.Since(t0).Seconds() * 1e3
	for _, pub := range pubs {
		pub.Stats = controlplane.PublisherStats{} // the record counts steady-state churn only
	}

	// Steady-state churn: each wave stages ChurnPerPartition single-replica
	// reassignments per partition, then publishes partition-by-partition in
	// batched flush groups. Wall clock covers staging through subscriber
	// delivery; convergence is simulated time from wave start to the last
	// subscriber's delivery.
	rng := loop.RNG().Fork()
	var churnWall, convergence time.Duration
	for round := 0; round < pt.Rounds; round++ {
		waveStart := loop.Now()
		t0 = time.Now()
		for pi, pub := range pubs {
			lo, hi := router.Range(pi)
			for j := 0; j < pt.ChurnPerPartition; j++ {
				idx := lo + rng.Intn(hi-lo)
				pub.SetOne(ids[idx], srvs[rng.Intn(servers)], shard.RolePrimary)
			}
		}
		settle()
		churnWall += time.Since(t0)
		for _, at := range lastApplied {
			if lag := at - waveStart; lag > convergence {
				convergence = lag
			}
		}
	}

	var bytes int64
	for _, pub := range pubs {
		r.Publishes += pub.Stats.Publishes
		r.ChangedEntries += pub.Stats.ChangedEntries
		bytes += pub.Stats.Bytes
	}
	r.ChurnWallMS = churnWall.Seconds() * 1e3
	r.ConvergenceMS = float64(convergence) / float64(time.Millisecond)
	if r.Publishes > 0 {
		r.BytesPerPublish = float64(bytes) / float64(r.Publishes)
	}
	if churnWall > 0 {
		r.EntriesPerSec = float64(r.ChangedEntries) / churnWall.Seconds()
	}
	return r
}
