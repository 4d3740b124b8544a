package experiments

import (
	"fmt"
	"runtime"
	"time"

	"shardmanager/internal/discovery"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/simprof"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
	"shardmanager/internal/workload"
)

// Attribution labels for the simscale workload's own timers; everything else
// (fabric delivery, map propagation) is attributed by the component packages.
var (
	lbSimRequest  = sim.LabelFor("simscale", "client_request")
	lbSimLiveness = sim.LabelFor("simscale", "liveness")
	lbSimShard    = sim.LabelFor("simscale", "shard_load")
	lbSimPublish  = sim.LabelFor("simscale", "publish")
)

// SimScalePoint is one kernel-benchmark configuration. The interval fields
// override the suite-wide SimScaleParams when non-zero, so a sweep can mix
// minute-scale stress points with a multi-day, million-entity point whose
// pacing mirrors production cadence rather than benchmark cadence.
type SimScalePoint struct {
	Shards  int
	Clients int
	Servers int

	// Per-point overrides; zero values inherit SimScaleParams.
	SimTime          time.Duration
	ClientInterval   time.Duration
	LivenessInterval time.Duration
	PublishInterval  time.Duration

	// FanoutBatch is the discovery fan-out batch size for this point
	// (subscribers per delivery event). 0 or 1 keeps the legacy
	// per-subscriber fan-out.
	FanoutBatch int

	// ChurnPerPublish is how many random single-replica reassignments each
	// republication tick stages; 0 republishes the map unchanged (a version
	// bump).
	ChurnPerPublish int
}

// SimScaleParams configure the simscale kernel benchmark.
type SimScaleParams struct {
	// Points are run in order; BENCH_sim.json records one entry each.
	Points []SimScalePoint
	// SimTime is the simulated horizon per point.
	SimTime time.Duration
	// ClientInterval is the mean gap between one client's requests
	// (diurnally modulated, exponentially jittered).
	ClientInterval time.Duration
	// LivenessInterval paces per-server heartbeat ticks.
	LivenessInterval time.Duration
	// PublishInterval paces shard-map republication (version bump + fan-out
	// to every subscribed client).
	PublishInterval time.Duration
	// MeasureTracerOverhead reruns the first point with a live tracer
	// attached and records the throughput delta in BENCH_sim.json.
	MeasureTracerOverhead bool
	// Tracer, when non-nil, is attached to every point's loop, exercising
	// the traced kernel dispatch path (span per event plus queue-depth and
	// lag counters) instead of the nil-tracer fast path.
	Tracer *trace.Tracer
	Seed   uint64
}

// DefaultSimScaleParams mirror the fig18-style production trace shape at
// kernel-stress scale. The first three points keep the historical
// minute-cadence configuration (so events/sec is comparable release over
// release); the final point is the ROADMAP's million-entity target — 1M
// shards, 100k clients, 10k servers over two simulated days at production
// cadence, with discovery fan-out batched so each publish schedules
// O(clients/256) events instead of O(clients).
func DefaultSimScaleParams() SimScaleParams {
	return SimScaleParams{
		Points: []SimScalePoint{
			{Shards: 10000, Clients: 1000, Servers: 200},
			{Shards: 50000, Clients: 5000, Servers: 1000},
			{Shards: 120000, Clients: 10000, Servers: 2000},
			{
				Shards: 1000000, Clients: 100000, Servers: 10000,
				SimTime:          48 * time.Hour,
				ClientInterval:   time.Hour,
				LivenessInterval: 10 * time.Minute,
				PublishInterval:  4 * time.Hour,
				FanoutBatch:      256,
				ChurnPerPublish:  256,
			},
		},
		SimTime:               10 * time.Minute,
		ClientInterval:        10 * time.Second,
		LivenessInterval:      15 * time.Second,
		PublishInterval:       time.Minute,
		MeasureTracerOverhead: true,
		Seed:                  1,
	}
}

// SimCostCenter is one profiler row in the BENCH_sim.json record.
type SimCostCenter struct {
	Component string  `json:"component"`
	Kind      string  `json:"kind"`
	Events    uint64  `json:"events"`
	WallMS    float64 `json:"wall_ms"`
	SharePct  float64 `json:"share_pct"`
}

// SimScalePointRecord is one point's machine-readable result.
type SimScalePointRecord struct {
	Shards         int             `json:"shards"`
	Clients        int             `json:"clients"`
	Servers        int             `json:"servers"`
	SimTime        string          `json:"sim_time"`
	FanoutBatch    int             `json:"fanout_batch"`
	Events         uint64          `json:"events"`
	Requests       int             `json:"requests"`
	MapDeliveries  int             `json:"map_deliveries"`
	WallMS         float64         `json:"wall_ms"`
	EventsPerSec   float64         `json:"events_per_sec"`
	AllocsPerEvent float64         `json:"allocs_per_event"`
	MaxHeapDepth   int             `json:"max_heap_depth"`
	AvgHeapDepth   float64         `json:"avg_heap_depth"`
	Top            []SimCostCenter `json:"top_cost_centers"`
}

// SimScaleRecord is the BENCH_sim.json payload (Report.Extra).
type SimScaleRecord struct {
	SimTime string                `json:"sim_time"`
	Points  []SimScalePointRecord `json:"points"`
	// TracedEventsPerSec / TracerOverheadPct record the first point rerun
	// with a live tracer attached: the throughput of the traced kernel
	// dispatch path and its overhead relative to the untraced run.
	TracedEventsPerSec float64 `json:"traced_events_per_sec,omitempty"`
	TracerOverheadPct  float64 `json:"tracer_overhead_pct,omitempty"`
}

// SimScale benchmarks the simulation kernel itself: a fig18-style trace —
// diurnal client request load over the RPC fabric, shard-map republication
// fanning out through discovery, per-server liveness ticks, and one load
// report per shard — at increasing shard/client/server counts. It measures
// raw kernel throughput (events/sec), run-phase allocations per event, and
// event-queue depth, and attributes cost to (component, kind) with simprof.
func SimScale(p SimScaleParams) *Report {
	rep := &Report{
		ID:    "simscale",
		Title: "sim-kernel throughput and cost attribution",
		Params: map[string]string{
			"sim_time":        p.SimTime.String(),
			"client_interval": p.ClientInterval.String(),
			"points":          fmt.Sprintf("%d", len(p.Points)),
			"seed":            fmt.Sprintf("%d", p.Seed),
		},
	}
	rec := &SimScaleRecord{SimTime: p.SimTime.String()}
	table := Table{
		Title:   "kernel throughput by scale",
		Columns: []string{"shards", "clients", "servers", "sim time", "events", "wall ms", "events/sec", "allocs/ev", "queue max"},
	}
	for i, pt := range p.Points {
		r := runSimScalePoint(p, pt, p.Seed+uint64(i))
		rec.Points = append(rec.Points, r)
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%d", r.Clients),
			fmt.Sprintf("%d", r.Servers),
			r.SimTime,
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%.1f", r.WallMS),
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%.2f", r.AllocsPerEvent),
			fmt.Sprintf("%d", r.MaxHeapDepth),
		})
	}
	rep.Tables = append(rep.Tables, table)
	if p.MeasureTracerOverhead && p.Tracer == nil && len(p.Points) > 0 {
		// Rerun the first (smallest) point with a live tracer attached: every
		// dispatch opens and closes a span and samples two counters, the path
		// smbench -trace exercises. Recorded so the overhead is tracked
		// release over release alongside the untraced throughput.
		tp := p
		tp.Tracer = trace.New(trace.Options{})
		traced := runSimScalePoint(tp, p.Points[0], p.Seed)
		base := rec.Points[0]
		rec.TracedEventsPerSec = traced.EventsPerSec
		if traced.EventsPerSec > 0 && base.EventsPerSec > 0 {
			rec.TracerOverheadPct = (base.EventsPerSec/traced.EventsPerSec - 1) * 100
		}
		rep.AddValue("tracer_overhead_pct", rec.TracerOverheadPct)
		rep.AddNote("tracer-enabled rerun of the %d-shard point: %.0f events/sec, %.0f%% overhead vs %.0f untraced",
			base.Shards, traced.EventsPerSec, rec.TracerOverheadPct, base.EventsPerSec)
	}
	last := rec.Points[len(rec.Points)-1]
	rep.AddValue("events_per_sec", last.EventsPerSec)
	rep.AddValue("allocs_per_event", last.AllocsPerEvent)
	rep.AddValue("max_heap_depth", float64(last.MaxHeapDepth))
	rep.AddValue("events", float64(last.Events))
	rep.AddNote("largest point (%d shards, %s simulated): %.0f events/sec, %.2f allocs/event, queue depth peaked at %d",
		last.Shards, last.SimTime, last.EventsPerSec, last.AllocsPerEvent, last.MaxHeapDepth)
	if len(last.Top) > 0 {
		t := last.Top[0]
		rep.AddNote("top cost center at that point: %s/%s (%d events, %.1f%% of dispatches)",
			t.Component, t.Kind, t.Events, t.SharePct)
	}
	rep.Extra = rec
	return rep
}

// runSimScalePoint builds and drives one configuration, returning its record.
func runSimScalePoint(p SimScaleParams, pt SimScalePoint, seed uint64) SimScalePointRecord {
	simTime := pt.SimTime
	if simTime == 0 {
		simTime = p.SimTime
	}
	clientInterval := pt.ClientInterval
	if clientInterval == 0 {
		clientInterval = p.ClientInterval
	}
	livenessInterval := pt.LivenessInterval
	if livenessInterval == 0 {
		livenessInterval = p.LivenessInterval
	}
	publishInterval := pt.PublishInterval
	if publishInterval == 0 {
		publishInterval = p.PublishInterval
	}
	fanoutBatch := pt.FanoutBatch
	if fanoutBatch < 1 {
		fanoutBatch = 1
	}

	loop := sim.NewLoop(seed)
	prof := simprof.New(simprof.Options{})
	loop.SetProfiler(prof)
	if p.Tracer != nil {
		loop.SetTracer(p.Tracer)
	}

	regions := []topology.RegionID{"region-a", "region-b", "region-c"}
	fleet := topology.Build(topology.Spec{
		Regions:           regions,
		MachinesPerRegion: 1,
		Capacity:          topology.Capacity{topology.ResourceCPU: 100},
	})
	net := rpcnet.NewNetwork(loop, fleet)
	disc := discovery.NewService(loop, discovery.DefaultDelay())
	disc.SetFanoutBatch(fanoutBatch)

	// Servers: registered fabric endpoints with liveness heartbeats,
	// spread round-robin across regions. Heartbeat phases are staggered so
	// the queue never sees a synchronized thundering herd.
	endpoints := make([]rpcnet.Endpoint, pt.Servers)
	rng := loop.RNG().Fork()
	for i := range endpoints {
		ep := rpcnet.Endpoint(fmt.Sprintf("srv-%05d", i))
		endpoints[i] = ep
		net.Register(ep, regions[i%len(regions)])
		phase := time.Duration(rng.Int63() % int64(livenessInterval))
		loop.AfterL(phase, lbSimLiveness, func() {
			loop.EveryL(livenessInterval, lbSimLiveness, func() {})
		})
	}

	// Shard map: every shard assigned to one server, published once as a
	// snapshot; a timer then republishes it — ChurnPerPublish random
	// single-replica reassignments per tick, as one delta — so discovery
	// fans a new version out to all subscribed clients at a cost that does
	// not depend on the shard count.
	const app = shard.AppID("simscale")
	dlt := shard.NewDelta(app).Reset(app, 0, 1, 0)
	ids := make([]shard.ID, pt.Shards)
	for i := range ids {
		ids[i] = shard.ID(fmt.Sprintf("s%07d", i))
		dlt.SetOne(ids[i], shard.ServerID(endpoints[i%len(endpoints)]), shard.RolePrimary)
	}
	disc.Publish(dlt)
	version := dlt.ToVersion
	dlt = shard.NewDelta(app) // let go of the snapshot-sized buffer; churn needs little
	var prng *sim.RNG         // the churn stream; a point without churn draws nothing
	if pt.ChurnPerPublish > 0 {
		prng = loop.RNG().Fork()
	}
	loop.EveryL(publishInterval, lbSimPublish, func() {
		dlt.Reset(app, version, version+1, 0)
		for j := 0; j < pt.ChurnPerPublish; j++ {
			id := ids[prng.Intn(pt.Shards)]
			dlt.SetOne(id, shard.ServerID(endpoints[prng.Intn(len(endpoints))]), shard.RolePrimary)
		}
		version++
		disc.Publish(dlt)
	})

	// One load report per shard, uniformly spread over the horizon. These
	// are all scheduled up front, so the event queue starts at a depth
	// proportional to the shard count — the regime the ROADMAP's
	// million-entity goal targets. A single shared callback taking the
	// counter cell as its argument avoids one closure per shard.
	serverLoad := make([]int, pt.Servers)
	loadReport := func(a any) { *(a.(*int))++ }
	for i := 0; i < pt.Shards; i++ {
		at := time.Duration(rng.Int63() % int64(simTime))
		loop.PostArgL(at, lbSimShard, loadReport, &serverLoad[i%len(endpoints)])
	}

	// Clients: each runs a self-rescheduling request loop over the fabric
	// with diurnal rate modulation, and subscribes to the shard map. The
	// request completion callbacks are hoisted out of the per-request path
	// so a request allocates nothing beyond its pooled kernel events.
	var served, failed, mapsApplied int
	onDone := func(time.Duration) { served++ }
	onFail := func() { failed++ }
	onMap := func(discovery.View) { mapsApplied++ }
	for c := 0; c < pt.Clients; c++ {
		region := regions[c%len(regions)]
		crng := loop.RNG().Fork()
		disc.Subscribe(app, onMap)
		var step func()
		step = func() {
			target := endpoints[crng.Intn(len(endpoints))]
			net.Call(region, target, nil, onDone, onFail)
			rate := workload.Diurnal(loop.Now(), 0.5)
			gap := time.Duration(crng.ExpFloat64() * float64(clientInterval) / rate)
			if gap < time.Millisecond {
				gap = time.Millisecond
			}
			loop.AfterL(gap, lbSimRequest, step)
		}
		loop.AfterL(time.Duration(crng.Int63()%int64(clientInterval)), lbSimRequest, step)
	}

	// Measure the run phase only: setup allocations (map build, up-front
	// shard timers) are excluded so allocs/event reflects steady-state
	// kernel + callback cost.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	loop.RunUntil(simTime)
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms1)

	events := loop.Dispatched()
	r := SimScalePointRecord{
		Shards:        pt.Shards,
		Clients:       pt.Clients,
		Servers:       pt.Servers,
		SimTime:       simTime.String(),
		FanoutBatch:   fanoutBatch,
		Events:        events,
		Requests:      served + failed,
		MapDeliveries: mapsApplied,
		WallMS:        float64(wall) / 1e6,
		MaxHeapDepth:  prof.MaxHeapDepth(),
		AvgHeapDepth:  prof.AvgHeapDepth(),
	}
	if wall > 0 {
		r.EventsPerSec = float64(events) / wall.Seconds()
	}
	if events > 0 {
		r.AllocsPerEvent = float64(ms1.Mallocs-ms0.Mallocs) / float64(events)
	}
	for _, row := range prof.Top(5) {
		share := 0.0
		if events > 0 {
			share = 100 * float64(row.Fired) / float64(events)
		}
		r.Top = append(r.Top, SimCostCenter{
			Component: row.Component,
			Kind:      row.Kind,
			Events:    row.Fired,
			WallMS:    float64(row.WallNS) / 1e6,
			SharePct:  share,
		})
	}
	return r
}
