package experiments

import (
	"fmt"
	"time"

	"shardmanager/internal/routing"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/topology"
)

// GeoFailoverParams configure the Fig 19 experiment: a secondary-only
// application with 1,000 shards and two replicas per shard across three
// regions — FRC (Forest City, NC), PRN (Prineville, OR), ODN (Odense,
// Denmark) — 30 servers per region. 400 "east-coast" (EC) shards carry a
// region preference for FRC. The FRC servers fail at FailAt and recover at
// RecoverAt; the plotted curve is the latency an FRC client sees accessing
// EC shards.
type GeoFailoverParams struct {
	Shards           int
	ECShards         int
	Replicas         int
	ServersPerRegion int
	RequestRate      int
	FailAt           time.Duration
	RecoverAt        time.Duration
	Horizon          time.Duration
	Seed             uint64
}

// DefaultGeoFailoverParams mirror the paper's setup.
func DefaultGeoFailoverParams() GeoFailoverParams {
	return GeoFailoverParams{
		Shards:           1000,
		ECShards:         400,
		Replicas:         2,
		ServersPerRegion: 30,
		RequestRate:      60,
		FailAt:           90 * time.Second,
		RecoverAt:        450 * time.Second,
		Horizon:          620 * time.Second,
		Seed:             19,
	}
}

// Fig19 regenerates Figure 19.
func Fig19(c RunConfig, p GeoFailoverParams) *Report {
	r := &Report{
		ID:    "fig19",
		Title: "SM migrates a geo-distributed application's shards across regions to handle failures",
		Params: map[string]string{
			"shards":   fmt.Sprint(p.Shards),
			"ec":       fmt.Sprint(p.ECShards),
			"replicas": fmt.Sprint(p.Replicas),
			"servers":  fmt.Sprintf("%dx3", p.ServersPerRegion),
			"seed":     fmt.Sprint(p.Seed),
		},
	}

	spec := GeoKVSpec("geostore", [3]topology.RegionID{"frc", "prn", "odn"}, "prn",
		p.Shards, p.Replicas, p.ServersPerRegion, p.Seed)
	spec.Orch.Policy.AffinityWeight = 300
	shards := spec.Orch.Shards
	for i := 0; i < p.ECShards; i++ {
		shards[i].RegionPreference = "frc"
	}
	d := c.build(spec)
	if err := d.Settle(10 * time.Minute); err != nil {
		panic(err)
	}
	// Verify the region preference took hold: every EC shard should have
	// a replica at FRC in the steady state.
	m := d.Orch.AssignmentSnapshot()
	atFRC := 0
	for i := 0; i < p.ECShards; i++ {
		for _, a := range m.Replicas(shards[i].ID) {
			if d.Net.Region(rpcnet.Endpoint(a.Server)) == "frc" {
				atFRC++
				break
			}
		}
	}
	r.AddNote("steady state: %d/%d EC shards have a replica at FRC", atFRC, p.ECShards)

	// FRC client reading EC shards.
	ks := KeyspaceFor(p.Shards)
	client := d.NewClient("frc", ks, routing.DefaultOptions())
	reads := startKVReads(d, client, p.RequestRate, p.ECShards)
	latency, failures, t0 := reads.Latency, reads.Failures, reads.T0

	frc := d.Managers["frc"]
	d.Loop.AtL(t0+p.FailAt, lbExpAdmin, frc.FailRegion)
	d.Loop.AtL(t0+p.RecoverAt, lbExpAdmin, frc.RecoverRegion)
	d.Loop.RunFor(p.Horizon)

	r.Curves = append(r.Curves, reads.latencyCurve("EC-shard read latency (FRC client)", p.Horizon))

	before := latency.MeanBetween(0, p.FailAt-1)
	during := latency.MeanBetween(p.FailAt+60*time.Second, p.RecoverAt-1)
	after := latency.MeanBetween(p.RecoverAt+120*time.Second, p.Horizon)
	r.AddNote("mean latency: steady %.1fms -> failover plateau %.1fms -> after shards move back %.1fms",
		before, during, after)
	r.AddNote("failed requests: %d (clients retry onto surviving replicas)", failures.Len())
	r.AddNote("paper shape: low steady latency, spike at failure, remote-replica plateau, restored after shards move back")
	return r
}
