package experiments

import (
	"fmt"

	"shardmanager/internal/controlplane"
	"shardmanager/internal/metrics"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
	"shardmanager/internal/workload"
)

// DemographicsParams size the synthetic survey fleet.
type DemographicsParams struct {
	Apps int
	Seed uint64
}

// DefaultDemographicsParams mirror "hundreds of sharded applications".
func DefaultDemographicsParams() DemographicsParams {
	return DemographicsParams{Apps: 300, Seed: 42}
}

func fleetFor(p DemographicsParams) workload.Fleet {
	return workload.GenerateFleet(sim.NewRNG(p.Seed), p.Apps)
}

func sharesTable(title string, shares []workload.Share) Table {
	t := Table{Title: title, Columns: []string{"category", "by #application", "by #server"}}
	for _, s := range shares {
		t.Rows = append(t.Rows, []string{s.Label, pct(s.ByApps), pct(s.ByServers)})
	}
	return t
}

// Fig01 regenerates Figure 1: planned vs unplanned container stops.
func Fig01(p DemographicsParams) *Report {
	r := &Report{
		ID:    "fig1",
		Title: "Planned vs. unplanned container stops (log scale, ~1000x gap)",
		Params: map[string]string{
			"weeks": "26", "fleet_containers": "100000", "seed": fmt.Sprint(p.Seed),
		},
	}
	series := workload.ContainerStopSeries(sim.NewRNG(p.Seed), 26, 100000)
	planned := Curve{Name: "planned maintenance or software updates", Unit: "stops/week (thousands)"}
	unplanned := Curve{Name: "unplanned failures", Unit: "stops/week (thousands)"}
	var totalP, totalU int64
	for _, s := range series {
		t := weekDur(s.Week)
		planned.Points = append(planned.Points, point(t, float64(s.Planned)/1000))
		unplanned.Points = append(unplanned.Points, point(t, float64(s.Unplanned)/1000))
		totalP += s.Planned
		totalU += s.Unplanned
	}
	r.Curves = append(r.Curves, planned, unplanned)
	r.AddNote("planned/unplanned ratio = %.0fx (paper: ~1000x)", float64(totalP)/float64(totalU))
	return r
}

// Fig02 regenerates Figure 2: machines used by SM applications, 2012-2021.
func Fig02() *Report {
	r := &Report{
		ID:    "fig2",
		Title: "Machines used by SM applications (logistic growth to >1M)",
	}
	curve := Curve{Name: "machines", Unit: "machines"}
	for _, pt := range workload.AdoptionCurve(37) {
		// Encode years as durations from 2012 for the Point type.
		t := yearDur(pt.Year)
		curve.Points = append(curve.Points, point(t, pt.Machines))
	}
	r.Curves = append(r.Curves, curve)
	last := curve.Points[len(curve.Points)-1].V
	r.AddNote("machines in 2021 = %.2fM (paper: >1M; 100K line crossed mid-curve)", last/1e6)
	return r
}

// Fig04 regenerates Figure 4: breakdown of sharding schemes.
func Fig04(p DemographicsParams) *Report {
	f := fleetFor(p)
	r := &Report{
		ID:     "fig4",
		Title:  "Breakdown of all sharded applications by sharding scheme",
		Params: map[string]string{"apps": fmt.Sprint(p.Apps), "seed": fmt.Sprint(p.Seed)},
	}
	r.Tables = append(r.Tables, sharesTable("sharding schemes", f.SchemeBreakdown()))
	r.AddNote("paper: SM 54%%/34%%, static 35%%/30%%, consistent hashing 10%%/9%%, custom 1%%/27%%")
	return r
}

// Fig05 regenerates Figure 5: regional vs geo-distributed deployments.
func Fig05(p DemographicsParams) *Report {
	f := fleetFor(p)
	r := &Report{ID: "fig5", Title: "SM applications: regional vs geo-distributed deployments",
		Params: map[string]string{"apps": fmt.Sprint(p.Apps)}}
	r.Tables = append(r.Tables, sharesTable("deployment modes", f.DeploymentBreakdown()))
	r.AddNote("paper: geo-distributed 33%%/58%%, regional 67%%/42%%")
	return r
}

// Fig06 regenerates Figure 6: shard replication strategies.
func Fig06(p DemographicsParams) *Report {
	f := fleetFor(p)
	r := &Report{ID: "fig6", Title: "SM applications: shard replication strategies",
		Params: map[string]string{"apps": fmt.Sprint(p.Apps)}}
	r.Tables = append(r.Tables, sharesTable("replication strategies", f.StrategyBreakdown()))
	r.AddNote("paper: primary-only 68%%/25%%, primary-secondary 24%%/41%%, secondary-only 8%%/34%%")
	return r
}

// Fig07 regenerates Figure 7: load-balancing policies.
func Fig07(p DemographicsParams) *Report {
	f := fleetFor(p)
	r := &Report{ID: "fig7", Title: "SM applications: load-balancing policies",
		Params: map[string]string{"apps": fmt.Sprint(p.Apps)}}
	r.Tables = append(r.Tables, sharesTable("LB policies", f.LBBreakdown()))
	r.AddNote("paper: 55%% shard count by #app; multi-metric apps hold 65%% of servers")
	return r
}

// Fig08 regenerates Figure 8: drain policies for container restarts.
func Fig08(p DemographicsParams) *Report {
	f := fleetFor(p)
	r := &Report{ID: "fig8", Title: "SM applications: drain policies for container restarts",
		Params: map[string]string{"apps": fmt.Sprint(p.Apps)}}
	prim, sec := f.DrainBreakdown()
	r.Tables = append(r.Tables,
		sharesTable("primary replicas", prim),
		sharesTable("secondary replicas", sec))
	r.AddNote("paper: drain primaries 94%%/93%%, drain secondaries 22%%/15%%")
	return r
}

// Fig09 regenerates Figure 9: storage vs non-storage machines.
func Fig09(p DemographicsParams) *Report {
	f := fleetFor(p)
	r := &Report{ID: "fig9", Title: "SM applications: usage of storage machines",
		Params: map[string]string{"apps": fmt.Sprint(p.Apps)}}
	r.Tables = append(r.Tables, sharesTable("machine types", f.StorageBreakdown()))
	r.AddNote("paper: storage 18%% of apps / 38%% of servers")
	return r
}

// Fig15 regenerates Figure 15: scale of SM application deployments.
func Fig15(p DemographicsParams) *Report {
	f := fleetFor(p).SMApps()
	r := &Report{ID: "fig15", Title: "Scale of SM applications (servers x shards scatter)",
		Params: map[string]string{"sm_apps": fmt.Sprint(len(f))}}
	t := Table{Title: "deployment size distribution", Columns: []string{"quantile", "servers", "shards"}}
	servers := make([]float64, len(f))
	shards := make([]float64, len(f))
	big := 0
	for i, a := range f {
		servers[i] = float64(a.Servers)
		shards[i] = float64(a.Shards)
		if a.Servers >= 1000 {
			big++
		}
	}
	qs := []float64{0.5, 0.9, 0.99, 1.0}
	serverQ := metrics.Quantiles(servers, qs...)
	shardQ := metrics.Quantiles(shards, qs...)
	for i, q := range qs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("p%.0f", q*100),
			fmt.Sprintf("%.0f", serverQ[i]),
			fmt.Sprintf("%.0f", shardQ[i]),
		})
	}
	r.Tables = append(r.Tables, t)
	r.AddNote("%.0f%% of deployments use >= 1000 servers (paper: 14%%)", 100*float64(big)/float64(len(f)))
	r.AddNote("largest deployment: %.0f servers / %.1fM shards (paper: ~19K servers / ~2.6M shards)",
		serverQ[len(qs)-1], shardQ[len(qs)-1]/1e6)
	return r
}

// Fig16 regenerates Figure 16: scale of mini-SMs, by partitioning the
// synthetic fleet through the scale-out control plane.
func Fig16(p DemographicsParams) *Report {
	f := fleetFor(p).SMApps()
	cp := controlplane.New(controlplane.DefaultLimits())
	for _, a := range f {
		regions := []topology.RegionID{"region0"}
		if a.Deployment == workload.DeploymentGeo {
			regions = []topology.RegionID{"region0", "region1", "region2"}
		}
		_, err := cp.RegisterApp(controlplane.AppSpec{
			App:     shard.AppID(a.Name),
			Servers: a.Servers,
			Shards:  a.Shards,
			Regions: regions,
		})
		if err != nil {
			panic(err)
		}
	}
	st := cp.Stats()
	r := &Report{ID: "fig16", Title: "Scale of mini-SMs (regional + geo-distributed)",
		Params: map[string]string{"sm_apps": fmt.Sprint(len(f))}}
	t := Table{Title: "mini-SM pool", Columns: []string{"metric", "value"}}
	t.Rows = append(t.Rows,
		[]string{"regional mini-SMs", fmt.Sprint(st.RegionalMiniSMs)},
		[]string{"geo-distributed mini-SMs", fmt.Sprint(st.GeoMiniSMs)},
		[]string{"total servers managed", fmt.Sprint(st.TotalServers)},
		[]string{"total shards managed", fmt.Sprint(st.TotalShards)},
		[]string{"largest mini-SM servers", fmt.Sprint(st.MaxServers)},
		[]string{"largest mini-SM shards", fmt.Sprint(st.MaxShards)},
	)
	r.Tables = append(r.Tables, t)
	r.AddNote("paper: 139 regional + 48 geo mini-SMs; largest manages ~50K servers / ~1.3M shards")
	return r
}
