package experiments

import (
	"bytes"
	"math"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/cluster"
	"shardmanager/internal/healthmon"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// captureMonitors returns a run config whose health factory hands every Build
// a fresh monitor and records it, so figure harnesses need no health plumbing.
func captureMonitors() (RunConfig, *[]*healthmon.Monitor) {
	var mons []*healthmon.Monitor
	return RunConfig{Health: func() *healthmon.Monitor {
		m := healthmon.New(healthmon.Options{})
		mons = append(mons, m)
		return m
	}}, &mons
}

// TestHealthMonitorMatchesFig17 recomputes each Fig 17 variant's success
// rate from the health monitor's independent observation stream and demands
// agreement with the figure's own bookkeeping to 1e-9.
func TestHealthMonitorMatchesFig17(t *testing.T) {
	cfg, mons := captureMonitors()
	p := DefaultAvailabilityParams()
	p.Servers, p.Shards, p.RequestRate = 12, 400, 20
	r := Fig17(cfg, p)

	names := []string{"SM", "no graceful migration", "no graceful migration & no TaskController"}
	if len(*mons) != len(names) {
		t.Fatalf("captured %d monitors, want %d (one per variant Build)", len(*mons), len(names))
	}
	for i, name := range names {
		want, ok := r.Values[name+"/success_rate"]
		if !ok {
			t.Fatalf("report has no %q success rate value", name)
		}
		from := time.Duration(r.Values[name+"/window_from_ns"])
		to := time.Duration(r.Values[name+"/window_to_ns"])
		got := (*mons)[i].RateBetween("queueapp", from, to)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: healthmon rate %v, figure rate %v (window %v-%v)", name, got, want, from, to)
		}
	}
}

// TestHealthMonitorMatchesFig18 checks the overall Fig 18 success rate
// against the monitor's availability for the same app.
func TestHealthMonitorMatchesFig18(t *testing.T) {
	cfg, mons := captureMonitors()
	p := DefaultProductionTraceParams()
	p.Servers, p.Shards, p.Days, p.BaseRate = 20, 600, 1, 5
	r := Fig18(cfg, p)

	if len(*mons) != 1 {
		t.Fatalf("captured %d monitors, want 1", len(*mons))
	}
	want, ok := r.Values["overall_success_rate"]
	if !ok {
		t.Fatal("report has no overall_success_rate value")
	}
	st := (*mons)[0].Snapshot()
	if len(st.Apps) != 1 || st.Apps[0].App != "msgqueue" {
		t.Fatalf("monitor saw apps %+v, want msgqueue alone", st.Apps)
	}
	got := st.Apps[0].Availability
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("healthmon rate %v, figure rate %v", got, want)
	}
}

// runMonitoredFailover mirrors runTracedFailover but with a health monitor
// and background client traffic: a small primary/secondary deployment, a
// drain (graceful migration), then a machine kill (failover promotion).
func runMonitoredFailover(t *testing.T, seed uint64) *healthmon.Monitor {
	t.Helper()
	mon := healthmon.New(healthmon.Options{})
	cfg := orchestrator.Config{
		App:      "monkv",
		Strategy: shard.PrimarySecondary,
		Shards: UniformShardConfigs(20, 2, topology.Capacity{
			topology.ResourceCPU:        1,
			topology.ResourceShardCount: 1,
		}),
		Policy: allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount),
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: 40,
		},
		GracefulMigration: true,
		FailoverGrace:     10 * time.Second,
		AllocInterval:     15 * time.Second,
	}
	backing := apps.NewKVBacking()
	d := Build(DeploymentSpec{
		Regions:          []topology.RegionID{"west", "east"},
		ServersPerRegion: 4,
		Orch:             cfg,
		AppFactory: func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, backing)
		},
		Health: mon,
		Seed:   seed,
	})
	if err := d.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}

	ks := KeyspaceFor(20)
	client := d.NewClient("west", ks, routing.DefaultOptions())
	rng := d.Loop.RNG().Fork()
	d.Loop.EveryL(500*time.Millisecond, 0, func() {
		client.Do(KeyForShard(rng.Intn(20)), false, apps.KVOpGet, "k", func(routing.Result) {})
	})

	victim, ok := d.Orch.AssignmentSnapshot().Primary(shard.ID("s00000"))
	if !ok {
		t.Fatal("s00000 has no primary after settle")
	}
	drained := false
	d.Orch.Drain(victim, func() { drained = true })
	for i := 0; i < 20 && !drained; i++ {
		d.Loop.RunFor(30 * time.Second)
	}
	if !drained {
		t.Fatalf("drain of %s did not complete", victim)
	}

	m := d.Orch.AssignmentSnapshot()
	var killed shard.ServerID
	for _, sid := range d.Orch.ShardIDs() {
		if p, ok := m.Primary(sid); ok && p != victim {
			killed = p
			break
		}
	}
	if killed == "" {
		t.Fatal("no primary left to kill")
	}
	for _, mgr := range d.Managers {
		if c, ok := mgr.Container(cluster.ContainerID(killed)); ok {
			mgr.KillMachine(c.Machine)
		}
	}
	d.Loop.RunFor(2 * time.Minute)
	return mon
}

// TestHealthExportsAreDeterministic runs the same seeded failover scenario
// twice and demands byte-identical metric exports and dashboards — the
// property smbench's -metrics-out flag documents.
func TestHealthExportsAreDeterministic(t *testing.T) {
	a := runMonitoredFailover(t, 7)
	b := runMonitoredFailover(t, 7)

	var ap, bp, aj, bj, ac, bc bytes.Buffer
	for _, w := range []struct {
		mon      *healthmon.Monitor
		pr, j, c *bytes.Buffer
	}{{a, &ap, &aj, &ac}, {b, &bp, &bj, &bc}} {
		reg := w.mon.Registry()
		if err := reg.WritePrometheus(w.pr); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteJSON(w.j); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteCSV(w.c); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(ap.Bytes(), bp.Bytes()) {
		t.Fatal("same seed produced different Prometheus exports")
	}
	if !bytes.Equal(aj.Bytes(), bj.Bytes()) {
		t.Fatal("same seed produced different JSON exports")
	}
	if !bytes.Equal(ac.Bytes(), bc.Bytes()) {
		t.Fatal("same seed produced different CSV exports")
	}
	if ap.Len() == 0 {
		t.Fatal("empty Prometheus export from a monitored run")
	}
	if a.Snapshot().Render() != b.Snapshot().Render() {
		t.Fatal("same seed produced different dashboards")
	}

	// The run must actually have produced control-plane metrics, not just
	// routing counters.
	for _, want := range []string{
		"routing_requests_total", "orchestrator_migrations_total",
		"cluster_container_stops_total", "discovery_deliveries_total",
		"health_availability",
	} {
		if !bytes.Contains(ap.Bytes(), []byte(want)) {
			t.Fatalf("Prometheus export missing %q:\n%.2000s", want, ap.String())
		}
	}
}
