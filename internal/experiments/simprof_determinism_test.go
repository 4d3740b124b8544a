package experiments

import (
	"bytes"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/cluster"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/simprof"
	"shardmanager/internal/topology"
)

// profileDemoDeployment runs a small demo-shaped deployment (failover +
// client traffic) with the kernel profiler attached and returns its
// deterministic text and JSON reports.
func profileDemoDeployment(t *testing.T, seed uint64) (string, string) {
	t.Helper()
	prof := simprof.New(simprof.Options{})
	backing := apps.NewKVBacking()
	d := Build(DeploymentSpec{
		Regions:          []topology.RegionID{"west", "east"},
		ServersPerRegion: 4,
		Orch: orchestrator.Config{
			App:      "profdemo",
			Strategy: shard.PrimarySecondary,
			Shards: UniformShardConfigs(30, 2, topology.Capacity{
				topology.ResourceCPU:        1,
				topology.ResourceShardCount: 1,
			}),
			Policy: allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount),
			ServerCapacity: topology.Capacity{
				topology.ResourceCPU:        100,
				topology.ResourceShardCount: 60,
			},
			GracefulMigration: true,
			FailoverGrace:     10 * time.Second,
		},
		ClusterOpts: cluster.DefaultOptions(),
		AppFactory: func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, backing)
		},
		Profiler: prof,
		Seed:     seed,
	})
	if err := d.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	mgr := d.Managers["west"]
	victims := mgr.RunningContainers(d.Jobs["west"])
	if len(victims) == 0 {
		t.Fatal("no running containers to kill")
	}
	c, _ := mgr.Container(victims[0])
	mgr.KillMachine(c.Machine)
	d.Loop.RunFor(3 * time.Minute)

	var txt, js bytes.Buffer
	if err := prof.WriteText(&txt, simprof.ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := prof.WriteJSON(&js, simprof.ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	return txt.String(), js.String()
}

// TestProfilerReportByteIdenticalAcrossRuns is the tentpole determinism bar
// on a full deployment: two independent runs of the same seeded world render
// byte-identical deterministic profiler reports.
func TestProfilerReportByteIdenticalAcrossRuns(t *testing.T) {
	t1, j1 := profileDemoDeployment(t, 7)
	t2, j2 := profileDemoDeployment(t, 7)
	if t1 != t2 {
		t.Errorf("text reports differ across runs:\n--- first:\n%s\n--- second:\n%s", t1, t2)
	}
	if j1 != j2 {
		t.Errorf("JSON reports differ across runs:\n--- first:\n%s\n--- second:\n%s", j1, j2)
	}
	if t1 == "" || j1 == "" {
		t.Fatal("profiler produced empty reports")
	}
}

// TestProfilerDeterministicOnFaultsExperiment repeats the determinism check
// on the fault-injection experiment via the run config's profiler factory —
// the path smbench's -prof-out flag uses.
func TestProfilerDeterministicOnFaultsExperiment(t *testing.T) {
	run := func() string {
		prof := simprof.New(simprof.Options{})
		cfg := RunConfig{Profiler: func() sim.Profiler { return prof }}
		if _, err := Run("faults", cfg); err != nil {
			t.Fatal(err)
		}
		var txt bytes.Buffer
		if err := prof.WriteText(&txt, simprof.ReportOptions{}); err != nil {
			t.Fatal(err)
		}
		return txt.String()
	}
	r1 := run()
	r2 := run()
	if r1 != r2 {
		t.Errorf("faults-experiment profiler reports differ:\n--- first:\n%s\n--- second:\n%s", r1, r2)
	}
	if r1 == "" {
		t.Fatal("empty profiler report")
	}
}
