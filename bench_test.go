// Package shardmanager's top-level benchmarks regenerate every table and
// figure of the paper at quick scale — one benchmark per experiment — plus
// microbenchmarks of the performance-critical paths (the solver's move
// evaluation and the allocator). Run the full-parameter versions with
// cmd/smbench.
//
//	go test -bench=. -benchmem
package shardmanager

import (
	"fmt"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/experiments"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/simprof"
	"shardmanager/internal/solver"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, experiments.RunConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if r == nil || r.ID == "" {
			b.Fatal("empty report")
		}
	}
}

// --- one bench per paper table/figure ---

func BenchmarkFig01PlannedVsUnplanned(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFig02AdoptionGrowth(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig04Demographics(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig05Deployments(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig06Replication(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig07LoadBalancing(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig08DrainPolicies(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig09StorageMachines(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig15ApplicationScale(b *testing.B)   { benchExperiment(b, "fig15") }
func BenchmarkFig16MiniSMScale(b *testing.B)        { benchExperiment(b, "fig16") }
func BenchmarkFig17Availability(b *testing.B)       { benchExperiment(b, "fig17") }
func BenchmarkFig18ProductionTrace(b *testing.B)    { benchExperiment(b, "fig18") }
func BenchmarkFig19GeoFailover(b *testing.B)        { benchExperiment(b, "fig19") }
func BenchmarkFig20DBShardFollowing(b *testing.B)   { benchExperiment(b, "fig20") }
func BenchmarkFig23ContinuousLB(b *testing.B)       { benchExperiment(b, "fig23") }

// Fig 21/22 are solver stress tests; the quick registry entries are still
// multi-second, so bench tighter configurations here and leave the full sweep
// to smbench.

func BenchmarkFig21SolverScale(b *testing.B) {
	p := experiments.DefaultSolverScaleParams()
	p.Scales = [][2]int{{200, 15000}}
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig21(p); r == nil {
			b.Fatal("nil report")
		}
	}
}

func BenchmarkFig22SolverAblation(b *testing.B) {
	p := experiments.DefaultSolverAblationParams()
	p.Servers, p.Shards = 200, 15000
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig22(p); r == nil {
			b.Fatal("nil report")
		}
	}
}

func makeBenchServers(rng *sim.RNG, n int) []allocator.ServerInfo {
	out := make([]allocator.ServerInfo, n)
	for i := range out {
		region := fmt.Sprintf("region%d", i%3)
		out[i] = allocator.ServerInfo{
			ID: shard.ServerID(fmt.Sprintf("srv%04d", i)),
			Domains: map[string]string{
				"region": region,
				"rack":   fmt.Sprintf("%s/rack%02d", region, i%8),
			},
			Capacity: topology.Capacity{
				topology.ResourceCPU:        100,
				topology.ResourceShardCount: 1000,
			},
			Alive: true,
		}
	}
	return out
}

func makeBenchShards(rng *sim.RNG, n int) []allocator.ShardSpec {
	out := make([]allocator.ShardSpec, n)
	for i := range out {
		out[i] = allocator.ShardSpec{
			ID:       shard.ID(fmt.Sprintf("s%05d", i)),
			Replicas: 2,
			Load: topology.Capacity{
				topology.ResourceCPU:        0.2 + 2*rng.Float64(),
				topology.ResourceShardCount: 1,
			},
		}
	}
	return out
}

// --- microbenchmarks of the hot paths ---

// BenchmarkSolverMoveEvaluation measures raw local-search throughput:
// candidate evaluations per second on a mid-size problem.
func BenchmarkSolverMoveEvaluation(b *testing.B) {
	rng := sim.NewRNG(1)
	p := solver.NewProblem(1)
	for i := 0; i < 500; i++ {
		p.AddBucket(solver.Bucket{
			Capacity: []int64{solver.Quantize(100)},
			Domain:   fmt.Sprintf("g%d", i%4),
		})
	}
	for i := 0; i < 20000; i++ {
		p.AddEntity(solver.Entity{
			Load:    []int64{solver.Quantize(0.2 + 4*rng.Float64())},
			Bucket:  solver.BucketID(rng.Intn(500)),
			Movable: true,
			Group:   -1,
		})
	}
	p.Balance = []solver.BalanceRule{{UtilCap: 0.9, MaxDiff: 0.1, Weight: 1}}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		res := solver.Solve(p, solver.Options{Seed: uint64(i + 1), EvalBudget: 50_000})
		total += res.Evaluated
	}
	b.ReportMetric(float64(total)/float64(b.N), "evals/op")
}

// BenchmarkTracingOverhead measures the cost the tracing layer adds to a
// routed request workload on a live deployment — with tracing disabled (the
// default nil tracer) and enabled. The disabled case should be within noise
// of the pre-tracing baseline.
func BenchmarkTracingOverhead(b *testing.B) {
	const nShards = 50
	run := func(b *testing.B, tr *trace.Tracer) {
		backing := apps.NewKVBacking()
		d := experiments.Build(experiments.DeploymentSpec{
			Regions:          []topology.RegionID{"west", "east"},
			ServersPerRegion: 4,
			Orch: orchestrator.Config{
				App:      "benchkv",
				Strategy: shard.PrimarySecondary,
				Shards: experiments.UniformShardConfigs(nShards, 2, topology.Capacity{
					topology.ResourceCPU:        1,
					topology.ResourceShardCount: 1,
				}),
				Policy: allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount),
				ServerCapacity: topology.Capacity{
					topology.ResourceCPU:        100,
					topology.ResourceShardCount: 2 * nShards,
				},
			},
			AppFactory: func(s *appserver.Server) appserver.Application {
				return apps.NewKVStore(s, backing)
			},
			Tracer: tr,
			Seed:   1,
		})
		if err := d.Settle(10 * time.Minute); err != nil {
			b.Fatal(err)
		}
		ks := experiments.KeyspaceFor(nShards)
		client := d.NewClient("west", ks, routing.DefaultOptions())
		for i := 0; i < 30 && client.MapVersion() == 0; i++ {
			d.Loop.RunFor(time.Second) // wait out initial shard-map propagation
		}
		if client.MapVersion() == 0 {
			b.Fatal("client never received a shard map")
		}
		rng := d.Loop.RNG().Fork()
		request := func() {
			var got *routing.Result
			client.Do(experiments.KeyForShard(rng.Intn(nShards)), false, apps.KVOpScan, nil,
				func(res routing.Result) { got = &res })
			for i := 0; i < 30 && got == nil; i++ {
				d.Loop.RunFor(time.Second)
			}
			if got == nil || !got.OK {
				b.Fatalf("request failed: %+v", got)
			}
		}
		request() // warmup
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			request()
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, trace.New()) })
}

// BenchmarkProfilerOverhead measures what the kernel profiler adds to one
// schedule+dispatch cycle. The disabled cases (no profiler attached) are the
// tier-1 bar: a labeled event must cost the same as an unlabeled one — no
// extra allocations, the label check is a single nil-pointer test.
func BenchmarkProfilerOverhead(b *testing.B) {
	lb := sim.LabelFor("bench", "tick")
	run := func(b *testing.B, labeled bool, p sim.Profiler) {
		l := sim.NewLoop(1)
		if p != nil {
			l.SetProfiler(p)
		}
		fn := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if labeled {
				l.AfterL(time.Microsecond, lb, fn)
			} else {
				l.AfterL(time.Microsecond, 0, fn)
			}
			if !l.Step() {
				b.Fatal("empty loop")
			}
		}
	}
	b.Run("disabled-unlabeled", func(b *testing.B) { run(b, false, nil) })
	b.Run("disabled-labeled", func(b *testing.B) { run(b, true, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, true, simprof.New(simprof.Options{})) })
	b.Run("enabled-allocs", func(b *testing.B) { run(b, true, simprof.New(simprof.Options{Allocs: true})) })
}

// BenchmarkAllocatorEmergency measures the latency-critical path: replacing
// a failed server's replicas.
func BenchmarkAllocatorEmergency(b *testing.B) {
	rng := sim.NewRNG(1)
	servers := makeBenchServers(rng, 100)
	shards := makeBenchShards(rng, 3000)
	a := allocator.New(allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount), 1)
	// The initial placement starts from nothing, so its moves are all adds.
	current := map[shard.ID][]shard.ServerID{}
	initial := a.Run(allocator.Input{Servers: servers, Shards: shards, Current: current}, allocator.Periodic)
	for _, m := range initial.Moves {
		current[m.Shard] = append(current[m.Shard], m.To)
	}
	servers[0].Alive = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := a.Run(allocator.Input{Servers: servers, Shards: shards,
			Current: current}, allocator.Emergency)
		if res.Final.Unassigned != 0 {
			b.Fatalf("unassigned: %+v", res.Final)
		}
	}
}
