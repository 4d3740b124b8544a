package solver

import (
	"fmt"
	"testing"

	"shardmanager/internal/sim"
)

// scaleProblem builds a ZippyDB-like problem (mirroring the experiments
// package's workload, rebuilt locally to keep the solver package
// dependency-free): heterogeneous buckets in 8 domains, 20x shard-load
// spread, capacity constraints plus utilization-band balance goals, and a
// random initial assignment. The metrics are CPU, storage and shard count, in
// that order: the target draw's cold bias and big-first read CPU.
func scaleProblem(rng *sim.RNG, buckets, entities int) *Problem {
	p := NewProblem(3)
	for i := 0; i < buckets; i++ {
		storageCap := 1000 * (1 + 0.2*rng.Float64())
		p.AddBucket(Bucket{
			Capacity: units(100, storageCap, 1000),
			Domain:   fmt.Sprintf("g%d", i%8),
		})
	}
	baseStorage := float64(buckets) * 1100 * 0.55 / float64(entities)
	baseCPU := float64(buckets) * 100 * 0.55 / float64(entities)
	for i := 0; i < entities; i++ {
		skew := 0.1 + 1.9*rng.Float64()
		p.AddEntity(Entity{
			Load:    units(baseCPU*skew, baseStorage*skew, 1),
			Bucket:  BucketID(rng.Intn(buckets)),
			Movable: true,
			Group:   -1,
		})
	}
	p.Balance = []BalanceRule{
		{UtilCap: 0.9, MaxDiff: 0.1, Weight: 1},
		{UtilCap: 0.9, MaxDiff: 0.1, Weight: 1},
		{MaxDiff: 0.15, Weight: 0.5},
	}
	return p
}

// BenchmarkSolveScale is the tentpole perf target: ~100k entities on 5k
// buckets, seed 1. The pre-fast-path solver took ~756ms per
// solve on this workload; the acceptance bar is >=5x faster.
func BenchmarkSolveScale(b *testing.B) {
	const buckets, entities = 5000, 100000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := scaleProblem(sim.NewRNG(1), buckets, entities)
		b.StartTimer()
		res := Solve(p, Options{Seed: 1})
		if res.Final.Total() != 0 {
			b.Fatalf("solve left %d violations", res.Final.Total())
		}
		b.ReportMetric(float64(res.Evaluated), "evals/op")
	}
}

// replicatedProblem builds the problem the allocator states for the bench's
// lb_churn workload at its balance stage, which scaleProblem lacks every
// group-keyed part of: 300 buckets in 3 regions, 6,000 groups of 2 entities
// under the bucket rule and a spread over the regions, a region preference on a
// third of the groups, 20x load spread, and a random initial assignment that
// keeps the bucket rule.
func replicatedProblem(rng *sim.RNG) *Problem {
	const buckets, groups, replicas, regions = 300, 6000, 2, 3
	p := NewProblem(2)
	for i := 0; i < buckets; i++ {
		p.AddBucket(Bucket{Capacity: units(100, 80), Domain: fmt.Sprintf("r%d", i%regions)})
	}
	baseCPU := buckets * 100 * 0.55 / (groups * replicas)
	for g := 0; g < groups; g++ {
		load := units(baseCPU*(0.1+1.9*rng.Float64()), 1)
		first := rng.Intn(buckets)
		for r := 0; r < replicas; r++ {
			e := Entity{
				Load:    load,
				Bucket:  BucketID((first + r*(1+rng.Intn(buckets-1))) % buckets),
				Movable: true,
				Group:   int32(g),
			}
			if g%3 == 0 {
				e.Prefer, e.PreferWeight = fmt.Sprintf("r%d", g%regions), 200
			}
			p.AddEntity(e)
		}
	}
	rule := BalanceRule{UtilCap: 0.9, MaxDiff: 0.1, Weight: 1}
	p.Balance = []BalanceRule{rule, rule}
	p.SpreadWeight = 100
	p.DrainWeight = 500
	return p
}

// BenchmarkSolveReplicated drives the code an allocation of replicated shards
// spends its time in — building the state with its grouping, then the bucket
// rule and spread checks on every candidate — and reports the
// evaluations per solve and the cost of each, state build included. The
// budget=30 case spends lb_churn's move cap (the allocator's MaxTotalMoves)
// as the search's move budget. The settled case solves the world to
// convergence once, then times a Solve of the converged placement: what a
// periodic stage that finds nothing to move costs.
func BenchmarkSolveReplicated(b *testing.B) {
	solve := func(p *Problem, budget int) *Result {
		return Solve(p, Options{Seed: 1, MoveBudget: budget})
	}
	var settled []BucketID
	for _, tc := range []struct {
		name    string
		budget  int
		settled bool
	}{{"budget=0", 0, false}, {"budget=30", 30, false}, {"settled", 0, true}} {
		b.Run(tc.name, func(b *testing.B) {
			if tc.settled && settled == nil {
				p := replicatedProblem(sim.NewRNG(1))
				solve(p, 0)
				for _, e := range p.Entities {
					settled = append(settled, e.Bucket)
				}
			}
			b.ReportAllocs()
			evals, moves := 0, 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := replicatedProblem(sim.NewRNG(1))
				if tc.settled {
					for e, bk := range settled {
						p.Entities[e].Bucket, p.Entities[e].Home = bk, bk
					}
				}
				b.StartTimer()
				res := solve(p, tc.budget)
				if res.Final.Conflict != 0 || res.Final.Unassigned != 0 {
					b.Fatalf("solve left %+v", res.Final)
				}
				evals += res.Evaluated
				moves += len(res.Moves)
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
			b.ReportMetric(float64(moves)/float64(b.N), "moves/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evals), "ns/eval")
		})
	}
}

// BenchmarkMoveDelta measures the hot loop's evaluation of one (entity,
// target) pair in isolation; its contract is zero allocations per evaluation
// (see TestMoveDeltaAllocFree).
func BenchmarkMoveDelta(b *testing.B) {
	p := scaleProblem(sim.NewRNG(1), 500, 10000)
	st := newState(p)
	rng := sim.NewRNG(2)
	n := len(p.Entities)
	nb := len(p.Buckets)
	pr := newPrepared(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.prepare(&pr, EntityID(rng.Intn(n)))
		st.evalTarget(&pr, BucketID(rng.Intn(nb)))
	}
}
