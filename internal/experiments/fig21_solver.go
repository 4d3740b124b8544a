package experiments

import (
	"fmt"
	"time"

	"shardmanager/internal/metrics"

	"shardmanager/internal/sim"
	"shardmanager/internal/solver"
)

// SolverScaleParams configure the Fig 21 allocator-scalability stress test.
// The paper's setup (§8.4): a snapshot of a production ZippyDB deployment,
// balancing storage, CPU, and shard count; shard loads vary 20x; server
// storage capacity varies up to 20%; violations are utilization > 90% or
// utilization > mean + 10%; the initial state is a random assignment.
type SolverScaleParams struct {
	// Scales lists (servers, shards) problem sizes.
	Scales [][2]int
	Seed   uint64
}

// evalTime maps a candidate-evaluation count onto the curve time axis
// (1 evaluation ≡ 1µs). Keying progress points by evaluation count instead
// of wall clock makes two runs with the same seed produce identical curves;
// the µs encoding just reuses the metrics.Point time axis.
func evalTime(evals int) time.Duration { return time.Duration(evals) * time.Microsecond }

// DefaultSolverScaleParams mirror the paper's three problem sizes.
func DefaultSolverScaleParams() SolverScaleParams {
	return SolverScaleParams{
		Scales: [][2]int{{1000, 75000}, {3000, 225000}, {5000, 375000}},
		Seed:   1,
	}
}

// zippyProblem builds a ZippyDB-like placement problem with a random
// initial assignment. With geo set, servers span many regions and a large
// minority of shards carry region preferences — the placement features that
// make domain-guided sampling matter (§5.3; Fig 22's ablation uses it).
func zippyProblem(rng *sim.RNG, servers, shards int, geo bool) *solver.Problem {
	const geoRegions = 24
	// The metrics are CPU, storage and shard count, in that order: the
	// solver's cold bias and big-first ordering read metric 0.
	p := solver.NewProblem(3)
	for i := 0; i < servers; i++ {
		// Heterogeneous hardware: storage capacity varies up to 20%.
		storageCap := 1000 * (1 + 0.2*rng.Float64())
		// A bucket's domain is its hardware class, or its region in the geo
		// variant.
		b := solver.Bucket{Capacity: units(100, storageCap, 1000), Domain: fmt.Sprintf("g%d", i%8)}
		if geo {
			b.Domain = fmt.Sprintf("region%02d", i%geoRegions)
		}
		p.AddBucket(b)
	}
	// Shard load varies 20x between the smallest and largest shard.
	// Average the totals to ~55% mean utilization so the 90%-cap and
	// mean+10% rules are satisfiable but violated by a random start. The
	// geo variant runs hotter (72%): with most servers near the balance
	// band, blind sampling mostly proposes targets that are already warm,
	// which is exactly the regime where sampling *underutilized* servers
	// per group pays off (§5.3).
	meanUtil := 0.55
	if geo {
		meanUtil = 0.72
	}
	baseStorage := float64(servers) * 1100 * meanUtil / float64(shards)
	baseCPU := float64(servers) * 100 * meanUtil / float64(shards)
	for i := 0; i < shards; i++ {
		skew := 0.1 + 1.9*rng.Float64() // 20x spread around the mean
		e := solver.Entity{
			Load:    units(baseCPU*skew, baseStorage*skew, 1),
			Bucket:  solver.BucketID(rng.Intn(servers)),
			Movable: true,
			Group:   -1,
		}
		if geo && i%5 == 0 {
			// A fifth of shards dictate a regional placement
			// preference (§2.2.4: 33% of geo-distributed server
			// usage is preference-driven).
			e.Prefer, e.PreferWeight = fmt.Sprintf("region%02d", rng.Intn(geoRegions)), 20
		}
		p.AddEntity(e)
	}
	// A shard-count capacity of 1000 is never reached: the count is balanced,
	// not bounded.
	p.Balance = []solver.BalanceRule{
		{UtilCap: 0.9, MaxDiff: 0.1, Weight: 1},
		{UtilCap: 0.9, MaxDiff: 0.1, Weight: 1},
		{MaxDiff: 0.15, Weight: 0.5},
	}
	return p
}

// units quantizes one load or capacity per metric (solver.Quantize).
func units(vs ...float64) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = solver.Quantize(v)
	}
	return out
}

// Fig21 regenerates Figure 21: violations-vs-time curves at three problem
// sizes, with total solve times. The paper reports 30s for 75K shards and
// 205s for 375K (6.8x for 5x size) on production hardware; the shape that
// must hold is sub-~1.5x-superlinear growth and a final count at the floor
// (solver.Result.Floor), which is zero on these worlds.
func Fig21(params SolverScaleParams) *Report {
	r := &Report{
		ID:    "fig21",
		Title: "SM allocator scalability w.r.t. problem size",
		Params: map[string]string{
			"scales": fmt.Sprint(params.Scales),
			"seed":   fmt.Sprint(params.Seed),
		},
	}
	t := Table{
		Title:   "solve summary",
		Columns: []string{"servers", "shards", "initial violations", "final violations", "floor", "moves", "solve time"},
	}
	var firstTime, lastTime time.Duration
	var firstSize, lastSize int
	atFloor := true
	for _, scale := range params.Scales {
		servers, shards := scale[0], scale[1]
		rng := sim.NewRNG(params.Seed)
		p := zippyProblem(rng, servers, shards, false)
		curve := Curve{Name: fmt.Sprintf("%dK shards on %dK servers", shards/1000, servers/1000), Unit: "violations"}
		opt := solver.Options{Seed: params.Seed}
		opt.Progress = func(pi solver.ProgressInfo) {
			curve.Points = append(curve.Points, point(evalTime(pi.Evaluated), float64(pi.Violations.Total())))
		}
		res := solver.Solve(p, opt)
		curve.Points = append(curve.Points, point(evalTime(res.Evaluated), float64(res.Final.Total())))
		r.Curves = append(r.Curves, curve)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(servers), fmt.Sprint(shards),
			fmt.Sprint(res.Initial.Total()), fmt.Sprint(res.Final.Total()), fmt.Sprint(res.Floor.Total()),
			fmt.Sprint(len(res.Moves)), res.Elapsed.Truncate(time.Millisecond).String(),
		})
		atFloor = atFloor && res.Final == res.Floor
		if firstTime == 0 {
			firstTime, firstSize = res.Elapsed, shards
		}
		lastTime, lastSize = res.Elapsed, shards
	}
	r.Tables = append(r.Tables, t)
	if firstTime > 0 {
		r.AddNote("solve time grew %.1fx for a %.0fx problem-size increase (paper: 6.8x for 5x)",
			float64(lastTime)/float64(firstTime), float64(lastSize)/float64(firstSize))
	}
	if atFloor {
		r.AddNote("final violations reach the floor at every scale (paper: allocator fixes all violations in all stress tests)")
	} else {
		r.AddNote("final violations stay above the floor at some scale (paper: allocator fixes all violations in all stress tests)")
	}
	return r
}

// SolverAblationParams configure Fig 22.
type SolverAblationParams struct {
	Servers, Shards int
	Seed            uint64
}

// DefaultSolverAblationParams scale the paper's 75K-shard comparison to a
// size where convergence is reachable in seconds on commodity hardware (the
// structure — 24 regions, region preferences, hot servers — is preserved).
func DefaultSolverAblationParams() SolverAblationParams {
	return SolverAblationParams{Servers: 600, Shards: 45000, Seed: 1}
}

// Fig22 regenerates Figure 22: the domain-knowledge sampling optimization
// (§5.3 item 4) against a random-sampling baseline (Options.Uniform). The
// paper's claims are that without the optimization the solver cannot finish
// in its 300s budget and the solution needs 22% more shard moves; the
// reproduced shape is "baseline is slower to fix violations and moves more
// shards". Both arms draw one candidate per region (24), so the comparison
// isolates where candidates come from, not how many there are.
func Fig22(params SolverAblationParams) *Report {
	r := &Report{
		ID:    "fig22",
		Title: "Optimizations help scale the constraint solver (grouped sampling ablation)",
		Params: map[string]string{
			"servers": fmt.Sprint(params.Servers),
			"shards":  fmt.Sprint(params.Shards),
		},
	}
	t := Table{
		Title:   "variant comparison",
		Columns: []string{"variant", "final violations", "moves", "evaluations", "evals to fix 90%", "solve time", "floor"},
	}
	var fixes, moves []int
	for _, arm := range []struct {
		name    string
		uniform bool
	}{
		{"optimized (grouped, utilization-aware sampling)", false},
		{"baseline (uniform random sampling)", true},
	} {
		rng := sim.NewRNG(params.Seed)
		p := zippyProblem(rng, params.Servers, params.Shards, true)
		opt := solver.Options{Seed: params.Seed, Uniform: arm.uniform}
		curve := Curve{Name: arm.name, Unit: "violations"}
		opt.Progress = func(pi solver.ProgressInfo) {
			curve.Points = append(curve.Points, point(evalTime(pi.Evaluated), float64(pi.Violations.Total())))
		}
		res := solver.Solve(p, opt)
		curve.Points = append(curve.Points, point(evalTime(res.Evaluated), float64(res.Final.Total())))
		r.Curves = append(r.Curves, curve)
		fix := int(timeToFix(curve.Points, res.Initial.Total(), 0.9) / time.Microsecond)
		t.Rows = append(t.Rows, []string{
			arm.name, fmt.Sprint(res.Final.Total()), fmt.Sprint(len(res.Moves)),
			fmt.Sprint(res.Evaluated), fmt.Sprint(fix),
			res.Elapsed.Truncate(time.Millisecond).String(), fmt.Sprint(res.Floor.Total()),
		})
		fixes, moves = append(fixes, fix), append(moves, len(res.Moves))
	}
	r.Tables = append(r.Tables, t)
	r.AddNote("evaluations to fix 90%% of violations: optimized %d vs baseline %d", fixes[0], fixes[1])
	if moves[0] > 0 {
		r.AddNote("baseline used %.0f%% more shard moves (paper: 22%% more)",
			100*(float64(moves[1])/float64(moves[0])-1))
	}
	return r
}

// timeToFix returns the curve position at which the violation curve first
// dropped to (1-frac) of initial, or the last point's position if it never
// did. With evaluation-keyed curves the returned Duration encodes an
// evaluation count (1µs ≡ 1 evaluation).
func timeToFix(pts []metrics.Point, initial int, frac float64) time.Duration {
	target := float64(initial) * (1 - frac)
	for _, p := range pts {
		if p.V <= target {
			return p.T
		}
	}
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].T
}
