package solver

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"shardmanager/internal/sim"
)

// buildBalanced builds nBuckets buckets of capacity 100 (single metric
// "cpu") and nEntities entities of the given load, all initially on bucket
// 0 (maximally imbalanced).
func buildSkewed(nBuckets, nEntities int, load float64) *Problem {
	p := NewProblem([]string{"cpu"})
	for i := 0; i < nBuckets; i++ {
		p.AddBucket(Bucket{
			Name:     fmt.Sprintf("b%d", i),
			Capacity: []float64{100},
			Props:    map[string]string{"region": fmt.Sprintf("r%d", i%2)},
			Group:    fmt.Sprintf("r%d", i%2),
		})
	}
	for i := 0; i < nEntities; i++ {
		p.AddEntity(Entity{
			Load:    []float64{load},
			Bucket:  0,
			Movable: true,
		})
	}
	return p
}

func TestSolveBalancesLoad(t *testing.T) {
	// 40 entities x 10 load on one of 8 buckets: bucket 0 holds 400/100.
	p := buildSkewed(8, 40, 10)
	p.AddConstraint(CapacitySpec{Metric: "cpu"})
	p.AddBalanceGoal(BalanceSpec{Metric: "cpu", UtilCap: 0.9, MaxDiff: 0.1, Weight: 1})
	res := Solve(p, DefaultOptions())
	if res.Initial.Total() == 0 {
		t.Fatal("initial state should violate")
	}
	if res.Final.Capacity != 0 || res.Final.Balance != 0 {
		t.Fatalf("final violations = %+v", res.Final)
	}
	// Mean utilization is 0.5; no bucket may exceed 0.6 (MaxDiff 0.1).
	st := newState(p)
	for b := range p.Buckets {
		u := st.bucketLoad[b][0] / 100
		if u > 0.6+1e-9 {
			t.Fatalf("bucket %d utilization %.2f > 0.6", b, u)
		}
	}
}

func TestSolveRespectsHardCapacity(t *testing.T) {
	// 2 buckets: one tiny (cap 10), one large. 5 entities of load 10 on
	// the large bucket; moving more than one to the tiny bucket would
	// overflow it.
	p := NewProblem([]string{"cpu"})
	big := p.AddBucket(Bucket{Name: "big", Capacity: []float64{100}})
	p.AddBucket(Bucket{Name: "tiny", Capacity: []float64{10}})
	for i := 0; i < 5; i++ {
		p.AddEntity(Entity{Load: []float64{10}, Bucket: big, Movable: true})
	}
	p.AddConstraint(CapacitySpec{Metric: "cpu"})
	p.AddBalanceGoal(BalanceSpec{Metric: "cpu", MaxDiff: 0.01, Weight: 1})
	res := Solve(p, DefaultOptions())
	st := newState(p)
	if st.bucketLoad[1][0] > 10 {
		t.Fatalf("tiny bucket overloaded: %v", st.bucketLoad[1][0])
	}
	if res.Final.Capacity != 0 {
		t.Fatalf("capacity violations: %+v", res.Final)
	}
}

func TestSolvePlacesUnassignedEntities(t *testing.T) {
	p := NewProblem([]string{"cpu"})
	for i := 0; i < 4; i++ {
		p.AddBucket(Bucket{Name: fmt.Sprintf("b%d", i), Capacity: []float64{100}})
	}
	for i := 0; i < 20; i++ {
		p.AddEntity(Entity{Load: []float64{5}, Bucket: Unassigned, Movable: true})
	}
	p.AddConstraint(CapacitySpec{Metric: "cpu"})
	p.AddBalanceGoal(BalanceSpec{Metric: "cpu", UtilCap: 0.9, Weight: 1})
	res := Solve(p, DefaultOptions())
	if res.Initial.Unassigned != 20 {
		t.Fatalf("initial unassigned = %d", res.Initial.Unassigned)
	}
	if res.Final.Unassigned != 0 {
		t.Fatalf("final unassigned = %d", res.Final.Unassigned)
	}
	for i := range p.Entities {
		if p.Entities[i].Bucket == Unassigned {
			t.Fatalf("entity %d still unassigned", i)
		}
	}
}

func TestSolveHonorsAffinity(t *testing.T) {
	p := buildSkewed(8, 16, 10)
	p.AddConstraint(CapacitySpec{Metric: "cpu"})
	p.AddBalanceGoal(BalanceSpec{Metric: "cpu", UtilCap: 0.9, MaxDiff: 0.2, Weight: 1})
	// Entities 0..7 prefer region r1 (odd buckets).
	for i := 0; i < 8; i++ {
		p.AddAffinityGoal(AffinityGoal{Scope: "region", Entity: EntityID(i), Domain: "r1", Weight: 5})
	}
	res := Solve(p, DefaultOptions())
	if res.Final.Affinity != 0 {
		t.Fatalf("affinity violations = %d", res.Final.Affinity)
	}
	for i := 0; i < 8; i++ {
		b := p.Entities[i].Bucket
		if p.Buckets[b].Props["region"] != "r1" {
			t.Fatalf("entity %d on region %s", i, p.Buckets[b].Props["region"])
		}
	}
}

func TestSolveSpreadsReplicas(t *testing.T) {
	// 3 replicas per group, 6 buckets across 3 regions; exclusion at
	// region scope should land each group's replicas in distinct regions.
	p := NewProblem([]string{"cpu"})
	for i := 0; i < 6; i++ {
		p.AddBucket(Bucket{
			Name:     fmt.Sprintf("b%d", i),
			Capacity: []float64{100},
			Props:    map[string]string{"region": fmt.Sprintf("r%d", i%3)},
		})
	}
	var groups []int32
	for g := 0; g < 5; g++ {
		for r := 0; r < 3; r++ {
			p.AddEntity(Entity{
				Load:    []float64{1},
				Bucket:  0, // all colocated initially
				Movable: true,
			})
			groups = append(groups, int32(g))
		}
	}
	p.AddConstraint(CapacitySpec{Metric: "cpu"})
	p.AddExclusionGoal(ExclusionSpec{Scope: "region", Group: groups, NumGroups: 5, Weight: 10})
	res := Solve(p, DefaultOptions())
	if res.Final.Exclusion != 0 {
		t.Fatalf("exclusion violations = %d (initial %d)", res.Final.Exclusion, res.Initial.Exclusion)
	}
	// Verify each group touches 3 distinct regions.
	perGroup := make(map[int32]map[string]bool)
	for id, g := range groups {
		b := p.Entities[id].Bucket
		if perGroup[g] == nil {
			perGroup[g] = map[string]bool{}
		}
		perGroup[g][p.Buckets[b].Props["region"]] = true
	}
	for g, regions := range perGroup {
		if len(regions) != 3 {
			t.Fatalf("group %d spans %d regions", g, len(regions))
		}
	}
}

func TestSolveDrainsMarkedBuckets(t *testing.T) {
	p := NewProblem([]string{"cpu"})
	draining := p.AddBucket(Bucket{Name: "draining", Capacity: []float64{100}, Draining: true})
	p.AddBucket(Bucket{Name: "ok1", Capacity: []float64{100}})
	p.AddBucket(Bucket{Name: "ok2", Capacity: []float64{100}})
	for i := 0; i < 10; i++ {
		p.AddEntity(Entity{Load: []float64{5}, Bucket: draining, Movable: true})
	}
	p.AddConstraint(CapacitySpec{Metric: "cpu"})
	p.AddDrainGoal(10)
	res := Solve(p, DefaultOptions())
	if res.Final.Drain != 0 {
		t.Fatalf("drain violations = %d", res.Final.Drain)
	}
}

func TestPinnedEntitiesNeverMove(t *testing.T) {
	p := buildSkewed(4, 10, 10)
	p.Entities[0].Movable = false
	p.AddConstraint(CapacitySpec{Metric: "cpu"})
	p.AddBalanceGoal(BalanceSpec{Metric: "cpu", MaxDiff: 0.05, Weight: 1})
	res := Solve(p, DefaultOptions())
	for _, m := range res.Moves {
		if m.Entity == 0 {
			t.Fatal("pinned entity moved")
		}
	}
	if p.Entities[0].Bucket != 0 {
		t.Fatal("pinned entity reassigned")
	}
}

func TestSolveDeterministicForSeed(t *testing.T) {
	run := func() []Move {
		p := buildSkewed(8, 40, 10)
		p.AddConstraint(CapacitySpec{Metric: "cpu"})
		p.AddBalanceGoal(BalanceSpec{Metric: "cpu", UtilCap: 0.9, MaxDiff: 0.1, Weight: 1})
		return Solve(p, DefaultOptions()).Moves
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("move counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("move %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDomainScopedCapacity(t *testing.T) {
	// Rack-scoped network capacity (Fig 13 statement 2): two buckets per
	// rack, each with network capacity 10; rack capacity is 20. Six
	// entities of load 5 would fit per-bucket (2x10... no: 3 entities
	// of 5 on one rack = 15 < 20 fits; 5 entities = 25 > 20 must spill).
	p := NewProblem([]string{"net"})
	for i := 0; i < 4; i++ {
		p.AddBucket(Bucket{
			Name:     fmt.Sprintf("b%d", i),
			Capacity: []float64{10},
			Props:    map[string]string{"rack": fmt.Sprintf("rk%d", i/2)},
		})
	}
	for i := 0; i < 6; i++ {
		p.AddEntity(Entity{Load: []float64{5}, Bucket: Unassigned, Movable: true})
	}
	p.AddConstraint(CapacitySpec{Metric: "net", Scope: "rack"})
	res := Solve(p, DefaultOptions())
	if res.Final.Unassigned != 0 || res.Final.Capacity != 0 {
		t.Fatalf("final = %+v", res.Final)
	}
	// Each rack holds at most 4 entities (4*5=20).
	rack := map[string]float64{}
	for i := range p.Entities {
		b := p.Entities[i].Bucket
		rack[p.Buckets[b].Props["rack"]] += 5
	}
	for r, load := range rack {
		if load > 20 {
			t.Fatalf("rack %s load %v > 20", r, load)
		}
	}
}

// TestCandidateEntitiesCarryingFirst pins what a hot bucket offers the search:
// its movable entities that carry penalty (not inert), then its inert ones,
// each part largest Load[0] first with ties broken by ID, cut to
// maxEntitiesPerBucket only after that partition, and each prepared into
// c.preps in the order offered. Inertness is judged afresh on every attempt: a
// move between two other buckets of the bucket's region makes an entity carry
// or stop carrying. Once the move budget is spent the entities at home drop
// out; a move home returns a unit and brings them back, and a move away
// spends it again.
func TestCandidateEntitiesCarryingFirst(t *testing.T) {
	p := NewProblem([]string{"cpu"})
	p.AddBucket(Bucket{Name: "b0", Capacity: []float64{1000}, Props: map[string]string{"region": "r0"}})
	p.AddBucket(Bucket{Name: "b1", Capacity: []float64{1000}, Props: map[string]string{"region": "r0"}})
	p.AddBucket(Bucket{Name: "b2", Capacity: []float64{1000}, Props: map[string]string{"region": "r1"}})
	// 24 entities on b0 with loads 1–5 (so ties), every sixth pinned; the
	// six with i%4 == 1 belong on b1, so they are away and spend the budget.
	// Entity 24+i is entity i's sibling in a region-scoped spread group: on
	// b1, in b0's region, it makes entity i carry; on b2 it leaves it inert.
	const n = 24
	group := make([]int32, 2*n)
	for i := 0; i < n; i++ {
		e := p.AddEntity(Entity{Load: []float64{float64(1 + i%5)}, Bucket: 0, Movable: i%6 != 0})
		if i%4 == 1 {
			p.Entities[e].Home = 1
		}
		group[i] = int32(i)
	}
	sibling := func(i EntityID) EntityID { return n + i }
	carrying := []EntityID{5, 10, 20, 23} // 5, 10 and 20 are among the smallest
	for i := 0; i < n; i++ {
		b := BucketID(2)
		if slices.Contains(carrying, EntityID(i)) {
			b = 1
		}
		p.AddEntity(Entity{Load: []float64{1}, Bucket: b, Movable: true})
		group[n+i] = int32(i)
	}
	p.AddExclusionGoal(ExclusionSpec{Scope: "region", Group: group, NumGroups: n, Weight: 1})

	// offered lists b0's movable entities the contract's way, judging each
	// with a fresh prepare.
	offered := func(c *solveCtx, skipHome bool) (carry, inert []EntityID) {
		pr := newPrepared(c.st)
		for _, e := range c.st.byBucket[0] {
			if ent := &p.Entities[e]; !ent.Movable || skipHome && ent.Home == 0 {
				continue
			}
			if c.st.prepare(&pr, e); pr.inert() {
				inert = append(inert, e)
			} else {
				carry = append(carry, e)
			}
		}
		for _, part := range [][]EntityID{carry, inert} {
			slices.SortFunc(part, func(a, b EntityID) int {
				if c := cmp.Compare(p.Entities[b].Load[0], p.Entities[a].Load[0]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
		}
		return carry, inert
	}
	want := func(c *solveCtx, skipHome bool) []EntityID {
		carry, inert := offered(c, skipHome)
		all := append(carry, inert...)
		return all[:min(len(all), maxEntitiesPerBucket)]
	}
	prepped := func(c *solveCtx, step string, got []EntityID) {
		t.Helper()
		pr := newPrepared(c.st)
		for i, e := range got {
			if c.st.prepare(&pr, e); !reflect.DeepEqual(c.preps[i], pr) {
				t.Fatalf("%s: preps[%d] is not candidate %d prepared", step, i, e)
			}
		}
	}
	// candidates runs candidateEntities on b0 and lists what it prepared.
	candidates := func(c *solveCtx) []EntityID {
		var ids []EntityID
		for i := range c.candidateEntities(0) {
			ids = append(ids, c.preps[i].e)
		}
		return ids
	}
	check := func(c *solveCtx, step string, want []EntityID) {
		t.Helper()
		got := candidates(c)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: candidates %v, want %v", step, got, want)
		}
		prepped(c, step, got)
	}

	opt := DefaultOptions()
	c := newSolveCtx(p, opt)
	carry, inert := offered(c, false)
	if !slices.Equal(carry, []EntityID{23, 5, 10, 20}) || len(carry)+len(inert) <= maxEntitiesPerBucket {
		t.Fatalf("world offers carrying %v and %d inert; it must overflow the cap with small carriers", carry, len(inert))
	}
	check(c, "no budget", want(c, false))
	// Moves between b1 and b2 touch neither b0 nor its cached list, yet 15
	// starts carrying and 23 stops.
	c.applyMove(sibling(15), 1)
	c.applyMove(sibling(23), 2)
	if carry, _ := offered(c, false); !slices.Equal(carry, []EntityID{5, 10, 15, 20}) {
		t.Fatalf("after the siblings' moves the carriers are %v", carry)
	}
	check(c, "siblings moved", want(c, false))

	opt.MoveBudget = 6
	c = newSolveCtx(p, opt)
	check(c, "budget spent", []EntityID{5, 9, 13, 17, 1, 21})
	c.applyMove(9, 1) // home: a unit returns
	check(c, "unit returned", want(c, false))
	c.applyMove(2, 1) // away from home: spent again
	check(c, "spent again", []EntityID{5, 13, 17, 1, 21})
	c.applyMove(sibling(17), 1)
	check(c, "spent, a sibling moved", []EntityID{17, 5, 13, 1, 21})

	// Without BigFirst the cap holds over a shuffled copy of the same list,
	// unpartitioned and prepared too.
	opt = DefaultOptions()
	opt.BigFirst = false
	c = newSolveCtx(p, opt)
	got := candidates(c)
	prepped(c, "shuffled", got)
	slices.Sort(got)
	if len(got) != maxEntitiesPerBucket || len(slices.Compact(got)) != len(got) {
		t.Fatalf("shuffled candidates %v: want %d distinct entities", got, maxEntitiesPerBucket)
	}
	for _, e := range got {
		if !p.Entities[e].Movable || c.st.assignment[e] != 0 {
			t.Fatalf("shuffled candidate %d is not a movable entity of b0", e)
		}
	}
}

// TestMeanUtilSummedInEntityOrder: the balance target includes unplaced load,
// and float addition is not associative — (1e16 + 1) + 1 is 1e16, 1e16 +
// (1 + 1) is not — so the sum must take the entities in one order on every
// build of one input.
func TestMeanUtilSummedInEntityOrder(t *testing.T) {
	p := NewProblem([]string{"cpu"})
	p.AddBucket(Bucket{Name: "b0", Capacity: []float64{1}})
	for _, l := range []float64{1e16, 1, 1} {
		p.AddEntity(Entity{Load: []float64{l}, Bucket: Unassigned, Movable: true})
	}
	p.AddBalanceGoal(BalanceSpec{Metric: "cpu", MaxDiff: 0.1, Weight: 1})
	want := math.Float64bits(newState(p).specs[0].meanUtil)
	for i := 1; i < 64; i++ {
		if got := math.Float64bits(newState(p).specs[0].meanUtil); got != want {
			t.Fatalf("build %d: meanUtil bits %x, build 0 had %x", i, got, want)
		}
	}
}

func TestViolationCountsTotal(t *testing.T) {
	v := ViolationCounts{Capacity: 1, Balance: 2, Affinity: 3, Exclusion: 4, Drain: 5, Unassigned: 6}
	if v.Total() != 21 {
		t.Fatalf("Total = %d", v.Total())
	}
}

func TestProgressCallbackInvoked(t *testing.T) {
	p := buildSkewed(8, 40, 10)
	p.AddConstraint(CapacitySpec{Metric: "cpu"})
	p.AddBalanceGoal(BalanceSpec{Metric: "cpu", MaxDiff: 0.1, Weight: 1})
	opt := DefaultOptions()
	n, last := 0, 0
	opt.Progress = func(pi ProgressInfo) {
		n++
		if pi.Evaluated < last {
			t.Errorf("evaluations went from %d down to %d", last, pi.Evaluated)
		}
		last = pi.Evaluated
	}
	Solve(p, opt)
	if n == 0 {
		t.Fatal("progress never invoked")
	}
}

func TestGroupedSamplerCoversAllGroups(t *testing.T) {
	p := buildSkewed(8, 1, 1)
	st := newState(p)
	view := &View{st: st}
	s := GroupedSampler(p, 0)
	rng := sim.NewRNG(1)
	got := s(rng, 0, 8, view)
	groups := map[string]bool{}
	for _, b := range got {
		groups[p.Buckets[b].Group] = true
	}
	if !groups["r0"] || !groups["r1"] {
		t.Fatalf("sampler missed a group: %v", groups)
	}
}

func TestGroupedSamplerCapsAtK(t *testing.T) {
	// 8 groups, one bucket each; k=3 must return exactly 3 candidates
	// (the old sampler returned len(groups) = 8), and successive calls
	// must rotate through the groups so all of them get covered.
	p := NewProblem([]string{"cpu"})
	for i := 0; i < 8; i++ {
		p.AddBucket(Bucket{
			Name:     fmt.Sprintf("b%d", i),
			Capacity: []float64{100},
			Group:    fmt.Sprintf("g%d", i),
		})
	}
	p.AddEntity(Entity{Load: []float64{1}, Bucket: 0, Movable: true})
	st := newState(p)
	view := &View{st: st}
	s := GroupedSampler(p, 0)
	rng := sim.NewRNG(1)
	covered := map[string]bool{}
	for call := 0; call < 4; call++ {
		got := s(rng, 0, 3, view)
		if len(got) != 3 {
			t.Fatalf("call %d returned %d candidates, want 3", call, len(got))
		}
		for _, b := range got {
			covered[p.Buckets[b].Group] = true
		}
	}
	// 4 calls x 3 candidates with rotation must touch more groups than a
	// single call's 3; with one bucket per group, rotation covers 8.
	if len(covered) != 8 {
		t.Fatalf("rotation covered %d groups over 4 calls, want 8", len(covered))
	}
}

func TestEvalBudgetRespected(t *testing.T) {
	run := func() *Result {
		p := buildSkewed(16, 200, 5)
		p.AddConstraint(CapacitySpec{Metric: "cpu"})
		p.AddBalanceGoal(BalanceSpec{Metric: "cpu", MaxDiff: 0.05, Weight: 1})
		opt := DefaultOptions()
		opt.EvalBudget = 500
		return Solve(p, opt)
	}
	res := run()
	// The budget is checked per fix attempt, so one attempt may overshoot
	// by its grid (maxEntitiesPerBucket * CandidateTargets).
	if res.Evaluated >= 500+maxEntitiesPerBucket*16+1 {
		t.Fatalf("evaluated %d, budget 500 overshot by more than one attempt", res.Evaluated)
	}
	unbudgeted := func() *Result {
		p := buildSkewed(16, 200, 5)
		p.AddConstraint(CapacitySpec{Metric: "cpu"})
		p.AddBalanceGoal(BalanceSpec{Metric: "cpu", MaxDiff: 0.05, Weight: 1})
		return Solve(p, DefaultOptions())
	}()
	if res.Evaluated >= unbudgeted.Evaluated {
		t.Fatalf("budgeted run evaluated %d >= unbudgeted %d", res.Evaluated, unbudgeted.Evaluated)
	}
	// Same seed, same budget -> identical stopping point.
	if again := run(); again.Evaluated != res.Evaluated || len(again.Moves) != len(res.Moves) {
		t.Fatalf("EvalBudget run not deterministic: %d/%d vs %d/%d evals/moves",
			res.Evaluated, len(res.Moves), again.Evaluated, len(again.Moves))
	}
}

func TestSolveMovesConserveEntitiesProperty(t *testing.T) {
	// Property: after solving a random instance, every entity is
	// assigned to a valid bucket and total load is conserved.
	if err := quick.Check(func(seed uint64) bool {
		r := sim.NewRNG(seed)
		nB := 2 + r.Intn(6)
		nE := 1 + r.Intn(30)
		p := NewProblem([]string{"cpu"})
		for i := 0; i < nB; i++ {
			p.AddBucket(Bucket{Name: fmt.Sprintf("b%d", i), Capacity: []float64{100}})
		}
		var total float64
		for i := 0; i < nE; i++ {
			l := 1 + float64(r.Intn(10))
			total += l
			p.AddEntity(Entity{Load: []float64{l}, Bucket: BucketID(r.Intn(nB)), Movable: true})
		}
		p.AddConstraint(CapacitySpec{Metric: "cpu"})
		p.AddBalanceGoal(BalanceSpec{Metric: "cpu", MaxDiff: 0.1, Weight: 1})
		opt := DefaultOptions()
		opt.Seed = seed
		Solve(p, opt)
		st := newState(p)
		var after float64
		for b := range p.Buckets {
			after += st.bucketLoad[b][0]
		}
		return after == total
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanics(t *testing.T) {
	p := NewProblem([]string{"cpu"})
	p.AddBucket(Bucket{Name: "b", Capacity: []float64{1}})
	for name, fn := range map[string]func(){
		"no metrics":      func() { NewProblem(nil) },
		"dup metrics":     func() { NewProblem([]string{"a", "a"}) },
		"bad bucket":      func() { p.AddBucket(Bucket{Name: "x", Capacity: []float64{1, 2}}) },
		"bad entity":      func() { p.AddEntity(Entity{Load: []float64{1, 2}}) },
		"bad assignment":  func() { p.AddEntity(Entity{Load: []float64{1}, Bucket: 99}) },
		"unknown metric":  func() { p.AddConstraint(CapacitySpec{Metric: "nope"}) },
		"balance weight":  func() { p.AddBalanceGoal(BalanceSpec{Metric: "cpu", UtilCap: 0.9}) },
		"balance no rule": func() { p.AddBalanceGoal(BalanceSpec{Metric: "cpu", Weight: 1}) },
		"affinity weight": func() { p.AddAffinityGoal(AffinityGoal{Entity: 0, Domain: "d"}) },
		"excl weight":     func() { p.AddExclusionGoal(ExclusionSpec{Scope: "r"}) },
		"drain weight":    func() { p.AddDrainGoal(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// freshCopy builds from nothing a problem stated as p now is: its buckets,
// its entities where they sit (with their Home), and its goals.
func freshCopy(p *Problem) *Problem {
	q := NewProblem(p.Metrics)
	for _, b := range p.Buckets {
		q.AddBucket(b)
	}
	for _, e := range p.Entities {
		id := q.AddEntity(Entity{Load: append([]float64(nil), e.Load...), Bucket: e.Bucket, Movable: e.Movable})
		q.Entities[id].Home = e.Home
	}
	for _, c := range p.capacitySpecs {
		q.AddConstraint(c)
	}
	for _, b := range p.balanceSpecs {
		q.AddBalanceGoal(b)
	}
	for _, g := range p.affinityGoals {
		q.AddAffinityGoal(g)
	}
	for _, x := range p.exclusionSpecs {
		q.AddExclusionGoal(x)
	}
	for _, c := range p.conflictSpecs {
		q.AddConflict(c)
	}
	if p.drainWeight > 0 {
		q.AddDrainGoal(p.drainWeight)
	}
	return q
}

// TestKeptStateSolvesAsAFreshOne: a problem solved in goal stages, then
// stated again — ClearGoals, its entities placed anew in place, its goals
// added again — and solved in stages again, gives at every Solve what a
// problem built from nothing with the same statement gives: the same moves,
// counts and evaluations, to the bit. The kept state, synced, is the state a
// fresh build makes.
func TestKeptStateSolvesAsAFreshOne(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := sim.NewRNG(seed)
		p := randomProblem(rng)
		all := freshCopy(p) // the goals, kept aside
		opt := DefaultOptions()
		opt.Seed = seed
		opt.MoveBudget = rng.Intn(4) // 0 is none
		solve := func(step string) {
			t.Helper()
			want := freshCopy(p)
			o := opt
			o.Sampler = GroupedSampler(want, 0)
			wr := Solve(want, o)
			o.Sampler = GroupedSampler(p, 0)
			gr := Solve(p, o)
			if !reflect.DeepEqual(gr.Moves, wr.Moves) || gr.Initial != wr.Initial || gr.Final != wr.Final || gr.Evaluated != wr.Evaluated {
				t.Fatalf("seed %d, %s: kept state %d moves %+v -> %+v, %d evaluated; fresh %d moves %+v -> %+v, %d evaluated",
					seed, step, len(gr.Moves), gr.Initial, gr.Final, gr.Evaluated, len(wr.Moves), wr.Initial, wr.Final, wr.Evaluated)
			}
		}
		stages := func(run string) {
			t.Helper()
			p.ClearGoals()
			for _, c := range all.capacitySpecs {
				p.AddConstraint(c)
			}
			for _, c := range all.conflictSpecs {
				p.AddConflict(c)
			}
			p.AddDrainGoal(all.drainWeight)
			solve(run + ", critical stage")
			for _, x := range all.exclusionSpecs {
				p.AddExclusionGoal(x)
			}
			for _, g := range all.affinityGoals {
				p.AddAffinityGoal(g)
			}
			solve(run + ", placement stage")
			for _, b := range all.balanceSpecs {
				p.AddBalanceGoal(b)
			}
			solve(run + ", balance stage")
		}
		stages("first run")
		for i := range p.Entities {
			if b := BucketID(rng.Intn(len(p.Buckets)+1)) - 1; rng.Intn(3) == 0 {
				p.Entities[i].Bucket, p.Entities[i].Home = b, b
			} else {
				p.Entities[i].Home = p.Entities[i].Bucket
			}
			p.Entities[i].Load[0] *= 0.5 + rng.Float64()
		}
		stages("second run")
	}
}
