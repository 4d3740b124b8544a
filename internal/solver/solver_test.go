package solver

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"shardmanager/internal/sim"
)

// units quantizes values stated in their metrics' units: an entity's Load or a
// bucket's Capacity.
func units(vs ...float64) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = Quantize(v)
	}
	return out
}

// buildBalanced builds nBuckets buckets of capacity 100 (single metric
// "cpu") and nEntities entities of the given load, all initially on bucket
// 0 (maximally imbalanced).
func buildSkewed(nBuckets, nEntities int, load float64) *Problem {
	p := NewProblem(1)
	for i := 0; i < nBuckets; i++ {
		p.AddBucket(Bucket{
			Capacity: units(100),
			Domain:   fmt.Sprintf("r%d", i%2),
		})
	}
	for i := 0; i < nEntities; i++ {
		p.AddEntity(Entity{
			Load:    units(load),
			Bucket:  0,
			Movable: true,
			Group:   -1,
		})
	}
	return p
}

func TestSolveBalancesLoad(t *testing.T) {
	// 40 entities x 10 load on one of 8 buckets: bucket 0 holds 400/100.
	p := buildSkewed(8, 40, 10)
	p.Balance = []BalanceRule{{UtilCap: 0.9, MaxDiff: 0.1, Weight: 1}}
	res := Solve(p, Options{Seed: 1})
	if res.Initial.Total() == 0 {
		t.Fatal("initial state should violate")
	}
	if res.Final.Capacity != 0 || res.Final.Balance != 0 {
		t.Fatalf("final violations = %+v", res.Final)
	}
	// Mean utilization is 0.5; no bucket may exceed 0.6 (MaxDiff 0.1).
	st := newState(p)
	for b := range p.Buckets {
		u := float64(st.bucketLoad[b][0]) / float64(Quantize(100))
		if u > 0.6 {
			t.Fatalf("bucket %d utilization %.2f > 0.6", b, u)
		}
	}
}

func TestSolveRespectsHardCapacity(t *testing.T) {
	// 2 buckets: one tiny (cap 10), one large. 5 entities of load 10 on
	// the large bucket; moving more than one to the tiny bucket would
	// overflow it.
	p := NewProblem(1)
	big := p.AddBucket(Bucket{Capacity: units(100)})
	p.AddBucket(Bucket{Capacity: units(10)})
	for i := 0; i < 5; i++ {
		p.AddEntity(Entity{Load: units(10), Bucket: big, Movable: true, Group: -1})
	}
	p.Balance = []BalanceRule{{MaxDiff: 0.01, Weight: 1}}
	res := Solve(p, Options{Seed: 1})
	st := newState(p)
	if st.bucketLoad[1][0] > Quantize(10) {
		t.Fatalf("tiny bucket overloaded: %v", st.bucketLoad[1][0])
	}
	if res.Final.Capacity != 0 {
		t.Fatalf("capacity violations: %+v", res.Final)
	}
}

func TestSolvePlacesUnassignedEntities(t *testing.T) {
	p := NewProblem(1)
	for i := 0; i < 4; i++ {
		p.AddBucket(Bucket{Capacity: units(100)})
	}
	for i := 0; i < 20; i++ {
		p.AddEntity(Entity{Load: units(5), Bucket: Unassigned, Movable: true, Group: -1})
	}
	p.Balance = []BalanceRule{{UtilCap: 0.9, Weight: 1}}
	res := Solve(p, Options{Seed: 1})
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
	p.Balance = []BalanceRule{{UtilCap: 0.9, MaxDiff: 0.2, Weight: 1}}
	// Entities 0..7 prefer region r1 (odd buckets).
	for i := 0; i < 8; i++ {
		p.Entities[EntityID(i)].Prefer, p.Entities[EntityID(i)].PreferWeight = "r1", 5
	}
	res := Solve(p, Options{Seed: 1})
	if res.Final.Affinity != 0 {
		t.Fatalf("affinity violations = %d", res.Final.Affinity)
	}
	for i := 0; i < 8; i++ {
		b := p.Entities[i].Bucket
		if p.Buckets[b].Domain != "r1" {
			t.Fatalf("entity %d on region %s", i, p.Buckets[b].Domain)
		}
	}
}

func TestSolveSpreadsReplicas(t *testing.T) {
	// 3 replicas per group, 6 buckets across 3 regions; the spread should
	// land each group's replicas in distinct regions, and the bucket rule,
	// broken by the start, holds at the end.
	p := NewProblem(1)
	for i := 0; i < 6; i++ {
		p.AddBucket(Bucket{
			Capacity: units(100),
			Domain:   fmt.Sprintf("r%d", i%3),
		})
	}
	for g := 0; g < 5; g++ {
		for r := 0; r < 3; r++ {
			p.AddEntity(Entity{
				Load:    units(1),
				Bucket:  0, // all colocated initially
				Movable: true,
				Group:   int32(g),
			})
		}
	}
	p.SpreadWeight = 10
	res := Solve(p, Options{Seed: 1})
	if res.Final.Exclusion != 0 || res.Final.Conflict != 0 {
		t.Fatalf("final %+v (initial %+v)", res.Final, res.Initial)
	}
	// Verify each group touches 3 distinct regions.
	perGroup := make(map[int32]map[string]bool)
	for _, ent := range p.Entities {
		g, b := ent.Group, ent.Bucket
		if perGroup[g] == nil {
			perGroup[g] = map[string]bool{}
		}
		perGroup[g][p.Buckets[b].Domain] = true
	}
	for g, regions := range perGroup {
		if len(regions) != 3 {
			t.Fatalf("group %d spans %d regions", g, len(regions))
		}
	}
}

func TestSolveDrainsMarkedBuckets(t *testing.T) {
	p := NewProblem(1)
	draining := p.AddBucket(Bucket{Capacity: units(100), Draining: true})
	p.AddBucket(Bucket{Capacity: units(100)})
	p.AddBucket(Bucket{Capacity: units(100)})
	for i := 0; i < 10; i++ {
		p.AddEntity(Entity{Load: units(5), Bucket: draining, Movable: true, Group: -1})
	}
	p.DrainWeight = 10
	res := Solve(p, Options{Seed: 1})
	if res.Final.Drain != 0 {
		t.Fatalf("drain violations = %d", res.Final.Drain)
	}
}

func TestPinnedEntitiesNeverMove(t *testing.T) {
	p := buildSkewed(4, 10, 10)
	p.Entities[0].Movable = false
	p.Balance = []BalanceRule{{MaxDiff: 0.05, Weight: 1}}
	res := Solve(p, Options{Seed: 1})
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
		p.Balance = []BalanceRule{{UtilCap: 0.9, MaxDiff: 0.1, Weight: 1}}
		return Solve(p, Options{Seed: 1}).Moves
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

// TestCandidateEntitiesCarryingFirst pins what a hot bucket offers the search:
// its movable entities that carry penalty (not inert), largest Load[0] first
// with ties broken by ID, cut to maxEntitiesPerBucket only after the inert
// ones are left out, and each prepared into c.preps in the order offered. Inertness is judged afresh on every attempt: a
// move between two other buckets of the bucket's region makes an entity carry
// or stop carrying. Once the move budget is spent the entities at home drop
// out; a move home returns a unit and brings them back, and a move away
// spends it again.
func TestCandidateEntitiesCarryingFirst(t *testing.T) {
	p := NewProblem(1)
	p.AddBucket(Bucket{Capacity: units(1000), Domain: "r0"})
	p.AddBucket(Bucket{Capacity: units(1000), Domain: "r0"})
	p.AddBucket(Bucket{Capacity: units(1000), Domain: "r1"})
	// 24 entities on b0 with loads 1–5 (so ties), every sixth pinned; the
	// six with i%4 == 1 belong on b1, so they are away and spend the budget.
	// Entity 24+i is entity i's sibling in its group, under the spread: on
	// b1, in b0's region, it makes entity i carry; on b2 it leaves it inert.
	const n = 24
	for i := 0; i < n; i++ {
		e := p.AddEntity(Entity{Load: units(float64(1 + i%5)), Bucket: 0, Movable: i%6 != 0, Group: int32(i)})
		if i%4 == 1 {
			p.Entities[e].Home = 1
		}
	}
	sibling := func(i EntityID) EntityID { return n + i }
	carrying := []EntityID{5, 10, 20, 23} // 5, 10 and 20 are among the smallest
	for i := 0; i < n; i++ {
		b := BucketID(2)
		if slices.Contains(carrying, EntityID(i)) {
			b = 1
		}
		p.AddEntity(Entity{Load: units(1), Bucket: b, Movable: true, Group: int32(i)})
	}
	p.SpreadWeight = 1

	// offered lists b0's movable entities the contract's way, judging each
	// with a fresh prepare.
	offered := func(c *solveCtx, skipHome bool) (carry, inert []EntityID) {
		pr := newPrepared(c.st)
		for _, e := range c.st.byBucket[0] {
			if ent := &p.Entities[e]; !ent.Movable || skipHome && ent.Home == 0 {
				continue
			}
			if c.st.prepare(&pr, e); pr.inert {
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
		carry, _ := offered(c, skipHome)
		return carry[:min(len(carry), maxEntitiesPerBucket)]
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

	opt := Options{Seed: 1}
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
	check(c, "budget spent", []EntityID{5})
	c.applyMove(9, 1) // home: a unit returns
	check(c, "unit returned", want(c, false))
	c.applyMove(2, 1) // away from home: spent again
	check(c, "spent again", []EntityID{5})
	c.applyMove(sibling(17), 1)
	check(c, "spent, a sibling moved", []EntityID{17, 5})
}

// TestMeanUtilCountsUnplacedLoad: the balance target is every entity's load,
// placed or not, over every capacity: sync's kept total, one division of two
// exact counts, whatever bucket each entity sits on.
func TestMeanUtilCountsUnplacedLoad(t *testing.T) {
	p := NewProblem(1)
	p.AddBucket(Bucket{Capacity: units(1)})
	p.AddBucket(Bucket{Capacity: units(2)})
	for _, l := range []float64{0.1, 0.2, 0.7} {
		p.AddEntity(Entity{Load: units(l), Bucket: Unassigned, Movable: true, Group: -1})
	}
	p.Balance = []BalanceRule{{MaxDiff: 0.1, Weight: 1}}
	want := float64(Quantize(1)) / float64(Quantize(3))
	for i := range 9 {
		p.Entities[i%3].Bucket = BucketID(i/3) - 1
		if got := newState(p).specs[0].meanUtil; got != want {
			t.Fatalf("placement %d: meanUtil %v, want %v", i, got, want)
		}
	}
}

// TestCapacityBoundaryIsExact: a bucket whose placed load equals its capacity
// is within it, though the float64 sum of its loads, 0.1 + 0.2, is above the
// float64 0.3: violations and floor count no capacity violation, and one load
// unit more counts one in each.
func TestCapacityBoundaryIsExact(t *testing.T) {
	a, b, c := 0.1, 0.2, 0.3
	if a+b <= c {
		t.Fatalf("%v + %v = %v, not above %v: the world no longer shows float rounding", a, b, a+b, c)
	}
	for extra, want := range []int{0, 1} {
		p := NewProblem(1)
		p.AddBucket(Bucket{Capacity: units(c)})
		p.AddEntity(Entity{Load: units(a), Bucket: 0, Group: -1})
		p.AddEntity(Entity{Load: []int64{Quantize(b) + int64(extra)}, Bucket: 0, Group: -1})
		st := newState(p)
		if v, f := st.violations().Capacity, st.floor().Capacity; v != want || f != want {
			t.Errorf("load %d units over capacity: violations count %d, floor %d; want %d", extra, v, f, want)
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
	p.Balance = []BalanceRule{{MaxDiff: 0.1, Weight: 1}}
	opt := Options{Seed: 1}
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

// TestGroupedSamplerCoversAllGroups: a draw reaches both domains, and keeps
// the colder of two draws within one: bucket 0, the one loaded bucket of its
// domain's four, is drawn far less often than a uniform draw's quarter.
func TestGroupedSamplerCoversAllGroups(t *testing.T) {
	p := buildSkewed(8, 40, 10)
	c := newSolveCtx(p, Options{Seed: 1})
	inR0, hot := 0, 0
	for draw := 0; draw < 100; draw++ {
		domains := map[string]bool{}
		for _, b := range c.sample() {
			domains[p.Buckets[b].Domain] = true
			if p.Buckets[b].Domain == "r0" {
				inR0++
				hot += b2i(b == 0)
			}
		}
		if !domains["r0"] || !domains["r1"] {
			t.Fatalf("draw %d missed a domain: %v", draw, domains)
		}
	}
	if hot*8 > inR0 {
		t.Fatalf("the loaded bucket was %d of its domain's %d targets: the draw is not biased toward cold buckets", hot, inR0)
	}
}

// TestGroupedSamplerCapsAtK: a draw returns max(16, domains) targets, under
// Uniform too. Five domains of one bucket each take four per domain, so a
// draw reaches four of them, and the rotation starts the next draw at the
// fifth; 24 domains take one target each.
func TestGroupedSamplerCapsAtK(t *testing.T) {
	problem := func(domains int) *Problem {
		p := NewProblem(1)
		for i := 0; i < domains; i++ {
			p.AddBucket(Bucket{Capacity: units(100), Domain: fmt.Sprintf("g%d", i)})
		}
		p.AddEntity(Entity{Load: units(1), Bucket: 0, Movable: true, Group: -1})
		return p
	}
	draw := func(c *solveCtx) map[string]bool {
		t.Helper()
		got := c.sample()
		if len(got) != c.k {
			t.Fatalf("%d domains: a draw returned %d targets, want %d", len(c.p.Buckets), len(got), c.k)
		}
		covered := map[string]bool{}
		for _, b := range got {
			covered[c.p.Buckets[b].Domain] = true
		}
		return covered
	}
	c := newSolveCtx(problem(5), Options{Seed: 1})
	first, second := draw(c), draw(c)
	if c.k != minTargets || len(first) != 4 || len(second) != 4 || !second["g4"] {
		t.Fatalf("5 domains, %d targets a draw: the first draw reached %v, the second %v; want 4 each, the second from g4", c.k, first, second)
	}
	c = newSolveCtx(problem(24), Options{Seed: 1})
	if got := draw(c); c.k != 24 || len(got) != 24 {
		t.Fatalf("24 domains, %d targets a draw: one draw reached %d domains, want all 24", c.k, len(got))
	}
	draw(newSolveCtx(problem(24), Options{Seed: 1, Uniform: true}))
}

func TestEvalBudgetRespected(t *testing.T) {
	run := func() *Result {
		p := buildSkewed(16, 200, 5)
		p.Balance = []BalanceRule{{MaxDiff: 0.05, Weight: 1}}
		return Solve(p, Options{Seed: 1, EvalBudget: 500})
	}
	res := run()
	// The budget is checked per fix attempt, so one attempt may overshoot
	// by its grid (maxEntitiesPerBucket * minTargets on these two domains).
	if res.Evaluated >= 500+maxEntitiesPerBucket*minTargets+1 {
		t.Fatalf("evaluated %d, budget 500 overshot by more than one attempt", res.Evaluated)
	}
	unbudgeted := func() *Result {
		p := buildSkewed(16, 200, 5)
		p.Balance = []BalanceRule{{MaxDiff: 0.05, Weight: 1}}
		return Solve(p, Options{Seed: 1})
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
		p := NewProblem(1)
		for i := 0; i < nB; i++ {
			p.AddBucket(Bucket{Capacity: units(100)})
		}
		var total int64
		for i := 0; i < nE; i++ {
			l := units(1 + float64(r.Intn(10)))
			total += l[0]
			p.AddEntity(Entity{Load: l, Bucket: BucketID(r.Intn(nB)), Movable: true, Group: -1})
		}
		p.Balance = []BalanceRule{{MaxDiff: 0.1, Weight: 1}}
		Solve(p, Options{Seed: seed})
		st := newState(p)
		var after int64
		for b := range p.Buckets {
			after += st.bucketLoad[b][0]
		}
		return after == total
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanics(t *testing.T) {
	p := NewProblem(1)
	p.AddBucket(Bucket{Capacity: units(1)})
	// solved solves a one-bucket, one-entity problem with edit applied: a goal
	// field is read, and checked, when Solve syncs the state.
	solved := func(edit func(q *Problem)) func() {
		return func() {
			q := NewProblem(1)
			q.AddBucket(Bucket{Capacity: units(1)})
			q.AddEntity(Entity{Load: units(1), Bucket: Unassigned, Movable: true, Group: -1})
			edit(q)
			Solve(q, Options{Seed: 1})
		}
	}
	for name, fn := range map[string]func(){
		"no metrics":       func() { NewProblem(0) },
		"bad bucket":       func() { p.AddBucket(Bucket{Capacity: units(1, 2)}) },
		"bad entity":       func() { p.AddEntity(Entity{Load: units(1, 2)}) },
		"bad assignment":   func() { p.AddEntity(Entity{Load: units(1), Bucket: 99}) },
		"group below -1":   func() { p.AddEntity(Entity{Load: units(1), Bucket: Unassigned, Group: -2}) },
		"balance rules":    solved(func(q *Problem) { q.Balance = []BalanceRule{{}, {}} }),
		"balance weight":   solved(func(q *Problem) { q.Balance = []BalanceRule{{UtilCap: 0.9, Weight: -1}} }),
		"balance no limit": solved(func(q *Problem) { q.Balance = []BalanceRule{{Weight: 1}} }),
		"negative spread":  solved(func(q *Problem) { q.SpreadWeight = -1 }),
		"negative drain":   solved(func(q *Problem) { q.DrainWeight = -1 }),
		"negative prefer":  solved(func(q *Problem) { q.Entities[0].PreferWeight = -1 }),
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
// its entities where they sit (with their Home and preference), and its goals.
func freshCopy(p *Problem) *Problem {
	q := NewProblem(p.metrics)
	for _, b := range p.Buckets {
		q.AddBucket(b)
	}
	for _, e := range p.Entities {
		e.Load = slices.Clone(e.Load)
		id := q.AddEntity(e)
		q.Entities[id].Home = e.Home
	}
	q.Balance = slices.Clone(p.Balance)
	q.SpreadWeight, q.DrainWeight = p.SpreadWeight, p.DrainWeight
	return q
}

// TestKeptStateSolvesAsAFreshOne: a problem solved in the allocator's two goal
// stages, placement without balance and then with it, then stated again — its
// entities placed anew in place, a third of their preferences set, changed or
// cleared, some pinned or freed — and solved in stages again, gives at every
// Solve what a problem built from nothing with the same statement gives: the
// same moves, counts and evaluations, to the bit. So does it after its buckets are
// restated through ClearBuckets: one removed, with its entities unplaced and
// the later buckets renumbered; the removed one added back; and all of them
// in reverse order, the same count with the domains first seen in another
// order. The kept state, synced, is the state a fresh build makes.
func TestKeptStateSolvesAsAFreshOne(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := sim.NewRNG(seed)
		p := randomProblem(rng)
		balance := p.Balance
		opt := Options{Seed: seed, MoveBudget: rng.Intn(4)} // a MoveBudget of 0 is none
		solve := func(step string) {
			t.Helper()
			want := freshCopy(p)
			wr := Solve(want, opt)
			gr := Solve(p, opt)
			if !reflect.DeepEqual(gr.Moves, wr.Moves) || gr.Initial != wr.Initial || gr.Final != wr.Final || gr.Evaluated != wr.Evaluated {
				t.Fatalf("seed %d, %s: kept state %d moves %+v -> %+v, %d evaluated; fresh %d moves %+v -> %+v, %d evaluated",
					seed, step, len(gr.Moves), gr.Initial, gr.Final, gr.Evaluated, len(wr.Moves), wr.Initial, wr.Final, wr.Evaluated)
			}
		}
		stages := func(run string) {
			t.Helper()
			p.Balance = nil
			solve(run + ", placement stage")
			p.Balance = balance
			solve(run + ", balance stage")
		}
		stages("first run")
		for i := range p.Entities {
			e := &p.Entities[i]
			if b := BucketID(rng.Intn(len(p.Buckets)+1)) - 1; rng.Intn(3) == 0 {
				e.Bucket, e.Home = b, b
			} else {
				e.Home = e.Bucket
			}
			e.Load[0] = int64(float64(e.Load[0]) * (0.5 + rng.Float64()))
			switch rng.Intn(6) {
			case 0: // set or changed
				e.Prefer, e.PreferWeight = fmt.Sprintf("r%d", rng.Intn(4)), 1+4*rng.Float64()
			case 1: // cleared
				e.Prefer, e.PreferWeight = "", 0
			case 2:
				e.Movable = !e.Movable
			}
		}
		stages("second run")

		// held[b] is the original number of bucket b as now stated.
		orig := slices.Clone(p.Buckets)
		held := make([]int, len(orig))
		for b := range held {
			held[b] = b
		}
		restate := func(run string, order []int) {
			t.Helper()
			to := make([]BucketID, len(orig))
			for i := range to {
				to[i] = Unassigned
			}
			p.ClearBuckets()
			for _, ob := range order {
				to[ob] = p.AddBucket(orig[ob])
			}
			for i := range p.Entities {
				e := &p.Entities[i]
				if e.Bucket != Unassigned {
					e.Bucket = to[held[e.Bucket]]
				}
				e.Home = e.Bucket
			}
			held = order
			stages(run)
		}
		removed := rng.Intn(len(orig))
		var without, every, reversed []int
		for b := range orig {
			if b != removed {
				without = append(without, b)
			}
			every = append(every, b)
			reversed = append(reversed, len(orig)-1-b)
		}
		restate("a bucket removed", without)
		restate("the bucket added back", every)
		restate("the buckets reversed", reversed)
	}
}
