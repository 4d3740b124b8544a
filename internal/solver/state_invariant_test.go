package solver

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"shardmanager/internal/sim"
)

// randomProblem builds a random instance exercising every goal: about half
// the entities in one of five groups, under the bucket rule, and on three
// seeds in four a spread over the regions.
func randomProblem(rng *sim.RNG) *Problem {
	nB := 3 + rng.Intn(6)
	nE := 5 + rng.Intn(40)
	p := NewProblem(2)
	for i := 0; i < nB; i++ {
		p.AddBucket(Bucket{
			Capacity: units(50+100*rng.Float64(), 200),
			Domain:   fmt.Sprintf("r%d", i%3),
			Draining: rng.Intn(5) == 0,
		})
	}
	const nGroups = 5
	for i := 0; i < nE; i++ {
		b := BucketID(rng.Intn(nB))
		if rng.Intn(8) == 0 {
			b = Unassigned
		}
		g := int32(-1)
		if rng.Intn(2) == 0 {
			g = int32(i % nGroups)
		}
		e := Entity{
			Load:    units(1+9*rng.Float64(), 1+4*rng.Float64()),
			Bucket:  b,
			Movable: true,
			Group:   g,
		}
		if rng.Intn(3) == 0 {
			e.Prefer, e.PreferWeight = fmt.Sprintf("r%d", rng.Intn(3)), 1+4*rng.Float64()
		}
		p.AddEntity(e)
	}
	p.Balance = []BalanceRule{{UtilCap: 0.9, MaxDiff: 0.1, Weight: 1}, {MaxDiff: 0.2, Weight: 0.5}}
	if rng.Intn(4) != 0 {
		p.SpreadWeight = 3
	}
	p.DrainWeight = 2
	return p
}

// occupancyRef is the test's own copy of what the solver derives from the
// assignment: for one rule on the grouping, the entities of each (group,
// domain), kept as the map the solver used to keep. The walks update it beside
// every apply and compare the scan's answers with it after every step.
type occupancyRef map[uint64][]EntityID

func refKey(group, dom int32) uint64 { return uint64(uint32(group))<<32 | uint64(uint32(dom)) }

func newOccupancyRef(st *state, dom []int32) occupancyRef {
	ref := occupancyRef{}
	for e, g := range st.grp.of {
		if b := st.assignment[e]; g >= 0 && b != Unassigned {
			k := refKey(g, dom[b])
			ref[k] = append(ref[k], EntityID(e))
		}
	}
	return ref
}

// move records e going from one bucket (or none) to another.
func (ref occupancyRef) move(st *state, dom []int32, e EntityID, from, to BucketID) {
	g := st.grp.of[e]
	if g < 0 {
		return
	}
	if from != Unassigned {
		k := refKey(g, dom[from])
		for i, m := range ref[k] {
			if m == e {
				ref[k] = append(ref[k][:i:i], ref[k][i+1:]...)
				break
			}
		}
	}
	k := refKey(g, dom[to])
	ref[k] = append(ref[k], e)
}

// check compares the scan with the reference for every (group, domain) and
// every entity the solver can ask on behalf of: none, and each member of the
// group (which the scan must not count, wherever it sits); and the rule's kept
// extra count and a fresh count with the reference's.
func (ref occupancyRef) check(t *testing.T, st *state, r *rule) bool {
	t.Helper()
	extras := 0
	for g := int32(0); int(g)+1 < len(st.grp.start); g++ {
		askers := append([]EntityID{-1}, st.grp.members(g)...)
		for d := int32(0); int(d) < r.n; d++ {
			all := ref[refKey(g, d)]
			extras += max(0, len(all)-1)
			for _, e := range askers {
				want := slices.ContainsFunc(all, func(m EntityID) bool { return m != e })
				if got := st.shares(r.dom, g, d, e); got != want {
					t.Logf("group %d domain %d asked by %d: scan says %v, reference holds %v", g, d, e, got, all)
					return false
				}
			}
		}
	}
	if got, _ := st.count(r); got != extras || r.extra != extras {
		t.Logf("count = %d extras, kept %d, reference holds %d", got, r.extra, extras)
		return false
	}
	return true
}

// occupancyRefs is one reference per rule of a state: the spread's when the
// problem states one, and the bucket rule's.
type occupancyRefs struct {
	st    *state
	rules []*rule
	refs  []occupancyRef
}

func newOccupancyRefs(st *state) *occupancyRefs {
	o := &occupancyRefs{st: st, rules: []*rule{&st.conflict}}
	if st.spread.weight != 0 {
		o.rules = append(o.rules, &st.spread)
	}
	for _, r := range o.rules {
		o.refs = append(o.refs, newOccupancyRef(st, r.dom))
	}
	return o
}

// apply moves e on the state and on every reference, then checks them.
func (o *occupancyRefs) apply(t *testing.T, e EntityID, to BucketID) bool {
	t.Helper()
	from := o.st.assignment[e]
	o.st.apply(e, to)
	for i, r := range o.rules {
		o.refs[i].move(o.st, r.dom, e, from, to)
		if !o.refs[i].check(t, o.st, r) {
			t.Logf("rule %d after moving %d from %d to %d", i, e, from, to)
			return false
		}
	}
	return true
}

// statesEqual compares what apply keeps — every bucket's load, the counts and
// the violations — with a from-scratch rebuild, with ==: loads are integers,
// so a sum kept through moves is the sum taken afresh.
func statesEqual(t *testing.T, got, want *state) bool {
	t.Helper()
	for b := range want.bucketLoad {
		if !slices.Equal(got.bucketLoad[b], want.bucketLoad[b]) {
			t.Logf("bucketLoad[%d] = %v, rebuild sums %v", b, got.bucketLoad[b], want.bucketLoad[b])
			return false
		}
	}
	if g, w := [...]int{got.unassigned, got.affN, got.drainN}, [...]int{want.unassigned, want.affN, want.drainN}; g != w {
		t.Logf("unassigned, affN, drainN = %v, rebuild counts %v", g, w)
		return false
	}
	if g, w := got.violations(), want.violations(); g != w {
		t.Logf("violations %+v, rebuild counts %+v", g, w)
		return false
	}
	return true
}

// syncedEqual is statesEqual for a state synced since its last move, which also
// holds what only sync takes: the totals, least and most, the entities away
// from home and each metric's mean utilization.
func syncedEqual(t *testing.T, got, want *state) bool {
	t.Helper()
	if !statesEqual(t, got, want) {
		return false
	}
	for _, pair := range [][2][]int64{{got.total, want.total}, {got.least, want.least}, {got.most, want.most}} {
		if !slices.Equal(pair[0], pair[1]) {
			t.Logf("total, least or most = %v, rebuild takes %v", pair[0], pair[1])
			return false
		}
	}
	if got.away != want.away {
		t.Logf("away = %d, rebuild counts %d", got.away, want.away)
		return false
	}
	for m := range want.specs {
		if got.specs[m].meanUtil != want.specs[m].meanUtil {
			t.Logf("meanUtil[%d] = %v, rebuild takes %v", m, got.specs[m].meanUtil, want.specs[m].meanUtil)
			return false
		}
	}
	return true
}

// FuzzKeptStateMatchesSync drives a kept state through what a kept problem
// sees — moves through apply, load edits through the entities' slots, drain
// flips and ClearBuckets restatements — and after each op compares it, with
// ==, with a state built afresh from the problem as it then stands: a move as
// apply left the state (statesEqual), an edit once the sync the next Solve
// runs has brought it in (Problem.state, then syncedEqual). The input is a
// seed for randomProblem and up to 64 three-byte ops: the kind, then two
// operands.
func FuzzKeptStateMatchesSync(f *testing.F) {
	f.Add(uint64(1), []byte{0, 3, 1, 1, 2, 90, 2, 1, 0, 3, 1, 0, 0, 4, 2, 5, 7, 9})
	f.Add(uint64(2), []byte{3, 2, 1, 0, 9, 4, 3, 0, 0, 1, 5, 60, 0, 11, 3})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		p := randomProblem(sim.NewRNG(seed))
		st := p.state()
		for i := 0; i+3 <= min(len(ops), 3*64); i += 3 {
			op, x, y := ops[i], int(ops[i+1]), int(ops[i+2])
			nE, nB := len(p.Entities), len(p.Buckets)
			switch op % 4 {
			case 0: // a move, as the search applies it
				e, to := EntityID(x%nE), BucketID(y%nB)
				if st.assignment[e] == to {
					continue
				}
				st.apply(e, to)
				p.Entities[e].Bucket = to
				if !statesEqual(t, st, newState(freshCopy(p))) {
					t.Fatalf("op %d: entity %d moved to bucket %d", i/3, e, to)
				}
				continue
			case 1: // a load edit, in tenths, negative ones included
				p.Entities[x%nE].Load[op/4%2] = Quantize(float64(y-64) / 10)
			case 2:
				p.Buckets[x%nB].Draining = !p.Buckets[x%nB].Draining
			case 3: // the buckets restated, rotated by x, and on odd y the last dropped
				kept, shift := slices.Clone(p.Buckets), x%nB
				n := nB - y%2*b2i(nB > 1)
				to := func(b BucketID) BucketID {
					if k := (int(b) - shift + nB) % nB; b != Unassigned && k < n {
						return BucketID(k)
					}
					return Unassigned
				}
				p.ClearBuckets()
				for k := range n {
					p.AddBucket(kept[(k+shift)%nB])
				}
				for e := range p.Entities {
					ent := &p.Entities[e]
					ent.Bucket, ent.Home = to(ent.Bucket), to(ent.Home)
				}
			}
			st = p.state()
			if !syncedEqual(t, st, newState(freshCopy(p))) {
				t.Fatalf("op %d: kind %d on %d, %d", i/3, op%4, x, y)
			}
		}
	})
}

// TestIncrementalStateMatchesRebuild is the solver's core invariant: after
// any sequence of applied moves, the incrementally maintained aggregates
// equal a from-scratch rebuild — the property that makes O(1) move deltas
// trustworthy (the paper's objective-tree optimization) — and after every
// single move, unassigned -> placed and within one domain included, the
// occupancy the solver reads off the assignment equals the reference map.
func TestIncrementalStateMatchesRebuild(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		p := randomProblem(rng)
		st := newState(p)
		refs := newOccupancyRefs(st)
		nB := len(p.Buckets)
		for step := 0; step < 100; step++ {
			e := EntityID(rng.Intn(len(p.Entities)))
			target := BucketID(rng.Intn(nB))
			if st.assignment[e] == target {
				continue
			}
			if !refs.apply(t, e, target) {
				return false
			}
			// Keep Problem's view in sync for the rebuild.
			p.Entities[e].Bucket = target
		}
		fresh := newStateFresh(p)
		return statesEqual(t, st, fresh)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// bucketPenalty recomputes in full how much bucket b contributes to the
// objective, less what stands, asking each entity's group where its peers sit:
// the reference for seedPenalty (equal to the bit at sync) and for the
// penalties apply maintains.
func (s *state) bucketPenalty(b BucketID) float64 {
	var pen float64
	for si := range s.specs {
		sp := &s.specs[si]
		pen += sp.penalty(b, s.bucketLoad[b][si])
	}
	sp := &s.spread
	for _, e := range s.byBucket[b] {
		ep := s.refAffAbove(e, b) + s.drainPen[b]
		if g := s.grp.of[e]; sp.weight != 0 && g >= 0 && !refAtFloor(s, sp, g) {
			if slices.Contains(refMembers(s, sp.dom, g, e), sp.dom[b]) {
				ep += sp.weight
			}
		}
		pen += ep
	}
	return pen
}

// refMembers lists the domains of dom that group g's placed members other than
// e sit in, one element per member.
func refMembers(s *state, dom []int32, g int32, e EntityID) []int32 {
	var doms []int32
	for m, mg := range s.grp.of {
		if b := s.assignment[m]; mg == g && EntityID(m) != e && b != Unassigned {
			doms = append(doms, dom[b])
		}
	}
	return doms
}

// refAtFloor is atFloor by a set of the group's domains.
func refAtFloor(s *state, r *rule, g int32) bool {
	doms := refMembers(s, r.dom, g, -1)
	distinct := map[int32]bool{}
	for _, d := range doms {
		distinct[d] = true
	}
	return len(distinct) >= min(len(doms), r.n)
}

// refAffAbove is affAbove read off refMembers: the penalty stands when its
// domain has no bucket, or when a spread weighing as much has another member
// in the preferred domain and none in e's.
func (s *state) refAffAbove(e EntityID, b BucketID) float64 {
	t := &s.aff[e]
	if t.weight == 0 || s.dom[b] == t.domID {
		return 0
	}
	if t.domID < 0 {
		return 0
	}
	sp, g := &s.spread, s.grp.of[e]
	if g >= 0 && sp.weight >= t.weight {
		others := refMembers(s, sp.dom, g, e)
		if slices.Contains(others, t.domID) && !slices.Contains(others, sp.dom[b]) {
			return 0
		}
	}
	return t.weight
}

// newStateFresh rebuilds solver state with a fresh domain numbering, as a
// solver entry point would; reusing p's kept one is fine too, but a fresh one
// also re-exercises interning.
func newStateFresh(p *Problem) *state {
	p.dom = nil
	return newState(p)
}

// TestHotSetMatchesRecompute drives 1,000 random applied moves and then
// cross-checks every incrementally maintained quantity against a from-scratch
// recomputation: per-bucket penalties (the hot heap), violations(), and the
// aggregate state. This is the invariant that lets Phase 2 trust the heap
// instead of rescanning buckets.
func TestHotSetMatchesRecompute(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		p := randomProblem(rng)
		st := newState(p)
		refs := newOccupancyRefs(st)
		nB := len(p.Buckets)
		for step := 0; step < 1000; step++ {
			e := EntityID(rng.Intn(len(p.Entities)))
			target := BucketID(rng.Intn(nB))
			if st.assignment[e] == target {
				continue
			}
			if !refs.apply(t, e, target) {
				t.Fatalf("seed %d step %d: occupancy diverged from the reference", seed, step)
			}
			p.Entities[e].Bucket = target
		}
		fresh := newStateFresh(p)
		if !statesEqual(t, st, fresh) {
			t.Fatalf("seed %d: aggregates diverged from rebuild", seed)
		}
		for b := 0; b < nB; b++ {
			got := st.hot.pen[b]
			want := fresh.bucketPenalty(BucketID(b))
			if seeded := fresh.hot.pen[b]; math.Float64bits(seeded) != math.Float64bits(want) {
				t.Fatalf("seed %d: seeded pen[%d] = %v, recomputed %v", seed, b, seeded, want)
			}
			// Incremental penalties accumulate float error
			// proportional to the magnitudes that flowed through.
			tol := 1e-6 * (math.Abs(want) + 1)
			if math.Abs(got-want) > tol {
				t.Fatalf("seed %d: hot pen[%d] = %v, recomputed %v", seed, b, got, want)
			}
		}
		// The heap must agree with its own pen array: the reported top
		// is the max over unfrozen buckets (none are frozen here).
		topB, topPen := st.hot.top()
		for b := 0; b < nB; b++ {
			if st.hot.pen[b] > topPen {
				t.Fatalf("seed %d: heap top %d (%v) < pen[%d]=%v", seed, topB, topPen, b, st.hot.pen[b])
			}
		}
	}
}

// TestHotSetFreezeUnfreeze exercises the freeze bookkeeping directly.
func TestHotSetFreezeUnfreeze(t *testing.T) {
	h := newHotSet(5)
	for b, pen := range []float64{3, 9, 1, 9, 0} {
		h.pen[b] = pen
	}
	h.init()
	if b, pen := h.top(); b != 1 || pen != 9 {
		t.Fatalf("top = %d/%v, want 1/9 (tie breaks to lower ID)", b, pen)
	}
	h.freeze(1)
	if b, _ := h.top(); b != 3 {
		t.Fatalf("top after freeze = %d, want 3", b)
	}
	h.freeze(3)
	if b, _ := h.top(); b != 0 {
		t.Fatalf("top after freezes = %d, want 0", b)
	}
	// A frozen bucket whose penalty changes thaws automatically.
	h.add(3, -1)
	if b, pen := h.top(); b != 3 || pen != 8 {
		t.Fatalf("top after add to frozen = %d/%v, want 3/8", b, pen)
	}
	h.unfreezeAll() // brings bucket 1 (pen 9) back
	if b, pen := h.top(); b != 1 || pen != 9 {
		t.Fatalf("top after unfreezeAll = %d/%v, want 1/9", b, pen)
	}
	h.add(1, -9)
	h.add(3, -8)
	if b, pen := h.top(); b != 0 || pen != 3 {
		t.Fatalf("top after drain = %d/%v, want 0/3", b, pen)
	}
}

// softObjective recomputes in full the objective the search lowers, less the
// unassigned penalty: every capacity and balance penalty, affinity, drain and
// the spread's weighted extras.
func (st *state) softObjective() float64 {
	var total float64
	for si := range st.specs {
		sp := &st.specs[si]
		for b := range st.bucketLoad {
			total += sp.penalty(BucketID(b), st.bucketLoad[b][si])
		}
	}
	for e := range st.p.Entities {
		if b := st.assignment[e]; b != Unassigned {
			total += st.affinityPenalty(EntityID(e), b) + st.drainPen[b]
		}
	}
	if sp := &st.spread; sp.weight != 0 {
		extras, _ := st.count(sp)
		total += sp.weight * float64(extras)
	}
	return total
}

// TestMoveDeltaMatchesAppliedObjective checks that moveDelta's prediction
// equals the actual objective change measured by full evaluation.
func TestMoveDeltaMatchesAppliedObjective(t *testing.T) {
	objective := func(st *state) float64 {
		return st.softObjective() + unassignedPenalty*float64(st.unassigned)
	}
	if err := quick.Check(func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		p := randomProblem(rng)
		st := newState(p)
		for step := 0; step < 50; step++ {
			e := EntityID(rng.Intn(len(p.Entities)))
			target := BucketID(rng.Intn(len(p.Buckets)))
			delta, ok := st.moveDelta(e, target)
			if !ok {
				continue
			}
			before := objective(st)
			st.apply(e, target)
			after := objective(st)
			// Tolerance scales with the objective's magnitude: the
			// unassigned penalty is 1e12, so the subtraction loses
			// up to ~1e-4 absolute precision.
			tol := 1e-9 * (math.Abs(before) + math.Abs(delta) + 1)
			if math.Abs((after-before)-delta) > tol {
				t.Logf("seed %d step %d: predicted %v actual %v", seed, step, delta, after-before)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestInertEntitiesCannotImprove checks the bound the search prunes by, on
// random worlds walked through random moves: an inert entity's move to any
// bucket is infeasible or >= 0, so the grid may drop its pairs. Every leave
// term counts: inert ignoring base, fromDelta or spreadLeave fails here, and
// so does a floor that counts a penalty some single move removes (a spread
// group below its floor, or an affinity penalty whose spread goal weighs less
// or whose entity shares its domain). The worlds must reach
// inert entities whose leave terms are not all 0.
func TestInertEntitiesCannotImprove(t *testing.T) {
	singles, standing := 0, 0
	for seed := uint64(1); seed <= 150; seed++ {
		rng := sim.NewRNG(seed)
		p := randomProblem(rng)
		st := newState(p)
		pr := newPrepared(st)
		nB := len(p.Buckets)
		for step := 0; step < 8; step++ {
			for e := range p.Entities {
				e := EntityID(e)
				b := st.assignment[e]
				if b == Unassigned {
					continue
				}
				st.prepare(&pr, e)
				if !pr.inert {
					continue
				}
				if pr.base != 0 || pr.spreadLeave != 0 {
					standing++
				}
				for t2 := BucketID(0); int(t2) < nB; t2++ {
					if d, ok := st.evalTarget(&pr, t2); ok {
						singles++
						if d < 0 {
							t.Fatalf("seed %d step %d: inert entity %d on %d moves to %d for %v", seed, step, e, b, t2, d)
						}
					}
				}
			}
			e := EntityID(rng.Intn(len(p.Entities)))
			if to := BucketID(rng.Intn(nB)); st.assignment[e] != to {
				st.apply(e, to)
			}
		}
	}
	if singles == 0 || standing == 0 {
		t.Fatalf("the worlds checked %d inert moves, %d entities inert by a standing term", singles, standing)
	}
}

// TestFloorIsALowerBound: on random worlds, whatever a Solve reaches counts at
// least its floor in every kind. Every fifth entity without a region
// preference is given one for a region with no bucket, so the worlds reach
// affinity floors as well as exclusion floors (more members than regions);
// every third entity is pinned, so they reach the floor pinned members keep
// (a conflict floor is one). The standing penalties the search skips are not
// all floor: counting an affinity penalty that a heavier spread goal holds out
// of its region fails here.
func TestFloorIsALowerBound(t *testing.T) {
	var seen ViolationCounts
	for seed := uint64(1); seed <= 300; seed++ {
		p := randomProblem(sim.NewRNG(seed))
		for e := 0; e < len(p.Entities); e += 5 {
			if ent := &p.Entities[e]; ent.PreferWeight == 0 {
				ent.Prefer, ent.PreferWeight = "r9", 2
			}
		}
		for e := 1; e < len(p.Entities); e += 3 {
			p.Entities[e].Movable = false
		}
		res := Solve(p, Options{Seed: 1})
		f, v := res.Floor, res.Final
		if f.Capacity > v.Capacity || f.Conflict > v.Conflict || f.Balance > v.Balance || f.Affinity > v.Affinity ||
			f.Exclusion > v.Exclusion || f.Drain > v.Drain || f.Unassigned > v.Unassigned {
			t.Fatalf("seed %d: floor %+v above final %+v", seed, f, v)
		}
		seen.Capacity += f.Capacity
		seen.Conflict += f.Conflict
		seen.Balance += f.Balance
		seen.Affinity += f.Affinity
		seen.Exclusion += f.Exclusion
	}
	if seen.Affinity == 0 || seen.Exclusion == 0 || seen.Conflict == 0 {
		t.Fatalf("the worlds reach no affinity, exclusion or conflict floor: %+v", seen)
	}
	t.Logf("floors summed over the worlds: %+v", seen)
}

// TestEveryAppliedMoveLowersTheObjective: on random worlds, every move a
// Solve applies, runner-ups of a grid included, lowers the objective
// recomputed in full when it is replayed from the same start: a placement
// lowers the unplaced count, any other move the rest. A runner-up applied on
// its stale grid delta fails here. The worlds must apply runner-ups: after
// phase 1, one grid on each world's hottest bucket is counted apart.
func TestEveryAppliedMoveLowersTheObjective(t *testing.T) {
	runnerUps := 0
	for seed := uint64(1); seed <= 200; seed++ {
		p := randomProblem(sim.NewRNG(seed))
		replay := newState(freshCopy(p))
		lowers := func(moves []Move) {
			t.Helper()
			for i, m := range moves {
				before, unplaced := replay.softObjective(), replay.unassigned
				replay.apply(m.Entity, m.To)
				if after := replay.softObjective(); replay.unassigned == unplaced && !(after < before) {
					t.Fatalf("seed %d: move %d of %d, %+v, takes the objective from %v to %v", seed, i, len(moves), m, before, after)
				}
			}
		}
		lowers(Solve(p, Options{Seed: 1}).Moves)

		p = randomProblem(sim.NewRNG(seed))
		replay = newState(freshCopy(p))
		c := newSolveCtx(p, Options{Seed: 1})
		c.phase1()
		if b, pen := c.st.hot.top(); b >= 0 && pen > improveEps {
			placed := len(c.res.Moves)
			if picks := c.gridMoves(c.candidateEntities(b), b); len(picks) > 0 {
				c.applyPicks(picks, b)
				runnerUps += len(c.res.Moves) - placed - 1
			}
		}
		lowers(c.res.Moves)
	}
	if runnerUps == 0 {
		t.Fatal("no grid applied a runner-up")
	}
	t.Logf("one grid per world applied %d runner-ups", runnerUps)

	// A runner-up whose delta went stale while its move stayed feasible:
	// three entities of load 4 on a bucket of capacity 20 whose balance band
	// ends at 5, and an empty bucket beside it. Every candidate's grid delta
	// to the empty bucket is -4; once the first has moved, the second would
	// take the hot bucket from 3 to 0 and the cold one from 0 to 3, a delta of
	// 0, though it still fits. A runner-up applied on its grid delta, even
	// after a feasibility check, fails here.
	p := NewProblem(1)
	for range 2 {
		p.AddBucket(Bucket{Capacity: units(20), Domain: "r0"})
	}
	for range 3 {
		p.AddEntity(Entity{Load: units(4), Bucket: 0, Movable: true, Group: -1})
	}
	p.Balance = []BalanceRule{{UtilCap: 0.25, Weight: 1}}
	replay := newState(freshCopy(p))
	c := newSolveCtx(p, Options{Seed: 1})
	b, _ := c.st.hot.top()
	picks := c.gridMoves(c.candidateEntities(b), b)
	if len(picks) != 3 || picks[1].to != picks[0].to || picks[1].delta != picks[0].delta {
		t.Fatalf("the stale-delta world's grid picks %+v, want its three entities onto the empty bucket at one delta", picks)
	}
	c.applyPicks(picks, b)
	for i, m := range c.res.Moves {
		before := replay.softObjective()
		replay.apply(m.Entity, m.To)
		if after := replay.softObjective(); !(after < before) {
			t.Fatalf("the stale-delta world: move %d of %d, %+v, takes the objective from %v to %v", i, len(c.res.Moves), m, before, after)
		}
	}
	if len(c.res.Moves) != 1 {
		t.Fatalf("the stale-delta world's grid applied %d moves, want 1", len(c.res.Moves))
	}
}

// moveDelta returns the objective change of moving e from its current bucket
// to target, and whether the move is feasible w.r.t. hard constraints: the
// search's prepare and evalTarget for one pair.
func (s *state) moveDelta(e EntityID, target BucketID) (float64, bool) {
	pr := newPrepared(s)
	s.prepare(&pr, e)
	return s.evalTarget(&pr, target)
}

// TestMoveDeltaAllocFree: the hot loop's contract is zero allocations per
// candidate evaluation — a prepare, its inert check included, and an
// evalTarget into a reused prepared — and per commit: apply, here an apply and the apply that
// moves the entity back, groups present.
func TestMoveDeltaAllocFree(t *testing.T) {
	rng := sim.NewRNG(7)
	p := randomProblem(rng)
	st := newState(p)
	nE, nB := len(p.Entities), len(p.Buckets)
	if len(st.grp.ents) == 0 || st.spread.weight == 0 {
		t.Fatal("seed 7 no longer draws a problem with groups and a spread")
	}
	pr := newPrepared(st)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		st.prepare(&pr, EntityID(i%nE))
		st.evalTarget(&pr, BucketID((i*7)%nB))
		i++
	})
	if allocs > 0 {
		t.Fatalf("prepare and evalTarget allocate %.1f times per call, want 0", allocs)
	}

	for e := range p.Entities {
		if st.assignment[e] == Unassigned {
			st.apply(EntityID(e), 0) // an entity cannot move back to nowhere
		}
	}
	// One run moves every entity onto every bucket and back, so the first
	// (warm-up) run grows each bucket's entity list to the most it will hold.
	probeAll := func() {
		for e := range p.Entities {
			from := st.assignment[e]
			for b := 0; b < nB; b++ {
				st.apply(EntityID(e), BucketID(b))
				st.apply(EntityID(e), from)
			}
		}
	}
	if allocs := testing.AllocsPerRun(5, probeAll); allocs > 0 {
		t.Fatalf("apply and back over every (entity, bucket) allocates %.0f times, want 0", allocs)
	}
}

// TestConflictFeasibilityNeverColocates: moveDelta must refuse any move
// that would colocate two members of one group, with a spread goal (odd
// seeds) or without one.
func TestConflictFeasibilityNeverColocates(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		p := NewProblem(1)
		nB := 2 + rng.Intn(4)
		for i := 0; i < nB; i++ {
			p.AddBucket(Bucket{Capacity: units(1000), Domain: fmt.Sprintf("r%d", i%2)})
		}
		for i := range 12 {
			p.AddEntity(Entity{Load: units(1), Bucket: Unassigned, Movable: true, Group: int32(i % 4)})
		}
		if seed%2 == 1 {
			p.SpreadWeight = 1
		}
		st := newState(p)
		for step := 0; step < 200; step++ {
			e := EntityID(rng.Intn(len(p.Entities)))
			target := BucketID(rng.Intn(nB))
			if _, ok := st.moveDelta(e, target); ok {
				st.apply(e, target)
			}
		}
		// No bucket may hold two members of the same group.
		for b := range p.Buckets {
			seen := map[int32]bool{}
			for _, e := range st.byBucket[b] {
				g := p.Entities[e].Group
				if seen[g] {
					return false
				}
				seen[g] = true
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveIdempotentOnCleanState: solving an already-violation-free
// problem must produce no moves.
func TestSolveIdempotentOnCleanState(t *testing.T) {
	p := buildSkewed(8, 40, 10)
	p.Balance = []BalanceRule{{UtilCap: 0.9, MaxDiff: 0.1, Weight: 1}}
	first := Solve(p, Options{Seed: 1})
	if first.Final.Total() != 0 {
		t.Fatalf("first solve left violations: %+v", first.Final)
	}
	second := Solve(p, Options{Seed: 1})
	if len(second.Moves) != 0 {
		t.Fatalf("second solve produced %d moves on a clean state", len(second.Moves))
	}
	if second.Evaluated != 0 {
		t.Fatalf("second solve evaluated %d candidates, want immediate convergence", second.Evaluated)
	}
}

// TestSearchStateHasNoMaps: what the search reads and writes per candidate is
// flat arrays indexed by small integers (§5.3's incremental evaluation; DESIGN
// §5). The walk follows every field reachable from the search's types and
// fails on a map, so a hashed lookup cannot drift back onto that path.
func TestSearchStateHasNoMaps(t *testing.T) {
	// Where the walk stops, and why.
	stop := map[string]string{
		"*solver.Problem": "the caller's input, read while the state is built",
	}
	seen := map[reflect.Type]bool{}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		if stop[typ.String()] != "" {
			return
		}
		switch typ.Kind() {
		case reflect.Map:
			t.Errorf("%s is a %v", path, typ)
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(path, typ.Elem())
		case reflect.Struct:
			if seen[typ] {
				return
			}
			seen[typ] = true
			for i := 0; i < typ.NumField(); i++ {
				if name := typ.Name() + "." + typ.Field(i).Name; stop[name] == "" {
					walk(name, typ.Field(i).Type)
				}
			}
		}
	}
	for _, root := range []any{state{}, specState{}, grouping{}, rule{}, prepared{}, hotSet{}, solveCtx{}} {
		walk(reflect.TypeOf(root).Name(), reflect.TypeOf(root))
	}
}

// TestCountMatchesAScan: what sync counts for each rule on the grouping — the
// members beyond the first in their (group, domain) — is what a scan entity by
// entity counts; whether each group is at its floor is refAtFloor's answer;
// and the rule's floor is what a set of each group's pinned domains gives: the
// pinned extras, and every movable placed member beyond the domains the pinned
// ones leave free. The groups have the sizes the allocator states (one to
// three members), with members unplaced, alone or sharing a domain, a third
// of them pinned, and a spread on every other trial.
func TestCountMatchesAScan(t *testing.T) {
	rng := sim.NewRNG(5)
	pinnedFloors := 0
	for trial := 0; trial < 200; trial++ {
		p := NewProblem(1)
		nB := 2 + rng.Intn(4)
		for b := 0; b < nB; b++ {
			p.AddBucket(Bucket{Capacity: units(100), Domain: fmt.Sprintf("r%d", b%2)})
		}
		groups := int32(0)
		for ; len(p.Entities) < 30; groups++ {
			for range 1 + rng.Intn(3) {
				p.AddEntity(Entity{Load: units(1), Bucket: BucketID(rng.Intn(nB+1)) - 1,
					Movable: rng.Intn(3) != 0, Group: groups})
			}
		}
		rules := map[string]*rule{}
		if trial%2 == 0 {
			p.SpreadWeight = 1
		}
		st := newState(p)
		rules["bucket"] = &st.conflict
		if st.spread.weight != 0 {
			rules["spread"] = &st.spread
		}
		if v := st.violations(); v.Exclusion != st.spread.extra || (trial%2 == 1 && v.Exclusion != 0) {
			t.Fatalf("trial %d: %d exclusions counted with the spread %v", trial, v.Exclusion, trial%2 == 0)
		}
		for name, r := range rules {
			extra, floor := 0, 0
			for g := int32(0); g < groups; g++ {
				if st.atFloor(r, g) != refAtFloor(st, r, g) {
					t.Fatalf("trial %d, %s rule: group %d at floor %v", trial, name, g, !refAtFloor(st, r, g))
				}
				seen := map[int32]bool{}
				pinned := map[int32]bool{}
				pinnedN, movable := 0, 0
				for _, m := range st.grp.members(g) {
					b := st.assignment[m]
					if b == Unassigned {
						continue
					}
					d := r.dom[b]
					extra += b2i(seen[d])
					seen[d] = true
					if p.Entities[m].Movable {
						movable++
					} else {
						pinnedN++
						pinned[d] = true
					}
				}
				floor += pinnedN - len(pinned) + max(0, movable-(r.n-len(pinned)))
				pinnedFloors += b2i(pinnedN > len(pinned))
			}
			if r.extra != extra {
				t.Fatalf("trial %d, %s rule: sync counts %d extras, the scan %d", trial, name, r.extra, extra)
			}
			if r.floor != floor {
				t.Fatalf("trial %d, %s rule: floor %d, the scan %d", trial, name, r.floor, floor)
			}
		}
	}
	if pinnedFloors == 0 {
		t.Fatal("no group kept an extra among its pinned members")
	}
}
