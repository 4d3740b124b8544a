package solver

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"shardmanager/internal/sim"
)

// randomProblem builds a random instance exercising every spec type.
func randomProblem(rng *sim.RNG) *Problem {
	nB := 3 + rng.Intn(6)
	nE := 5 + rng.Intn(40)
	p := NewProblem([]string{"cpu", "mem"})
	for i := 0; i < nB; i++ {
		p.AddBucket(Bucket{
			Name:     fmt.Sprintf("b%d", i),
			Capacity: []float64{50 + 100*rng.Float64(), 200},
			Props: map[string]string{
				"region": fmt.Sprintf("r%d", i%3),
				"rack":   fmt.Sprintf("rk%d", i%2),
			},
			Group:    fmt.Sprintf("r%d", i%3),
			Draining: rng.Intn(5) == 0,
		})
	}
	const nExcl, nConf = 5, 7
	excl := make([]int32, nE)
	conf := make([]int32, nE)
	hasExcl, hasConf := false, false
	for i := 0; i < nE; i++ {
		b := BucketID(rng.Intn(nB))
		if rng.Intn(8) == 0 {
			b = Unassigned
		}
		id := p.AddEntity(Entity{
			Load:    []float64{1 + 9*rng.Float64(), 1 + 4*rng.Float64()},
			Bucket:  b,
			Movable: true,
		})
		excl[id], conf[id] = -1, -1
		if rng.Intn(2) == 0 {
			excl[id], hasExcl = int32(i%nExcl), true
		}
		if rng.Intn(3) == 0 {
			conf[id], hasConf = int32(i%nConf), true
		}
		if rng.Intn(3) == 0 {
			p.AddAffinityGoal(AffinityGoal{
				Scope: "region", Entity: id,
				Domain: fmt.Sprintf("r%d", rng.Intn(3)), Weight: 1 + rng.Float64(),
			})
		}
	}
	p.AddConstraint(CapacitySpec{Metric: "cpu"})
	p.AddConstraint(CapacitySpec{Metric: "mem", Scope: "rack"})
	p.AddBalanceGoal(BalanceSpec{Metric: "cpu", UtilCap: 0.9, MaxDiff: 0.1, Weight: 1})
	p.AddBalanceGoal(BalanceSpec{Metric: "mem", Scope: "region", MaxDiff: 0.2, Weight: 0.5})
	if hasExcl {
		p.AddExclusionGoal(ExclusionSpec{Scope: "region", Group: excl, NumGroups: nExcl, Weight: 3})
	}
	if hasConf {
		p.AddConflict(ExclusionSpec{Scope: ScopeBucket, Group: conf, NumGroups: nConf})
	}
	p.AddDrainGoal(2)
	return p
}

// occupancyRef is the test's own copy of what the solver derives from the
// assignment: for one exclusion or conflict spec, the entities of each
// (group, domain), kept as the map the solver used to keep. The walks update it
// beside every apply and compare the scan's answers with it after every step.
type occupancyRef map[uint64][]EntityID

func refKey(group, dom int32) uint64 { return uint64(uint32(group))<<32 | uint64(uint32(dom)) }

func newOccupancyRef(cs *confState, assignment []BucketID) occupancyRef {
	ref := occupancyRef{}
	for e, g := range cs.entGroup {
		if b := assignment[e]; g >= 0 && b != Unassigned {
			k := refKey(g, cs.dom.bucketDom[b])
			ref[k] = append(ref[k], EntityID(e))
		}
	}
	return ref
}

// move records e going from one bucket (or none) to another.
func (ref occupancyRef) move(cs *confState, e EntityID, from, to BucketID) {
	g := cs.entGroup[e]
	if g < 0 {
		return
	}
	if from != Unassigned {
		k := refKey(g, cs.dom.bucketDom[from])
		for i, m := range ref[k] {
			if m == e {
				ref[k] = append(ref[k][:i:i], ref[k][i+1:]...)
				break
			}
		}
	}
	k := refKey(g, cs.dom.bucketDom[to])
	ref[k] = append(ref[k], e)
}

// check compares the scan with the reference for every (group, domain) and
// every entity the solver can ask on behalf of: none, and each member of the
// group (which the scan must not count, wherever it sits).
func (ref occupancyRef) check(t *testing.T, cs *confState, assignment []BucketID) bool {
	t.Helper()
	extras := 0
	for g := int32(0); int(g)+1 < len(cs.start); g++ {
		askers := append([]EntityID{-1}, cs.ents[cs.start[g]:cs.start[g+1]]...)
		for d := int32(0); int(d) < cs.dom.numDomains(); d++ {
			all := ref[refKey(g, d)]
			if len(all) > 1 {
				extras += len(all) - 1
			}
			for _, e := range askers {
				var want []EntityID
				for _, m := range all {
					if m != e {
						want = append(want, m)
					}
				}
				n, sole := cs.others(assignment, g, d, e)
				if n != len(want) || (n == 1 && sole != want[0]) {
					t.Logf("group %d domain %d asked by %d: scan says %d (sole %d), reference holds %v", g, d, e, n, sole, want)
					return false
				}
			}
		}
	}
	if got := cs.colocated(assignment); got != extras {
		t.Logf("colocated = %d, reference holds %d extras", got, extras)
		return false
	}
	return true
}

// occupancyRefs is one reference per spec of a state, exclusions first.
type occupancyRefs struct {
	st    *state
	specs []*confState
	refs  []occupancyRef
}

func newOccupancyRefs(st *state) *occupancyRefs {
	o := &occupancyRefs{st: st}
	for xi := range st.excls {
		o.specs = append(o.specs, &st.excls[xi].confState)
	}
	for ci := range st.confs {
		o.specs = append(o.specs, &st.confs[ci])
	}
	for _, cs := range o.specs {
		o.refs = append(o.refs, newOccupancyRef(cs, st.assignment))
	}
	return o
}

// apply moves e on the state and on every reference, then checks them.
func (o *occupancyRefs) apply(t *testing.T, e EntityID, to BucketID) bool {
	t.Helper()
	from := o.st.assignment[e]
	o.st.apply(e, to)
	for i, cs := range o.specs {
		o.refs[i].move(cs, e, from, to)
		if !o.refs[i].check(t, cs, o.st.assignment) {
			t.Logf("spec %d after moving %d from %d to %d", i, e, from, to)
			return false
		}
	}
	return true
}

// statesEqual compares the incrementally maintained aggregates against a
// from-scratch rebuild.
func statesEqual(t *testing.T, got, want *state) bool {
	t.Helper()
	for si := range want.specs {
		g, w := &got.specs[si], &want.specs[si]
		for d := range w.load {
			if math.Abs(g.load[d]-w.load[d]) > 1e-6 {
				t.Logf("spec %d domain %d load diverged: %v vs %v", si, d, g.load[d], w.load[d])
				return false
			}
		}
	}
	for b := range want.bucketLoad {
		for m := range want.bucketLoad[b] {
			if math.Abs(got.bucketLoad[b][m]-want.bucketLoad[b][m]) > 1e-6 {
				t.Logf("bucketLoad[%d][%d] diverged", b, m)
				return false
			}
		}
	}
	if got.unassigned != want.unassigned {
		t.Logf("unassigned = %d, rebuild counts %d", got.unassigned, want.unassigned)
		return false
	}
	return true
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
// objective, asking each entity's group where its peers sit: the reference
// for seedPenalty (equal to the bit at sync) and for the penalties apply
// maintains.
func (s *state) bucketPenalty(b BucketID) float64 {
	var pen float64
	for si := range s.specs {
		sp := &s.specs[si]
		d := sp.dom.bucketDom[b]
		pen += sp.domPenalty(d, sp.load[d])
	}
	for _, e := range s.byBucket[b] {
		pen += s.affinityPenalty(e, b) + s.drainPen[b]
		for xi := range s.excls {
			ex := &s.excls[xi]
			if g := ex.entGroup[e]; g >= 0 {
				if n, _ := ex.others(s.assignment, g, ex.dom.bucketDom[b], e); n >= 1 {
					pen += ex.weight
				}
			}
		}
	}
	return pen
}

// newStateFresh rebuilds solver state with a fresh domain table, as a solver
// entry point would; reusing p's existing (lazily grown) table is fine too,
// but a fresh one also re-exercises interning.
func newStateFresh(p *Problem) *state {
	p.domTable = nil
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
		if sv, fv := st.violations(), fresh.violations(); sv != fv {
			t.Fatalf("seed %d: violations diverged: %+v vs %+v", seed, sv, fv)
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

// TestMoveDeltaMatchesAppliedObjective checks that moveDelta's prediction
// equals the actual objective change measured by full evaluation.
func TestMoveDeltaMatchesAppliedObjective(t *testing.T) {
	objective := func(st *state) float64 {
		var total float64
		for si := range st.specs {
			sp := &st.specs[si]
			for d := range sp.load {
				total += sp.domPenalty(int32(d), sp.load[d])
			}
		}
		for e := range st.p.Entities {
			b := st.assignment[e]
			if b == Unassigned {
				total += unassignedPenalty
				continue
			}
			total += st.affinityPenalty(EntityID(e), b) + st.drainPen[b]
		}
		for xi := range st.excls {
			ex := &st.excls[xi]
			total += ex.weight * float64(ex.colocated(st.assignment))
		}
		return total
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
// term counts: inert() ignoring base, fromDelta or exFromDelta fails here.
func TestInertEntitiesCannotImprove(t *testing.T) {
	singles := 0
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
				if !pr.inert() {
					continue
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
	if singles == 0 {
		t.Fatal("the worlds checked no inert moves")
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
// candidate evaluation — a prepare, an inert check and an evalTarget into a
// reused prepared — and per commit: apply, here an apply and the apply that
// moves the entity back, groups present.
func TestMoveDeltaAllocFree(t *testing.T) {
	rng := sim.NewRNG(7)
	p := randomProblem(rng)
	st := newState(p)
	nE, nB := len(p.Entities), len(p.Buckets)
	if len(st.excls) == 0 || len(st.confs) == 0 {
		t.Fatal("seed 7 no longer draws a problem with both group specs")
	}
	pr := newPrepared(st)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		st.prepare(&pr, EntityID(i%nE))
		pr.inert()
		st.evalTarget(&pr, BucketID((i*7)%nB))
		i++
	})
	if allocs > 0 {
		t.Fatalf("prepare, inert and evalTarget allocate %.1f times per call, want 0", allocs)
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
// that would colocate two hard-conflict group members.
func TestConflictFeasibilityNeverColocates(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		p := NewProblem([]string{"cpu"})
		nB := 2 + rng.Intn(4)
		for i := 0; i < nB; i++ {
			p.AddBucket(Bucket{Name: fmt.Sprintf("b%d", i), Capacity: []float64{1000}})
		}
		groups := make([]int32, 12)
		for i := range groups {
			p.AddEntity(Entity{Load: []float64{1}, Bucket: Unassigned, Movable: true})
			groups[i] = int32(i % 4)
		}
		p.AddConstraint(CapacitySpec{Metric: "cpu"})
		p.AddConflict(ExclusionSpec{Scope: ScopeBucket, Group: groups, NumGroups: 4})
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
				g := groups[e]
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
	p.AddConstraint(CapacitySpec{Metric: "cpu"})
	p.AddBalanceGoal(BalanceSpec{Metric: "cpu", UtilCap: 0.9, MaxDiff: 0.1, Weight: 1})
	first := Solve(p, DefaultOptions())
	if first.Final.Total() != 0 {
		t.Fatalf("first solve left violations: %+v", first.Final)
	}
	second := Solve(p, DefaultOptions())
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
		"*solver.Problem":    "the caller's input, read while the state is built",
		"scopeDomains.index": "build-time lookup of an affinity goal's domain name",
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
	for _, root := range []any{state{}, specState{}, exclState{}, confState{}, prepared{}, hotSet{}, solveCtx{}} {
		walk(reflect.TypeOf(root).Name(), reflect.TypeOf(root))
	}
}

// TestWalkMatchesOthers: what sync's walks find — each spec's count of
// entities beyond the first in their (group, domain), and whether each placed
// entity shares its domain — is what others answers entity by entity, on
// groups of the sizes the allocator states (one to three members) with
// members unplaced, alone or sharing a domain.
func TestWalkMatchesOthers(t *testing.T) {
	rng := sim.NewRNG(5)
	for trial := 0; trial < 200; trial++ {
		p := NewProblem([]string{"cpu"})
		nB := 2 + rng.Intn(4)
		for b := 0; b < nB; b++ {
			p.AddBucket(Bucket{Name: fmt.Sprintf("b%d", b), Capacity: []float64{10},
				Props: map[string]string{"region": fmt.Sprintf("r%d", b%2)}})
		}
		var group []int32
		for g := int32(0); len(group) < 30; g++ {
			for range 1 + rng.Intn(3) {
				group = append(group, g)
				p.AddEntity(Entity{Load: []float64{1}, Bucket: BucketID(rng.Intn(nB+1)) - 1, Movable: true})
			}
		}
		groups := int(group[len(group)-1]) + 1
		p.AddConflict(ExclusionSpec{Scope: ScopeBucket, Group: group, NumGroups: groups})
		p.AddExclusionGoal(ExclusionSpec{Scope: "region", Group: group, NumGroups: groups, Weight: 1})
		st := newState(p)
		for i, cs := range []*confState{&st.confs[0], &st.excls[0].confState} {
			extra := 0
			for e, b := range st.assignment {
				if b == Unassigned {
					continue
				}
				n, _ := cs.others(st.assignment, cs.entGroup[e], cs.dom.bucketDom[b], EntityID(e))
				earlier := 0
				for _, m := range cs.ents[cs.start[cs.entGroup[e]]:cs.start[cs.entGroup[e]+1]] {
					if m < EntityID(e) && st.assignment[m] != Unassigned && cs.dom.bucketDom[st.assignment[m]] == cs.dom.bucketDom[b] {
						earlier++
					}
				}
				if earlier > 0 {
					extra++
				}
				if i == 1 && st.crowd[0][e] != (n >= 1) {
					t.Fatalf("trial %d: entity %d crowded %v, others counts %d", trial, e, st.crowd[0][e], n)
				}
			}
			if cs.extra != extra {
				t.Fatalf("trial %d, spec %d: walk counts %d extras, others %d", trial, i, cs.extra, extra)
			}
		}
	}
}
