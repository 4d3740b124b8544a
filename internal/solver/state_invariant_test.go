package solver

import (
	"fmt"
	"math"
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
	excl := make(map[EntityID]string)
	conf := make(map[EntityID]string)
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
		if rng.Intn(2) == 0 {
			excl[id] = fmt.Sprintf("g%d", i%5)
		}
		if rng.Intn(3) == 0 {
			conf[id] = fmt.Sprintf("c%d", i%7)
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
	if len(excl) > 0 {
		p.AddExclusionGoal(ExclusionSpec{Scope: "region", Groups: excl, Weight: 3})
	}
	if len(conf) > 0 {
		p.AddConflict(ExclusionSpec{Scope: ScopeBucket, Groups: conf})
	}
	p.AddDrainGoal(2)
	return p
}

// statesEqual compares incremental aggregate state against a from-scratch
// rebuild.
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
	for xi := range want.excls {
		g, w := &got.excls[xi], &want.excls[xi]
		for k, mem := range w.members {
			if len(g.members[k]) != len(mem) {
				t.Logf("excl %d key %d member count diverged", xi, k)
				return false
			}
		}
		for k, mem := range g.members {
			if len(mem) != 0 && len(w.members[k]) != len(mem) {
				t.Logf("excl %d key %d member count diverged", xi, k)
				return false
			}
		}
	}
	for ci := range want.confs {
		g, w := &got.confs[ci], &want.confs[ci]
		for k, n := range w.counts {
			if g.counts[k] != n {
				t.Logf("conf %d key %d count diverged", ci, k)
				return false
			}
		}
		for k, n := range g.counts {
			if n != 0 && w.counts[k] != n {
				t.Logf("conf %d key %d count diverged", ci, k)
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
	return true
}

// TestIncrementalStateMatchesRebuild is the solver's core invariant: after
// any sequence of applied moves, the incrementally maintained aggregates
// equal a from-scratch rebuild — the property that makes O(1) move deltas
// trustworthy (the paper's objective-tree optimization).
func TestIncrementalStateMatchesRebuild(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		p := randomProblem(rng)
		st := newState(p)
		nB := len(p.Buckets)
		for step := 0; step < 100; step++ {
			e := EntityID(rng.Intn(len(p.Entities)))
			target := BucketID(rng.Intn(nB))
			if st.assignment[e] == target {
				continue
			}
			st.apply(e, target)
			// Keep Problem's view in sync for the rebuild.
			p.Entities[e].Bucket = target
		}
		fresh := newStateFresh(p)
		return statesEqual(t, st, fresh)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
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
		nB := len(p.Buckets)
		for step := 0; step < 1000; step++ {
			e := EntityID(rng.Intn(len(p.Entities)))
			target := BucketID(rng.Intn(nB))
			if st.assignment[e] == target {
				continue
			}
			st.apply(e, target)
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
			total += st.affinityPenalty(EntityID(e), b) + st.drainPenalty(b)
		}
		for xi := range st.excls {
			ex := &st.excls[xi]
			for _, mem := range ex.members {
				if len(mem) > 1 {
					total += ex.weight * float64(len(mem)-1)
				}
			}
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

// TestMoveDeltaAllocFree: the hot loop's contract is zero allocations per
// candidate evaluation.
func TestMoveDeltaAllocFree(t *testing.T) {
	rng := sim.NewRNG(7)
	p := randomProblem(rng)
	st := newState(p)
	nE, nB := len(p.Entities), len(p.Buckets)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		e := EntityID(i % nE)
		b := BucketID((i * 7) % nB)
		st.moveDelta(e, b)
		i++
	})
	if allocs > 0 {
		t.Fatalf("moveDelta allocates %.1f times per call, want 0", allocs)
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
		groups := make(map[EntityID]string)
		for i := 0; i < 12; i++ {
			id := p.AddEntity(Entity{Load: []float64{1}, Bucket: Unassigned, Movable: true})
			groups[id] = fmt.Sprintf("g%d", i%4)
		}
		p.AddConstraint(CapacitySpec{Metric: "cpu"})
		p.AddConflict(ExclusionSpec{Scope: ScopeBucket, Groups: groups})
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
			seen := map[string]bool{}
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
	if second.Rounds > 1 {
		t.Fatalf("second solve took %d rounds, want immediate convergence", second.Rounds)
	}
}
