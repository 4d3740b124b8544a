package solver

import (
	"slices"
	"testing"

	"shardmanager/internal/sim"
)

// awayFromHome counts the entities with a home that sit elsewhere: what
// Options.MoveBudget bounds.
func awayFromHome(p *Problem) int {
	n := 0
	for i := range p.Entities {
		if e := &p.Entities[i]; e.Home != Unassigned && e.Bucket != e.Home {
			n++
		}
	}
	return n
}

// TestMoveBudgetAboveEntityCountChangesNothing: a budget no search can spend
// leaves the search exactly as it is without one — the same moves, the same
// evaluations, the same final assignment — on the replicated shape the
// allocator solves for lb_churn. Each solve stops at an lb_churn allocation's
// worth of evaluations, which keeps 20 seeds inside a race-enabled test run.
func TestMoveBudgetAboveEntityCountChangesNothing(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		solve := func(budget int) (*Problem, *Result) {
			p := replicatedProblem(sim.NewRNG(seed))
			return p, Solve(p, Options{Seed: seed, EvalBudget: 60_000, MoveBudget: budget})
		}
		p0, r0 := solve(0)
		pb, rb := solve(len(p0.Entities))
		if !slices.Equal(r0.Moves, rb.Moves) || r0.Evaluated != rb.Evaluated {
			t.Fatalf("seed %d: budget %d gave %d moves / %d evaluations, no budget %d / %d",
				seed, len(p0.Entities), len(rb.Moves), rb.Evaluated, len(r0.Moves), r0.Evaluated)
		}
		for e := range p0.Entities {
			if p0.Entities[e].Bucket != pb.Entities[e].Bucket {
				t.Fatalf("seed %d: entity %d ends on %d with the budget, %d without", seed, e, pb.Entities[e].Bucket, p0.Entities[e].Bucket)
			}
		}
	}
}

// TestMoveBudgetBoundsEntitiesAwayFromHome walks random problems of every
// spec type through two solves each — the second starting where the first
// left off, as the allocator's goal stages do — and checks after each that no
// more than the budget of homed entities are away. Some solves must end at the
// budget, or the bound went untested.
func TestMoveBudgetBoundsEntitiesAwayFromHome(t *testing.T) {
	bound := 0
	for seed := uint64(1); seed <= 200; seed++ {
		rng := sim.NewRNG(seed)
		p := randomProblem(rng)
		budget := 1 + rng.Intn(4)
		for stage := uint64(0); stage < 2; stage++ {
			Solve(p, Options{Seed: seed*2 + stage, MoveBudget: budget})
			if n := awayFromHome(p); n > budget {
				t.Fatalf("seed %d stage %d: %d entities away from home, budget %d", seed, stage, n, budget)
			} else if n == budget {
				bound++
			}
		}
	}
	if bound == 0 {
		t.Fatal("no solve ended at the budget: the walk no longer reaches the bound")
	}
}

// TestMoveBudgetSpentOnlyByLeavingHome: placing an entity that had no bucket
// spends nothing, and neither does moving one already away from home; the
// entities still at home are the ones a spent budget pins.
func TestMoveBudgetSpentOnlyByLeavingHome(t *testing.T) {
	t.Run("placements", func(t *testing.T) {
		// Twenty unplaced entities and one at home on a draining bucket,
		// budget one: every placement is free, so the drain move still fits.
		p := NewProblem(1)
		drain := p.AddBucket(Bucket{Capacity: []float64{100}, Draining: true})
		for i := 0; i < 3; i++ {
			p.AddBucket(Bucket{Capacity: []float64{100}})
		}
		homed := p.AddEntity(Entity{Load: []float64{1}, Bucket: drain, Movable: true, Group: -1})
		for i := 0; i < 20; i++ {
			p.AddEntity(Entity{Load: []float64{1}, Bucket: Unassigned, Movable: true, Group: -1})
		}
		p.DrainWeight = 10
		res := Solve(p, Options{Seed: 1, MoveBudget: 1})
		if res.Final.Unassigned != 0 || p.Entities[homed].Bucket == drain {
			t.Fatalf("final %+v, homed entity on %d: placements spent the budget", res.Final, p.Entities[homed].Bucket)
		}
	})
	t.Run("already away", func(t *testing.T) {
		// x's home is A, an earlier solve left it on B; y is at home on D.
		// A, B and D drain. The budget of one is spent on x before the
		// search begins: x may still leave B for C, y may not leave D.
		p := NewProblem(1)
		a := p.AddBucket(Bucket{Capacity: []float64{100}, Draining: true})
		b := p.AddBucket(Bucket{Capacity: []float64{100}, Draining: true})
		c := p.AddBucket(Bucket{Capacity: []float64{100}})
		d := p.AddBucket(Bucket{Capacity: []float64{100}, Draining: true})
		x := p.AddEntity(Entity{Load: []float64{1}, Bucket: a, Movable: true, Group: -1})
		y := p.AddEntity(Entity{Load: []float64{1}, Bucket: d, Movable: true, Group: -1})
		p.Entities[x].Bucket = b
		p.DrainWeight = 10
		Solve(p, Options{Seed: 1, MoveBudget: 1})
		if got := p.Entities[x].Bucket; got != c {
			t.Errorf("x ends on %d, want C (%d): an entity away from home stays movable", got, c)
		}
		if got := p.Entities[y].Bucket; got != d {
			t.Errorf("y ends on %d, want D (%d): the spent budget pins it at home", got, d)
		}
	})
}

// TestSolveWithoutBucketsPlacesNothing: with no bucket to place on, a solve
// of an unplaced entity makes no move and counts the entity unplaced, under
// both draws (a domain-guided draw over no domain, a uniform one over no
// bucket).
func TestSolveWithoutBucketsPlacesNothing(t *testing.T) {
	for _, opt := range []Options{{Seed: 1}, {Seed: 1, Uniform: true}} {
		p := NewProblem(1)
		e := p.AddEntity(Entity{Load: []float64{1}, Bucket: Unassigned, Movable: true, Group: -1})
		res := Solve(p, opt)
		if len(res.Moves) != 0 || res.Final.Unassigned != 1 || p.Entities[e].Bucket != Unassigned {
			t.Fatalf("uniform=%v: moves %v, final %+v, entity on %d; want no move and one unplaced entity",
				opt.Uniform, res.Moves, res.Final, p.Entities[e].Bucket)
		}
	}
}
