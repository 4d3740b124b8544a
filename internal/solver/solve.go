package solver

import (
	"cmp"
	"slices"
	"time"

	"shardmanager/internal/sim"
)

// Options configure one Solve call.
type Options struct {
	// EvalBudget bounds the number of candidate-move evaluations; <= 0
	// means no limit. The budget is deterministic: two runs with the same
	// seed stop at the same point. Only tests and benchmarks set it.
	EvalBudget int
	// MoveBudget bounds how many entities end the solve away from their
	// Home (§5.1's churn cap, spent by the search); <= 0 means no limit.
	// Placing an unassigned entity never spends, and an entity moved back
	// home returns its unit. Once the budget is spent, entities at home are
	// pinned and the search goes on with the ones already away.
	MoveBudget int
	// Seed drives the solver's deterministic RNG.
	Seed uint64
	// Uniform draws candidate targets uniformly at random from every
	// bucket instead of across the buckets' domains (see sample): Fig 22's
	// baseline, the search without §5.3's domain knowledge.
	Uniform bool
	// Progress, if set, is invoked after every search round with the
	// current violation counts; experiments use it to plot
	// violations-vs-evaluations curves (Fig 21/22).
	Progress func(ProgressInfo)
}

// ProgressInfo is a snapshot of solver progress.
type ProgressInfo struct {
	// Evaluated counts candidate evaluations so far; it is the
	// deterministic progress axis (same seed -> same snapshots).
	Evaluated  int
	Violations ViolationCounts
}

// Move is one applied reassignment.
type Move struct {
	Entity EntityID
	From   BucketID
	To     BucketID
}

// Result reports the outcome of Solve.
type Result struct {
	// Moves in application order. An entity moved twice appears twice.
	Moves []Move
	// Initial and Final violation counts.
	Initial, Final ViolationCounts
	// Floor is a lower bound on Final, kind by kind, computed from the input
	// (state.floor): the violations no placement the search can reach
	// removes.
	Floor ViolationCounts
	// Evaluated counts candidate moves: the pairs a grid scored and the
	// runner-ups it checked again.
	Evaluated int
	// Elapsed wall-clock time.
	Elapsed time.Duration
}

const improveEps = 1e-9

// maxEntitiesPerBucket is how many entities of a hot bucket one fix attempt
// evaluates.
const maxEntitiesPerBucket = 16

// minTargets is the fewest candidate targets one draw returns; a problem with
// more domains draws one per domain (see sample).
const minTargets = 16

// solveCtx carries one Solve call's mutable machinery: budgets, per-bucket
// candidate caches and reused buffers. All buffers are reused across
// attempts so the hot loop does not allocate, and across Solves of one
// problem (newSolveCtx).
type solveCtx struct {
	p     *Problem
	st    *state
	opt   Options
	rng   *sim.RNG
	res   *Result
	start time.Time

	// byDomain[d] is domain d's buckets (Problem.domains), what sample draws
	// across; k is how many targets a draw returns, rot the domain the next
	// draw starts at, and targets the room a draw is returned in.
	byDomain [][]BucketID
	k, rot   int
	targets  []BucketID

	// entCache[b] is bucket b's movable entities, largest first (bigFirst);
	// valid until a move touches b (see applyMove).
	entCache      [][]EntityID
	entCacheValid []bool

	// preps[:n] are the n candidates candidateEntities offers, prepared.
	preps []prepared
	// picks is gridMoves' answer: each candidate's best improving target.
	picks []pick

	// pending is phase1's list of the entities to place.
	pending []EntityID
	// moves is the room the Solve's Result.Moves is recorded in.
	moves []Move

	// spent counts the entities away from home (kept only under a
	// MoveBudget); cachePinned is whether the entCache lists were built
	// with the budget spent, and so leave out the entities at home.
	spent       int
	cachePinned bool
}

// Solve improves the problem's assignment with local search and returns the
// result. The Problem's Entities' Bucket fields are updated in place to the
// final assignment. The result's Moves are recorded in room the problem keeps:
// they are valid until its next Solve.
func Solve(p *Problem, opt Options) *Result {
	ctx := newSolveCtx(p, opt)
	if len(p.Buckets) > 0 { // with none, nothing can be placed or moved
		ctx.phase1()
		ctx.phase2()
	}

	st, res := ctx.st, ctx.res
	// Room for a move of every entity is the first placement's: kept, it
	// would stay live for good.
	ctx.moves = nil
	if cap(res.Moves) < len(p.Entities) {
		ctx.moves = res.Moves
	}
	if len(res.Moves) == 0 {
		res.Moves = nil // as a problem solved the first time reports none
	}
	res.Final = st.violations()
	res.Elapsed = time.Since(ctx.start)
	// Only a move changes an assignment, and sync read the rest off the
	// entities.
	for _, m := range res.Moves {
		p.Entities[m.Entity].Bucket = st.assignment[m.Entity]
	}
	return res
}

// newSolveCtx brings p's kept state in step with p and readies the search
// machinery around it. The machinery is p's too: its buffers serve the next
// Solve, and a fresh one is made only with a fresh state.
func newSolveCtx(p *Problem, opt Options) *solveCtx {
	st := p.state()
	c := p.ctx
	if c == nil || c.st != st {
		c = &solveCtx{
			p:             p,
			st:            st,
			entCache:      make([][]EntityID, len(p.Buckets)),
			entCacheValid: make([]bool, len(p.Buckets)),
			preps:         make([]prepared, maxEntitiesPerBucket),
		}
		for i := range c.preps {
			c.preps[i] = newPrepared(st)
		}
		p.ctx = c
	} else {
		c.entCache = resize(c.entCache, len(p.Buckets))
		c.entCacheValid = resize(c.entCacheValid, len(p.Buckets))
		clear(c.entCacheValid)
		for i := range c.preps {
			c.preps[i].fit(st)
		}
	}
	c.opt = opt
	c.rng = sim.NewRNG(opt.Seed)
	// The state is synced, so the domains are numbered as this Solve reads
	// them, and the rotation starts afresh.
	c.byDomain = p.domains().buckets
	c.k, c.rot = max(minTargets, len(c.byDomain)), 0
	// Every unplaced entity placed is a move: the room grows for them at once.
	c.res = &Result{Moves: slices.Grow(c.moves[:0], st.unassigned), Initial: st.violations(), Floor: st.floor()}
	c.start = time.Now()
	c.spent, c.cachePinned = 0, false
	if opt.MoveBudget > 0 {
		c.spent = st.away
	}
	return c
}

// bigFirst orders entities largest Load[0] first, ties by ID (§5.3: "SM
// guides ReBalancer to evaluate large shards earlier"; metric 0 is the
// caller's primary metric): a total order, so every sort of one list gives
// one result.
func (c *solveCtx) bigFirst(a, b EntityID) int {
	if la, lb := c.p.Entities[a].Load[0], c.p.Entities[b].Load[0]; la != lb {
		return cmp.Compare(lb, la)
	}
	return cmp.Compare(a, b)
}

// sample draws the candidate targets for one entity: c.k buckets, drawn
// across the buckets' domains (Bucket.Domain) and biased toward cold ones.
// This is the domain-knowledge optimization of §5.3: sampling across domains
// has a much better chance of finding a target that satisfies region
// preference and spread than uniform sampling. Within a domain two buckets
// are drawn and the less utilized one on metric 0 is kept. With more domains
// than c.k a rotation over the domain order decides which domains contribute
// a draw, so successive draws cover every domain. Under Options.Uniform the
// c.k targets are drawn uniformly from every bucket instead. The draw is
// returned in c.targets, which the next draw reuses.
func (c *solveCtx) sample() []BucketID {
	out := c.targets[:0]
	if c.opt.Uniform {
		for range c.k {
			out = append(out, BucketID(c.rng.Intn(len(c.p.Buckets))))
		}
	} else {
		nd := len(c.byDomain)
		perDomain := (c.k + nd - 1) / nd // >= 1, since k >= nd
		start := c.rot % nd
		used := 0
		for di := 0; di < nd && len(out) < c.k; di++ {
			used++
			members := c.byDomain[(start+di)%nd]
			for i := 0; i < perDomain && len(out) < c.k; i++ {
				a := members[c.rng.Intn(len(members))]
				b := members[c.rng.Intn(len(members))]
				if c.st.utilization(b) < c.st.utilization(a) {
					a = b
				}
				out = append(out, a)
			}
		}
		// The next draw starts past the domains this one consumed.
		c.rot = start + used
	}
	c.targets = out
	return out
}

func (c *solveCtx) budgetLeft() bool {
	return c.opt.EvalBudget <= 0 || c.res.Evaluated < c.opt.EvalBudget
}

// away is 1 when entity e on bucket b counts against the move budget: it has
// a home and b is not it.
func (c *solveCtx) away(e EntityID, b BucketID) int {
	if h := c.p.Entities[e].Home; h != Unassigned && b != h {
		return 1
	}
	return 0
}

// movesSpent reports whether the move budget is spent, pinning every entity
// still at home.
func (c *solveCtx) movesSpent() bool {
	return c.opt.MoveBudget > 0 && c.spent >= c.opt.MoveBudget
}

// applyMove commits a move, records it, keeps the move budget's count, and
// invalidates the touched buckets' candidate caches (the state's own
// aggregates update incrementally inside apply).
func (c *solveCtx) applyMove(e EntityID, to BucketID) {
	from := c.st.assignment[e]
	c.res.Moves = append(c.res.Moves, Move{Entity: e, From: from, To: to})
	if c.opt.MoveBudget > 0 {
		c.spent += c.away(e, to) - c.away(e, from)
	}
	c.st.apply(e, to)
	if from != Unassigned {
		c.entCacheValid[from] = false
	}
	c.entCacheValid[to] = false
}

// phase1 (emergency placement) assigns every unassigned entity to its best
// sampled feasible target. This is what the emergency mode (§5.1) does
// first — restore availability, then polish.
func (c *solveCtx) phase1() {
	st := c.st
	if st.unassigned == 0 {
		return
	}
	pending := c.pending[:0]
	for e, b := range st.assignment {
		if b == Unassigned {
			pending = append(pending, EntityID(e))
		}
	}
	c.pending = pending
	slices.SortFunc(pending, c.bigFirst)
	pr := &c.preps[0]
	for _, e := range pending {
		if !c.budgetLeft() {
			break
		}
		st.prepare(pr, e)
		bestDelta := 0.0
		bestTarget := Unassigned
		for _, t := range c.sample() {
			d, ok := st.evalTarget(pr, t)
			c.res.Evaluated++
			if ok && (bestTarget == Unassigned || d < bestDelta) {
				bestDelta, bestTarget = d, t
			}
		}
		if bestTarget != Unassigned {
			c.applyMove(e, bestTarget)
		}
	}
}

// phase2 runs hot-bucket repair epochs. Each iteration pulls the hottest
// unfrozen bucket from the incremental penalty heap (O(log B) instead of the
// former rescan-and-sort of all buckets) and chips away at it; buckets that
// resist improvement are frozen until their penalty changes. When no
// unfrozen bucket is hot the epoch ends: progress is reported, and the
// search either stops (nothing improved this epoch) or thaws everything and
// starts the next epoch.
func (c *solveCtx) phase2() {
	st := c.st
	improved := false
	for c.budgetLeft() {
		b, pen := st.hot.top()
		if b < 0 || pen <= improveEps {
			// Epoch boundary.
			c.fireProgress()
			if !improved {
				break
			}
			st.hot.unfreezeAll()
			b, pen = st.hot.top()
			if b < 0 || pen <= improveEps {
				break
			}
			improved = false
		}
		// Repeatedly chip away at this bucket until it stops improving.
		// §5.3's two-way swaps are not reproduced (DESIGN §2): a bucket no
		// single move improves is frozen.
		for attempt := 0; attempt < 64; attempt++ {
			if !c.budgetLeft() || st.hot.pen[b] <= improveEps {
				break
			}
			picks := c.gridMoves(c.candidateEntities(b), b)
			if len(picks) == 0 {
				st.hot.freeze(b)
				break
			}
			c.applyPicks(picks, b)
			improved = true
		}
	}
}

func (c *solveCtx) fireProgress() {
	if c.opt.Progress == nil {
		return
	}
	c.opt.Progress(ProgressInfo{
		Evaluated:  c.res.Evaluated,
		Violations: c.st.violations(),
	})
}

// candidateEntities picks at most maxEntitiesPerBucket entities of bucket b to
// evaluate this attempt, prepares them into c.preps in order and returns how
// many it picked. They come from the bucket's cached movable list (sorted once
// per invalidation, not per attempt; without the entities at home while the
// move budget is spent). Only the entities that are not inert are offered,
// largest Load[0] first, ties by ID (bigFirst): an inert entity cannot
// improve the objective alone. The walk stops once the cut's worth is
// prepared. Inertness reads domain loads and where the other group members
// sit, which a move in another bucket changes, so it is prepared afresh every
// attempt, never cached.
//
// §5.3's "reuses the computation for equivalent shards" is not reproduced
// (DESIGN §2): a shard's replicas never share a bucket and each carries its
// own exclusion group, so on replicated worlds no two candidates of a bucket
// are interchangeable.
func (c *solveCtx) candidateEntities(b BucketID) int {
	st := c.st
	if spent := c.movesSpent(); spent != c.cachePinned {
		// The budget ran out, or a move home gave a unit back: every
		// list gains or loses its entities at home.
		c.cachePinned = spent
		clear(c.entCacheValid)
	}
	if !c.entCacheValid[b] {
		all := st.byBucket[b]
		cached := c.entCache[b][:0]
		for _, e := range all {
			ent := &c.p.Entities[e]
			if ent.Movable && !(c.cachePinned && ent.Home == b) {
				cached = append(cached, e)
			}
		}
		slices.SortFunc(cached, c.bigFirst)
		c.entCache[b] = cached
		c.entCacheValid[b] = true
	}
	n := 0
	for _, e := range c.entCache[b] {
		if n == maxEntitiesPerBucket {
			break
		}
		if st.prepare(&c.preps[n], e); !c.preps[n].inert {
			n++
		}
	}
	return n
}

// pick is one candidate's best improving target in a grid, and its delta.
type pick struct {
	e     EntityID
	to    BucketID
	delta float64
}

// gridMoves samples targets for every candidate entity, evaluating each
// (entity, target) pair as it is drawn, and returns each candidate's feasible
// target with the most negative delta below -improveEps, ties toward the
// earliest draw, ordered by delta and ties by grid order. The candidates are
// c.preps[:n], as candidateEntities left them: none is inert.
func (c *solveCtx) gridMoves(n int, hotB BucketID) []pick {
	st := c.st
	picks := c.picks[:0]
	for pi := range n {
		pr := &c.preps[pi]
		best := pick{e: pr.e, to: Unassigned, delta: -improveEps}
		for _, t := range c.sample() {
			if t == hotB {
				continue
			}
			c.res.Evaluated++
			if d, ok := st.evalTarget(pr, t); ok && d < best.delta {
				best.to, best.delta = t, d
			}
		}
		if best.to != Unassigned {
			picks = append(picks, best)
		}
	}
	slices.SortStableFunc(picks, func(a, b pick) int { return cmp.Compare(a.delta, b.delta) })
	c.picks = picks
	return picks
}

// applyPicks applies a grid's best move, then walks the runner-ups in order
// and applies each that still improves: its grid delta is stale once a move
// is applied, so it is prepared and evaluated again against the state as it
// stands, and the check counts in Result.Evaluated. The walk stops when the
// bucket is no longer hot or a budget is spent. The picks are distinct
// entities of the bucket, so none has left it before its turn.
func (c *solveCtx) applyPicks(picks []pick, b BucketID) {
	st := c.st
	c.applyMove(picks[0].e, picks[0].to)
	pr := &c.preps[0]
	for _, pk := range picks[1:] {
		if st.hot.pen[b] <= improveEps || c.movesSpent() || !c.budgetLeft() {
			return
		}
		st.prepare(pr, pk.e)
		c.res.Evaluated++
		if d, ok := st.evalTarget(pr, pk.to); ok && d < -improveEps {
			c.applyMove(pk.e, pk.to)
		}
	}
}
