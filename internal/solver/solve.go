package solver

import (
	"cmp"
	"slices"
	"time"

	"shardmanager/internal/sim"
)

// View gives samplers read access to the evolving assignment so they can
// prefer underloaded targets.
type View struct {
	st *state
}

// Utilization returns bucket b's current utilization for metric index m
// (load / capacity; +Inf-free: zero capacity with load returns 1e18).
func (v *View) Utilization(b BucketID, m int) float64 {
	c := v.st.p.Buckets[b].Capacity[m]
	l := v.st.bucketLoad[b][m]
	if c <= 0 {
		if l > 0 {
			return 1e18
		}
		return 0
	}
	return l / c
}

// Sampler picks candidate target buckets for an entity. It may return fewer
// than k buckets; duplicates are tolerated. The returned slice is only valid
// until the next call — samplers may reuse its backing array, and the solver
// consumes each batch before sampling again.
type Sampler func(rng *sim.RNG, e EntityID, k int, view *View) []BucketID

// RandomSampler samples buckets uniformly — the baseline that Fig 22
// compares against grouped, utilization-aware sampling.
func RandomSampler(p *Problem) Sampler {
	n := len(p.Buckets)
	var out []BucketID
	return func(rng *sim.RNG, _ EntityID, k int, _ *View) []BucketID {
		out = out[:0]
		for i := 0; i < k; i++ {
			out = append(out, BucketID(rng.Intn(n)))
		}
		return out
	}
}

// GroupedSampler groups buckets by their Group tag and draws candidates
// across groups, preferring underloaded buckets within each group. This is
// the domain-knowledge optimization of §5.3: sampling across groups has a
// much better chance of finding a target that satisfies region-preference
// and spread goals than uniform sampling.
//
// At most k candidates are returned. With more groups than k, a rotation
// over the group order decides which groups contribute this call, so every
// group is covered across successive calls and candidate counts still match
// CandidateTargets.
func GroupedSampler(p *Problem, utilMetric int) Sampler {
	byGroup := p.bucketGroups()
	var rot int
	var out []BucketID
	return func(rng *sim.RNG, _ EntityID, k int, view *View) []BucketID {
		if k <= 0 {
			return nil
		}
		ng := len(byGroup)
		perGroup := (k + ng - 1) / ng // >= 1, since k >= 1
		start := rot % ng
		used := 0
		out = out[:0]
		for gi := 0; gi < ng && len(out) < k; gi++ {
			used++
			members := byGroup[(start+gi)%ng]
			// Draw 2x candidates, keep the least-utilized half:
			// cheap bias toward cold targets.
			for i := 0; i < perGroup && len(out) < k; i++ {
				a := members[rng.Intn(len(members))]
				b := members[rng.Intn(len(members))]
				if view.Utilization(b, utilMetric) < view.Utilization(a, utilMetric) {
					a = b
				}
				out = append(out, a)
			}
		}
		// Advance the rotation past the groups consumed, so the next
		// call starts where this one left off and all groups get
		// covered across successive calls.
		rot = start + used
		return out
	}
}

// bucketGroups returns the buckets grouped by their Group tag, groups in order
// of first appearance, each in bucket order: indexed by group position, since
// the sampler is the solver's hottest caller-supplied code and must not hash
// strings. It is built once and kept with the problem, as the domain table is.
func (p *Problem) bucketGroups() [][]BucketID {
	n := 0
	for _, g := range p.groups {
		n += len(g)
	}
	if p.groups != nil && n == len(p.Buckets) {
		return p.groups
	}
	index := make(map[string]int)
	p.groups = nil
	for b := range p.Buckets {
		g, ok := index[p.Buckets[b].Group]
		if !ok {
			g = len(p.groups)
			index[p.Buckets[b].Group] = g
			p.groups = append(p.groups, nil)
		}
		p.groups[g] = append(p.groups[g], BucketID(b))
	}
	return p.groups
}

// Options configure one Solve call.
type Options struct {
	// TimeLimit bounds wall-clock solving time; <= 0 means no limit.
	TimeLimit time.Duration
	// EvalBudget bounds the number of candidate-move evaluations; <= 0
	// means no limit. Unlike TimeLimit, an evaluation budget is
	// deterministic: two runs with the same seed stop at the same point.
	// Only tests and benchmarks set it.
	EvalBudget int
	// MoveBudget bounds how many entities end the solve away from their
	// Home (§5.1's churn cap, spent by the search); <= 0 means no limit.
	// Placing an unassigned entity never spends, and an entity moved back
	// home returns its unit. Once the budget is spent, entities at home are
	// pinned and the search goes on with the ones already away.
	MoveBudget int
	// CandidateTargets is how many target buckets to sample per entity
	// (default 16).
	CandidateTargets int
	// BigFirst evaluates a hot bucket's largest entities first (§5.3:
	// "SM guides ReBalancer to evaluate large shards earlier"), largest by
	// metric 0, the caller's primary metric. It orders the entities that
	// carry the bucket's penalty; the inert ones, which cannot help alone,
	// come after all of them. Off, a hot bucket's entities are shuffled.
	BigFirst bool
	// Sampler picks candidate targets (default RandomSampler).
	Sampler Sampler
	// Seed drives the solver's deterministic RNG.
	Seed uint64
	// Progress, if set, is invoked after every search round with the
	// current violation counts; experiments use it to plot
	// violations-vs-evaluations curves (Fig 21/22).
	Progress func(ProgressInfo)
}

// DefaultOptions returns the fully optimized configuration.
func DefaultOptions() Options {
	return Options{
		CandidateTargets: 16,
		BigFirst:         true,
		Seed:             1,
	}
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
	// Evaluated counts candidate moves: pairs considered, scored or pruned.
	Evaluated int
	// Elapsed wall-clock time.
	Elapsed time.Duration
}

const improveEps = 1e-9

// maxEntitiesPerBucket is how many entities of a hot bucket one fix attempt
// evaluates.
const maxEntitiesPerBucket = 16

// solveCtx carries one Solve call's mutable machinery: budgets, per-bucket
// candidate caches and reused buffers. All buffers are reused across
// attempts so the hot loop does not allocate, and across Solves of one
// problem (newSolveCtx).
type solveCtx struct {
	p        *Problem
	st       *state
	opt      Options
	rng      *sim.RNG
	view     *View
	res      *Result
	start    time.Time
	deadline time.Time

	// entCache[b] is bucket b's movable entities, sorted for BigFirst;
	// valid until a move touches b (see applyMove).
	entCache      [][]EntityID
	entCacheValid []bool
	// cands is the shuffled copy of a bucket's list without BigFirst.
	cands []EntityID

	// preps[:n] are the n candidates candidateEntities offers, prepared; the
	// second half of preps parks the inert entities it walks past.
	preps []prepared

	// pending is phase1's list of the entities to place.
	pending []EntityID

	// spent counts the entities away from home (kept only under a
	// MoveBudget); cachePinned is whether the entCache lists were built
	// with the budget spent, and so leave out the entities at home.
	spent       int
	cachePinned bool
}

// Solve improves the problem's assignment with local search and returns the
// result. The Problem's Entities' Bucket fields are updated in place to the
// final assignment.
func Solve(p *Problem, opt Options) *Result {
	ctx := newSolveCtx(p, opt)
	ctx.phase1()
	ctx.phase2()

	st, res := ctx.st, ctx.res
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
// machinery around it, with opt's defaults filled in. The machinery is p's
// too: its buffers serve the next Solve, and a fresh one is made only with a
// fresh state.
func newSolveCtx(p *Problem, opt Options) *solveCtx {
	if opt.CandidateTargets <= 0 {
		opt.CandidateTargets = 16
	}
	if opt.Sampler == nil {
		opt.Sampler = RandomSampler(p)
	}
	st := p.state()
	c := p.ctx
	if c == nil || c.st != st {
		c = &solveCtx{
			p:             p,
			st:            st,
			view:          &View{st: st},
			entCache:      make([][]EntityID, len(p.Buckets)),
			entCacheValid: make([]bool, len(p.Buckets)),
			preps:         make([]prepared, 2*maxEntitiesPerBucket),
		}
		for i := range c.preps {
			c.preps[i] = newPrepared(st)
		}
		p.ctx = c
	} else {
		clear(c.entCacheValid)
		for i := range c.preps {
			c.preps[i].fit(st)
		}
	}
	c.opt = opt
	c.rng = sim.NewRNG(opt.Seed)
	c.res = &Result{Initial: st.violations()}
	c.start = time.Now()
	c.deadline = time.Time{}
	if opt.TimeLimit > 0 {
		c.deadline = c.start.Add(opt.TimeLimit)
	}
	c.spent, c.cachePinned = 0, false
	if opt.MoveBudget > 0 {
		c.spent = st.away
	}
	return c
}

// bigFirst orders entities largest Load[0] first, ties by ID: a total order,
// so every sort of one list gives one result.
func (c *solveCtx) bigFirst(a, b EntityID) int {
	if la, lb := c.p.Entities[a].Load[0], c.p.Entities[b].Load[0]; la != lb {
		return cmp.Compare(lb, la)
	}
	return cmp.Compare(a, b)
}

func (c *solveCtx) budgetLeft() bool {
	if c.opt.EvalBudget > 0 && c.res.Evaluated >= c.opt.EvalBudget {
		return false
	}
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		return false
	}
	return true
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
	st, opt := c.st, &c.opt
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
		for _, t := range opt.Sampler(c.rng, e, opt.CandidateTargets, c.view) {
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
			e, t, found := c.bestGridMove(c.candidateEntities(b), b)
			if !found {
				st.hot.freeze(b)
				break
			}
			c.applyMove(e, t)
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
// move budget is spent). With BigFirst the entities that carry penalty come
// first and the inert ones after, each part largest Load[0] first, ties by ID,
// and the cut comes after the partition: an inert entity cannot improve the
// objective alone, so it only fills the slots the carrying ones leave. The walk
// stops once the cut's worth of carrying entities is prepared. Inertness reads
// domain loads and where the other group members sit, which a move in another
// bucket changes, so it is prepared afresh every attempt, never cached. Without
// BigFirst the whole list is shuffled and cut, unpartitioned.
//
// §5.3's "reuses the computation for equivalent shards" is not reproduced
// (DESIGN §2): a shard's replicas never share a bucket and each carries its
// own exclusion group, so on replicated worlds no two candidates of a bucket
// are interchangeable.
func (c *solveCtx) candidateEntities(b BucketID) int {
	st, opt := c.st, &c.opt
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
		if opt.BigFirst {
			slices.SortFunc(cached, c.bigFirst)
		}
		c.entCache[b] = cached
		c.entCacheValid[b] = true
	}
	ents := c.entCache[b]
	if !opt.BigFirst {
		// Random order is per-attempt, so shuffle a reused copy and
		// leave the cache intact.
		cs := append(c.cands[:0], ents...)
		c.rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		c.cands = cs
		n := min(len(cs), maxEntitiesPerBucket)
		for i, e := range cs[:n] {
			st.prepare(&c.preps[i], e)
		}
		return n
	}
	// Carrying entities are prepared in place, into preps[:nc]; an inert one
	// is parked in the second half and moved in behind them after the walk.
	// Swapping prepared values swaps slice headers, so nothing allocates.
	const k = maxEntitiesPerBucket
	nc, ni := 0, 0
	for _, e := range ents {
		if nc == k {
			break
		}
		st.prepare(&c.preps[nc], e)
		if !c.preps[nc].inert() {
			nc++
		} else if ni < k {
			c.preps[nc], c.preps[k+ni] = c.preps[k+ni], c.preps[nc]
			ni++
		}
	}
	fill := min(ni, k-nc)
	for i := range fill {
		c.preps[nc+i], c.preps[k+i] = c.preps[k+i], c.preps[nc+i]
	}
	return nc + fill
}

// bestGridMove samples targets for every candidate entity, evaluating each
// (entity, target) pair as it is drawn, and returns the feasible pair with the
// most negative delta. Ties break toward the earliest pair. The candidates are
// c.preps[:n], as candidateEntities left them. An inert entity's pairs cannot
// beat -improveEps, so they are pruned, not scored; its targets are still
// sampled (the RNG draws and the sampler's rotation do not depend on which
// entities are inert) and still counted in Result.Evaluated.
func (c *solveCtx) bestGridMove(n int, hotB BucketID) (EntityID, BucketID, bool) {
	st, opt := c.st, &c.opt
	bestPrep, bestTarget := -1, Unassigned
	bestDelta := -improveEps
	for pi := range n {
		pr := &c.preps[pi]
		inert := pr.inert()
		for _, t := range opt.Sampler(c.rng, pr.e, opt.CandidateTargets, c.view) {
			if t == hotB {
				continue
			}
			c.res.Evaluated++
			if inert {
				continue
			}
			if d, ok := st.evalTarget(pr, t); ok && d < bestDelta {
				bestDelta, bestPrep, bestTarget = d, pi, t
			}
		}
	}
	if bestPrep < 0 {
		return 0, Unassigned, false
	}
	return c.preps[bestPrep].e, bestTarget, true
}
