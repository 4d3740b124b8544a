// Package solver implements a generic constraint solver for assignment
// problems, modeled after ReBalancer (§5.2): callers describe entities
// (shard replicas) and their one grouping (a shard's replicas, which never
// share a bucket), buckets (servers) with a capacity per metric, which is
// always hard, and weighted soft goals, each a field of the problem, and the
// solver improves the assignment with local search (§5.3).
//
// The solver is domain-independent: it knows nothing about shards, regions,
// or load balancing. Shard Manager's allocator (package allocator)
// translates its placement problem into this vocabulary and supplies goal
// batching. The search has §5.3's other domain knowledge built in, which the
// paper shows is essential to make local search converge quickly (Fig 22):
// targets are drawn across the buckets' domains, biased toward cold buckets
// on metric 0, and a hot bucket offers its largest entities first.
//
// Incremental evaluation: the paper describes representing the objective as
// a tree of variables so that evaluating a move touches only O(log n)
// nodes. We achieve the same asymptotics with per-bucket load sums updated in
// O(1) per move; a group's occupancy of a domain is read off the assignment in
// O(group size), and evaluating a candidate move never rescans entities.
package solver

import (
	"fmt"
	"math"
	"slices"
)

// EntityID indexes an entity within a Problem.
type EntityID int

// BucketID indexes a bucket within a Problem. Unassigned is the sentinel
// for entities with no current placement (e.g. replicas of a failed server).
type BucketID int

// Unassigned marks an entity without a bucket.
const Unassigned BucketID = -1

// PerUnit is how many load units make one of a metric's own unit. Every load
// and capacity is an int64 count of load units, 1e-6 of its metric's unit, as
// a time.Duration counts nanoseconds: a sum of counts is exact, so a bucket's
// load kept through moves is the load summed afresh, and a capacity check is
// an integer compare. Utilization and every penalty are float64, computed from
// the counts and scaled back to the metric's unit, so a goal's weight reads as
// before.
const PerUnit = 1e6

// Quantize returns v, in its metric's unit, as a count of load units rounded
// to the nearest. It panics on NaN, an infinity or a count that does not fit
// an int64: a load the solver cannot hold exactly is refused, never wrapped.
func Quantize(v float64) int64 {
	if u := math.Round(v * PerUnit); u >= -0x1p63 && u < 0x1p63 { // false for NaN
		return int64(u)
	}
	panic(fmt.Sprintf("solver: load %v is out of range at %g load units a unit", v, PerUnit))
}

// unassignedPenalty dominates every soft goal so that placing unassigned
// entities is always the most urgent improvement.
const unassignedPenalty = 1e12

// Entity is one assignable unit (a shard replica).
type Entity struct {
	// Load per metric, in the order the caller numbers its metrics, in load
	// units (Quantize).
	Load []int64
	// Bucket is the current assignment (Unassigned if none).
	Bucket BucketID
	// Home is the bucket the entity was added in: AddEntity sets it from
	// Bucket, and Solve never changes it, so every Solve of one problem
	// counts Options.MoveBudget against the same starting placement. A caller
	// restating an entity in place (a new run) sets both.
	Home BucketID
	// Movable entities may be reassigned; pinned ones contribute load
	// but never move.
	Movable bool
	// Group is the entity's group number, or -1 for none. Two members of one
	// group never share a bucket (a hard rule), and the spread
	// (Problem.SpreadWeight) keeps them in distinct domains. It is read when
	// the state is built and must not change after.
	Group int32
	// Prefer is the domain the entity prefers, at a cost of PreferWeight on a
	// bucket outside it (region preference, §5.1 soft goal 1; Fig 13
	// statements 5-6). A weight of 0 states no preference, and a pinned
	// entity's is not read.
	Prefer       string
	PreferWeight float64
}

// Bucket is one assignment target (a server).
type Bucket struct {
	// Capacity per metric in load units, indexed like Entity.Load: on each
	// bucket, the sum of its entities' loads must not exceed it (Fig 13's
	// addConstraint(CapacitySpec{...}) at server scope, on every metric).
	Capacity []int64
	// Domain is the bucket's domain (the allocator states its region): the
	// spread keeps a group's members in distinct domains, an entity may
	// prefer one, and Solve draws targets across them. It changes only
	// through ClearBuckets: the buckets are stated again, and the next Solve
	// numbers their domains afresh.
	Domain string
	// Draining marks buckets that should shed entities (pending
	// maintenance or software upgrade, §5.1 soft goal 3).
	Draining bool
}

// BalanceRule is one metric's soft balance goal: keep each bucket's
// utilization under UtilCap, and within MaxDiff of the mean utilization (§5.1
// soft goals 4-6). Mirrors addGoal(BalanceSpec{...}) in Fig 13 at server
// scope. A Weight of 0 states no rule.
type BalanceRule struct {
	// UtilCap is the absolute utilization threshold (e.g. 0.9); <= 0
	// disables it.
	UtilCap float64
	// MaxDiff is the allowed deviation above mean utilization (e.g.
	// 0.1); <= 0 disables it.
	MaxDiff float64
	Weight  float64
}

// Problem is an assignment problem: its entities, its buckets and its goals,
// every one a field. Add the buckets and entities with AddBucket and AddEntity,
// set the goals, then call Solve. A problem may be solved again after any field
// changed: its goals (the allocator's balance batch), its entities' placements
// and preferences, or, through ClearBuckets, its buckets (the allocator's next
// run). What Solve builds from the fields is kept with the problem and brought
// in step with them at the next Solve, which reads every field again, sums the
// loads again and reuses the rest.
type Problem struct {
	Entities []Entity
	Buckets  []Bucket

	// Balance[m] is metric m's balance rule; nil states none on any metric.
	Balance []BalanceRule
	// SpreadWeight is the spread goal's: the members of each group should
	// occupy distinct domains (spread of replicas, §5.1 soft goal 2; Fig 13
	// statements 7-8), and each member that shares its domain with an earlier
	// one costs SpreadWeight. 0 states no spread.
	SpreadWeight float64
	// DrainWeight is what every entity on a Draining bucket costs; 0 states
	// no drain.
	DrainWeight float64

	// metrics is how many load metrics every entity and bucket carries.
	metrics int

	// dom numbers the buckets' domains; built lazily (see intern.go).
	dom *domains

	// st and ctx are the last Solve's state and search machinery, kept for
	// the next (see Problem.state).
	st  *state
	ctx *solveCtx
}

// NewProblem creates a problem with the given number of load metrics, and no
// goal beyond the capacities.
func NewProblem(metrics int) *Problem {
	if metrics <= 0 {
		panic("solver: NewProblem with no metrics")
	}
	return &Problem{metrics: metrics}
}

// AddBucket registers a bucket and returns its ID.
func (p *Problem) AddBucket(b Bucket) BucketID {
	if len(b.Capacity) != p.metrics {
		panic(fmt.Sprintf("solver: bucket %d capacity has %d metrics, want %d", len(p.Buckets), len(b.Capacity), p.metrics))
	}
	p.Buckets = append(p.Buckets, b)
	return BucketID(len(p.Buckets) - 1)
}

// AddEntity registers an entity and returns its ID.
func (p *Problem) AddEntity(e Entity) EntityID {
	if len(e.Load) != p.metrics {
		panic(fmt.Sprintf("solver: entity %d load has %d metrics, want %d", len(p.Entities), len(e.Load), p.metrics))
	}
	if e.Bucket != Unassigned && (e.Bucket < 0 || int(e.Bucket) >= len(p.Buckets)) {
		panic(fmt.Sprintf("solver: entity %d assigned to unknown bucket %d", len(p.Entities), e.Bucket))
	}
	if e.Group < -1 {
		panic(fmt.Sprintf("solver: entity %d in group %d", len(p.Entities), e.Group))
	}
	e.Home = e.Bucket
	p.Entities = append(p.Entities, e)
	return EntityID(len(p.Entities) - 1)
}

// ClearBuckets removes every bucket and keeps the entities, their grouping, the
// goals and what the last Solve built, so the buckets can be stated again with
// AddBucket (the allocator's next server list). The next Solve numbers the new
// buckets' domains afresh, in first-appearance order, and fits the kept
// state's per-bucket parts to them in place. Before that Solve, every entity's
// Bucket and Home must name a bucket of the new list or be Unassigned.
func (p *Problem) ClearBuckets() {
	p.Buckets = p.Buckets[:0]
	if p.dom != nil {
		p.dom.stale = true
	}
}

// ---------------------------------------------------------------------------
// Incremental evaluation state.
//
// The buckets' domains, which the spread and the affinities read, are numbered
// densely (see intern.go): the hot path indexes flat slices instead of hashing
// strings. Capacity and balance rules are per bucket and read each bucket's
// load off state.bucketLoad.

// specState is one metric's load rules: its capacity constraint, always
// there, and its balance rule (weight 0: none).
type specState struct {
	bal BalanceRule
	cap []int64 // per bucket, the metric's Capacity
	// meanUtil is the mean utilization over buckets with capacity, fixed
	// at state-build time (moves conserve total load). Unassigned load is
	// included: once placed it pushes utilization up, and the target must
	// account for it or the solver would chase a moving average.
	meanUtil float64
}

// capPenalty treats hard-constraint overflow as a very large soft penalty so
// local search can repair infeasible initial states while the feasibility
// check prevents creating new overflow.
func (sp *specState) capPenalty(b BucketID, load int64) float64 {
	if c := sp.cap[b]; load > c {
		return 1e6 * (float64(load-c) / PerUnit)
	}
	return 0
}

// balPenalty is the balance goal's penalty for one bucket given its load.
// Penalty is measured in capacity-weighted overload so that moving a large
// entity off an overloaded bucket helps proportionally.
func (sp *specState) balPenalty(b BucketID, load int64) float64 {
	bp := &sp.bal
	if bp.Weight == 0 {
		return 0
	}
	c := sp.cap[b]
	if c <= 0 {
		// Load on a zero-capacity bucket is maximally penalized.
		return bp.Weight * (float64(max(load, 0)) / PerUnit)
	}
	u := float64(load) / float64(c)
	var over float64
	if bp.UtilCap > 0 && u > bp.UtilCap {
		over += (u - bp.UtilCap) * (float64(c) / PerUnit)
	}
	if bp.MaxDiff > 0 && u > sp.meanUtil+bp.MaxDiff {
		over += (u - sp.meanUtil - bp.MaxDiff) * (float64(c) / PerUnit)
	}
	return bp.Weight * over
}

// penalty is the bucket's total capacity+balance penalty at the given load.
func (sp *specState) penalty(b BucketID, load int64) float64 {
	return sp.capPenalty(b, load) + sp.balPenalty(b, load)
}

// grouping is the problem's one grouping (Entity.Group), indexed when the state
// is built: each entity's group, and each group's members listed once (CSR).
// How many of a group sit in a domain is not stored: shares reads it off
// state.assignment, which costs O(group size) — a group is one shard's
// replicas, one to three on every deployment — where a stored count costs a
// hash per question and a write per move.
type grouping struct {
	of []int32 // entity -> group, -1 for none
	// ents[start[g]:start[g+1]] are group g's members, in entity order.
	start []int32
	ents  []EntityID
}

// index lists each group's members, reading the entities' Group fields.
func (gr *grouping) index(ents []Entity) {
	gr.of = make([]int32, len(ents))
	n := int32(0)
	for e := range ents {
		gr.of[e] = ents[e].Group
		n = max(n, ents[e].Group+1)
	}
	gr.start = make([]int32, n+1)
	for _, g := range gr.of {
		if g >= 0 {
			gr.start[g+1]++
		}
	}
	for g := range n {
		gr.start[g+1] += gr.start[g]
	}
	gr.ents = make([]EntityID, gr.start[n])
	fill := slices.Clone(gr.start[:n])
	for e, g := range gr.of {
		if g >= 0 {
			gr.ents[fill[g]] = EntityID(e)
			fill[g]++
		}
	}
}

// members returns group g's entities.
func (gr *grouping) members(g int32) []EntityID {
	return gr.ents[gr.start[g]:gr.start[g+1]]
}

// rule is the grouping judged over one numbering of the buckets: the bucket
// rule, where each bucket is its own domain, or the spread over Bucket.Domain.
type rule struct {
	// dom[b] is bucket b's domain, one of n.
	dom []int32
	n   int
	// weight is what each extra costs: the spread's, and 0 for the bucket
	// rule, which is hard, or for no spread.
	weight float64
	// extra counts, over every group, the members that share a domain with an
	// earlier member: counted at sync, kept by apply (move). floor is the
	// extras no placement the search can reach removes (state.count).
	extra, floor int
}

// resize returns buf resliced to n elements, reusing its array when it is
// large enough; the elements are not cleared.
func resize[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// shares reports whether a member of group g other than e sits in domain d of
// dom. Unassigned members sit nowhere.
func (s *state) shares(dom []int32, g, d int32, e EntityID) bool {
	for _, m := range s.grp.members(g) {
		if b := s.assignment[m]; m != e && b != Unassigned && dom[b] == d {
			return true
		}
	}
	return false
}

// count sums, over every group, its extras under r and the extras no
// placement the search can reach removes: a search places entities and moves
// the movable ones, so the pinned members keep theirs, and each movable placed
// member beyond the domains the pinned ones leave free adds one.
func (s *state) count(r *rule) (extras, floor int) {
	ents := s.p.Entities
	for g := int32(0); int(g)+1 < len(s.grp.start); g++ {
		grp := s.grp.members(g)
		var movable, pinnedExtras, pinnedDoms int
		for i, m := range grp {
			b := s.assignment[m]
			if b == Unassigned {
				continue
			}
			shared, sharedPinned := false, false
			for _, o := range grp[:i] {
				if ob := s.assignment[o]; ob != Unassigned && r.dom[ob] == r.dom[b] {
					shared = true
					sharedPinned = sharedPinned || !ents[o].Movable
				}
			}
			extras += b2i(shared)
			switch {
			case ents[m].Movable:
				movable++
			case sharedPinned:
				pinnedExtras++
			default:
				pinnedDoms++
			}
		}
		floor += pinnedExtras + max(0, movable-(r.n-pinnedDoms))
	}
	return extras, floor
}

// atFloor reports whether group g sits at its floor under r: its placed
// members occupy min(placed, domains) distinct domains, the most any placement
// of them can, so no move lowers the group's extras.
func (s *state) atFloor(r *rule, g int32) bool {
	grp := s.grp.members(g)
	placed, distinct := 0, 0
	for i, m := range grp {
		b := s.assignment[m]
		if b == Unassigned {
			continue
		}
		placed++
		distinct++
		for _, o := range grp[:i] {
			if ob := s.assignment[o]; ob != Unassigned && r.dom[ob] == r.dom[b] {
				distinct--
				break
			}
		}
	}
	return distinct >= min(placed, r.n)
}

// move keeps r's extra count as entity e of group g moves from one bucket to
// another, reading its peers off the assignment before the move.
func (s *state) move(r *rule, g int32, e EntityID, from, to BucketID) {
	td := r.dom[to]
	if from != Unassigned {
		fd := r.dom[from]
		if fd == td {
			return
		}
		if s.shares(r.dom, g, fd, e) {
			r.extra--
		}
	}
	if s.shares(r.dom, g, td, e) {
		r.extra++
	}
}

// affTerm is an entity's interned preference: penalty weight applies whenever
// the entity's bucket is outside domain domID. Weight 0 means the entity has
// none.
type affTerm struct {
	domID  int32 // preferred domain; -1 if no bucket is in it
	weight float64
}

// state is the solver's incremental view of a problem.
type state struct {
	p *Problem
	// assignment[e] is the current bucket of entity e.
	assignment []BucketID

	// specs[m] is metric m's load rules.
	specs []specState
	// grp is the problem's grouping; conflict is the bucket rule over it, and
	// spread the spread goal's (weight 0: none).
	grp              grouping
	conflict, spread rule
	// dom[b] is bucket b's domain number (Problem.domains).
	dom []int32
	// preferring is whether any entity's aff term has a weight.
	preferring bool
	// peers and pens are apply's scratch: the entities whose share of the hot
	// set a move can change, and their shares before it.
	peers []EntityID
	pens  []float64

	// aff[e] is entity e's interned preference (none for most), read off
	// the entity at sync when it is movable.
	aff []affTerm
	// drainPen[b] is the per-entity drain penalty of bucket b (0 or the
	// problem's drain weight); draining is whether any is not 0.
	drainPen []float64
	draining bool

	// Per-bucket entity sets, maintained for neighborhood generation.
	byBucket [][]EntityID

	// bucketLoad[b][m] is the total load of metric m on bucket b: what the
	// capacity and balance rules judge, and what sample reads to prefer cold
	// targets.
	bucketLoad [][]int64
	// total[m] is the load of metric m over every entity, placed or not, what
	// the mean utilization is taken of; least[m] is the least over every
	// entity, or 0 if none is negative, and most[m] the largest over the
	// placed ones, what floor reads of the loads. All three are taken at the
	// last sync.
	total, least, most []int64

	// unassigned counts entities without a bucket, away the ones placed off
	// their Home (at the last sync). affN and drainN count the placed
	// entities with an affinity penalty and those on a draining bucket:
	// counted at sync, kept by apply.
	unassigned, away int
	affN, drainN     int

	// hot tracks every bucket's penalty, less what stands, incrementally
	// (see hotset.go and entityPen); apply keeps it in sync with the
	// aggregates above.
	hot *hotSet
}

// newState builds the incremental state from the problem's current
// assignment, indexing its grouping.
func newState(p *Problem) *state {
	s := &state{p: p}
	s.grp.index(p.Entities)
	s.sync()
	return s
}

// state returns the problem's kept state brought in step with the problem as
// it now stands, building it afresh when entities were added since: the
// grouping is indexed only when the state is built. A change of buckets is
// fitted by sync.
func (p *Problem) state() *state {
	if s := p.st; s != nil && len(s.assignment) == len(p.Entities) {
		s.sync()
		return s
	}
	p.st = newState(p)
	return p.st
}

// sync brings the state in step with its problem, reusing its buffers. The
// assignment is read off the entities and every aggregate is summed afresh;
// the sums are of integers, so a state synced again equals one built from
// nothing. The per-bucket parts are fitted to the buckets in place, and every
// goal is read off its field.
func (s *state) sync() {
	p := s.p
	nM := p.metrics
	if p.Balance != nil && len(p.Balance) != nM {
		panic(fmt.Sprintf("solver: %d balance rules, want %d", len(p.Balance), nM))
	}
	if p.SpreadWeight < 0 || p.DrainWeight < 0 {
		panic("solver: negative goal weight")
	}
	dom := p.domains()
	s.dom = dom.of
	s.assignment = resize(s.assignment, len(p.Entities))
	s.aff = resize(s.aff, len(p.Entities))
	s.preferring = false
	if nB := len(p.Buckets); len(s.byBucket) != nB {
		s.byBucket = resize(s.byBucket, nB)
		if cap(s.bucketLoad) < nB {
			// Every row of a new table is carved, so a table resliced within
			// its capacity has its rows.
			s.bucketLoad = make([][]int64, nB)
			loads := make([]int64, nB*nM)
			for b := range s.bucketLoad {
				s.bucketLoad[b] = loads[b*nM : (b+1)*nM : (b+1)*nM]
			}
		}
		s.bucketLoad = s.bucketLoad[:nB]
		s.conflict.dom, s.conflict.n = resize(s.conflict.dom, nB), nB
		for b := range s.conflict.dom {
			s.conflict.dom[b] = int32(b)
		}
	}
	for b := range s.byBucket {
		s.byBucket[b] = s.byBucket[b][:0]
		clear(s.bucketLoad[b])
	}
	s.total, s.least, s.most = resize(s.total, nM), resize(s.least, nM), resize(s.most, nM)
	clear(s.total)
	clear(s.least)
	clear(s.most)
	s.unassigned, s.away = 0, 0
	for i := range p.Entities {
		ent := &p.Entities[i]
		s.assignment[i] = ent.Bucket
		s.aff[i] = affTerm{}
		if ent.PreferWeight < 0 {
			panic(fmt.Sprintf("solver: entity %d prefers at weight %v", i, ent.PreferWeight))
		}
		if ent.Movable && ent.PreferWeight != 0 {
			domID, ok := dom.index[ent.Prefer]
			if !ok {
				domID = -1 // no bucket is in the preferred domain
			}
			s.aff[i], s.preferring = affTerm{domID: domID, weight: ent.PreferWeight}, true
		}
		for m, l := range ent.Load {
			s.total[m] += l
			s.least[m] = min(s.least[m], l)
		}
		if ent.Bucket == Unassigned {
			s.unassigned++
			continue
		}
		if ent.Home != Unassigned && ent.Bucket != ent.Home {
			s.away++
		}
		s.byBucket[ent.Bucket] = append(s.byBucket[ent.Bucket], EntityID(i))
		for m, l := range ent.Load {
			s.bucketLoad[ent.Bucket][m] += l
			s.most[m] = max(s.most[m], l)
		}
	}

	s.specs = resize(s.specs, nM)
	for m := range s.specs {
		s.fitSpec(m)
	}

	s.conflict.extra, s.conflict.floor = s.count(&s.conflict)
	s.spread = rule{}
	if p.SpreadWeight > 0 && len(s.grp.ents) > 0 {
		s.spread = rule{dom: dom.of, n: len(dom.buckets), weight: p.SpreadWeight}
		s.spread.extra, s.spread.floor = s.count(&s.spread)
	}

	s.drainPen = resize(s.drainPen, len(p.Buckets))
	s.draining = false
	for b := range p.Buckets {
		s.drainPen[b] = 0
		if p.DrainWeight > 0 && p.Buckets[b].Draining {
			s.drainPen[b] = p.DrainWeight
			s.draining = true
		}
	}

	s.affN, s.drainN = 0, 0
	for e := 0; (s.preferring || s.draining) && e < len(p.Entities); e++ {
		if b := s.assignment[e]; b != Unassigned {
			s.affN += b2i(s.affinityPenalty(EntityID(e), b) > 0)
			s.drainN += b2i(s.drainPen[b] > 0)
		}
	}

	if s.hot == nil {
		s.hot = newHotSet(len(p.Buckets))
	} else {
		s.hot.reset(len(p.Buckets))
	}
	for b := range p.Buckets {
		s.hot.pen[b] = s.seedPenalty(BucketID(b))
	}
	s.hot.init()
}

// utilization is bucket b's load over its capacity on metric 0, what sample
// prefers low; a bucket without capacity reads 1e18 if loaded, 0 if not.
func (s *state) utilization(b BucketID) float64 {
	c, l := s.p.Buckets[b].Capacity[0], s.bucketLoad[b][0]
	if c <= 0 {
		return 1e18 * float64(b2i(l > 0))
	}
	return float64(l) / float64(c)
}

// b2i is 1 for true and 0 for false.
func b2i(ok bool) int {
	if ok {
		return 1
	}
	return 0
}

// grow extends buf by one element, reusing the array (and so the buffers of
// an element it held before) when it has room.
func grow[T any](buf []T) []T {
	if len(buf) < cap(buf) {
		return buf[:len(buf)+1]
	}
	var zero T
	return append(buf, zero)
}

// fitSpec states metric m's load rules: its buckets' capacities, its balance
// rule and its mean utilization, every entity's load over every capacity.
func (s *state) fitSpec(m int) {
	p := s.p
	sp := &s.specs[m]
	*sp = specState{cap: resize(sp.cap, len(p.Buckets))}
	if p.Balance != nil {
		sp.bal = p.Balance[m]
		if r := sp.bal; r.Weight < 0 || r.Weight > 0 && r.UtilCap <= 0 && r.MaxDiff <= 0 {
			panic(fmt.Sprintf("solver: balance rule %+v on metric %d", r, m))
		}
	}
	var totCap int64
	for b := range p.Buckets {
		sp.cap[b] = p.Buckets[b].Capacity[m]
		totCap += sp.cap[b]
	}
	if totCap > 0 {
		sp.meanUtil = float64(s.total[m]) / float64(totCap)
	}
}

// affinityPenalty returns the affinity penalty of entity e sitting on bucket b.
func (s *state) affinityPenalty(e EntityID, b BucketID) float64 {
	if t := &s.aff[e]; t.weight != 0 && s.dom[b] != t.domID {
		return t.weight
	}
	return 0
}

// prepared caches the from-side of a candidate move for one entity: loads,
// source domains, and the penalty deltas of leaving them. Preparing once and
// then calling evalTarget per sampled target avoids recomputing the source
// side for every (entity, target) pair, and makes target evaluation a pure
// read.
type prepared struct {
	e    EntityID
	from BucketID
	// base is the target-independent delta: leaving the source bucket's
	// affinity/drain penalties, or -unassignedPenalty when unplaced.
	base float64
	// Per spec state (parallel to state.specs):
	load      []int64   // entity load on the spec's metric
	fromDelta []float64 // penalty delta of the source bucket losing load

	// group is the entity's group (-1: none); spreadFrom is the source
	// domain under the spread (-1: none), and spreadLeave the spread's leave
	// term: -weight when leaving a crowded domain.
	group       int32
	spreadFrom  int32
	spreadLeave float64

	// inert is whether no move of the entity alone can lower the objective
	// (state.inert): the search does not offer it.
	inert bool
}

func newPrepared(s *state) prepared {
	var pr prepared
	pr.fit(s)
	return pr
}

// fit sizes pr's per-spec arrays for s's specs, reusing them.
func (pr *prepared) fit(s *state) {
	pr.load = resize(pr.load, len(s.specs))
	pr.fromDelta = resize(pr.fromDelta, len(s.specs))
}

// prepare fills pr with entity e's from-side move state.
func (s *state) prepare(pr *prepared, e EntityID) {
	from := s.assignment[e]
	pr.e = e
	pr.from = from
	ent := &s.p.Entities[e]
	for m := range s.specs {
		sp := &s.specs[m]
		l := ent.Load[m]
		pr.load[m] = l
		pr.fromDelta[m] = 0
		if from != Unassigned && l != 0 {
			lf := s.bucketLoad[from][m]
			pr.fromDelta[m] = sp.penalty(from, lf-l) - sp.penalty(from, lf)
		}
	}
	pr.group = s.grp.of[e]
	pr.spreadFrom, pr.spreadLeave = -1, 0
	if sp := &s.spread; sp.weight != 0 && pr.group >= 0 && from != Unassigned {
		pr.spreadFrom = sp.dom[from]
		// Leaving a domain shared with another group member saves the weight.
		if s.shares(sp.dom, pr.group, pr.spreadFrom, e) {
			pr.spreadLeave = -sp.weight
		}
	}
	if from != Unassigned {
		pr.base = -(s.affinityPenalty(e, from) + s.drainPen[from])
	} else {
		pr.base = -unassignedPenalty
	}
	pr.inert = s.inert(pr)
}

// inert reports whether no move of the prepared entity alone can improve the
// objective: every leave term of evalTarget's delta (base, fromDelta,
// spreadLeave) is 0 or standing. Every join term is >= 0 — affinity and drain
// at the target, a bucket's penalty at a higher load less at the lower one
// (capPenalty and balPenalty are non-decreasing in load, in floating point
// too), Weight on joining a crowded domain — so a leave term of 0 gains
// nothing. A standing one is paid back at every target:
//   - leaving a crowded domain of a group at its floor (atFloor): leaving and
//     joining together change the group's extras by >= 0;
//   - an affinity penalty affStanding names: every target outside the
//     preferred domain charges it again, and joining the domain charges a
//     spread weight at least as large, which nothing frees since the entity
//     has its own domain to itself.
//
// A negative load would make a join term negative, so an entity carrying one
// is never inert.
func (s *state) inert(pr *prepared) bool {
	if pr.from == Unassigned || s.drainPen[pr.from] != 0 {
		return false
	}
	for m, d := range pr.fromDelta {
		if d != 0 || pr.load[m] < 0 {
			return false
		}
	}
	if pr.spreadLeave != 0 && !s.atFloor(&s.spread, pr.group) {
		return false
	}
	return s.affinityPenalty(pr.e, pr.from) == 0 || s.affStanding(pr.e, pr.from)
}

// affStanding reports whether entity e's affinity penalty on bucket b stands:
// no move of e alone can remove it at a gain. Either no bucket is in the
// preferred domain, or the spread goal, weighing at least as much, holds a
// sibling of e there while e has its domain to itself, so moving in trades the
// penalty for the spread's.
func (s *state) affStanding(e EntityID, b BucketID) bool {
	t := &s.aff[e]
	if t.domID < 0 {
		return true
	}
	sp, g := &s.spread, s.grp.of[e]
	return g >= 0 && sp.weight >= t.weight &&
		s.shares(sp.dom, g, t.domID, e) && !s.shares(sp.dom, g, sp.dom[b], e)
}

// affAbove is entity e's affinity penalty on bucket b unless it stands.
func (s *state) affAbove(e EntityID, b BucketID) float64 {
	if a := s.affinityPenalty(e, b); a != 0 && !s.affStanding(e, b) {
		return a
	}
	return 0
}

// entityPen is what placed entity e adds to its bucket's penalty, less what
// stands: its affinity penalty unless it stands, its drain, and the spread's
// weight where it shares its domain and its group is above its floor.
func (s *state) entityPen(e EntityID) float64 {
	b := s.assignment[e]
	if b == Unassigned {
		return 0
	}
	var pen float64
	if s.preferring {
		pen = s.affAbove(e, b)
	}
	pen += s.drainPen[b]
	if sp, g := &s.spread, s.grp.of[e]; sp.weight != 0 && g >= 0 &&
		s.shares(sp.dom, g, sp.dom[b], e) && !s.atFloor(sp, g) {
		pen += sp.weight
	}
	return pen
}

// peersOf lists e and, under a spread goal, the other members of its group:
// the entities whose entityPen a move of e can change.
func (s *state) peersOf(e EntityID) []EntityID {
	ps := append(s.peers[:0], e)
	if g := s.grp.of[e]; s.spread.weight != 0 && g >= 0 {
		for _, m := range s.grp.members(g) {
			if m != e {
				ps = append(ps, m)
			}
		}
	}
	s.peers = ps
	return ps
}

// evalTarget returns the objective change of moving the prepared entity to
// target, and whether the move is feasible (the bucket rule and capacity).
// Only strictly safe targets are feasible: the target must remain within
// every capacity constraint. evalTarget does not mutate state and is
// safe to call concurrently with other evalTarget calls.
func (s *state) evalTarget(pr *prepared, target BucketID) (float64, bool) {
	if target == pr.from {
		return 0, false
	}

	// The bucket rule: a group member may not join a bucket that holds
	// another.
	g := pr.group
	if g >= 0 && s.shares(s.conflict.dom, g, int32(target), pr.e) {
		return 0, false
	}

	delta := pr.base + s.affinityPenalty(pr.e, target) + s.drainPen[target]

	// Hard capacity feasibility + capacity/balance penalty deltas.
	for m := range s.specs {
		l := pr.load[m]
		if l == 0 {
			continue
		}
		sp := &s.specs[m]
		lt := s.bucketLoad[target][m]
		newLoad := lt + l
		if newLoad > sp.cap[target] {
			return 0, false
		}
		delta += sp.penalty(target, newLoad) - sp.penalty(target, lt) + pr.fromDelta[m]
	}

	// The spread: joining a domain that already has a group member costs its
	// weight; leaving a crowded one saves it (prepared).
	if sp := &s.spread; sp.weight != 0 && g >= 0 {
		if td := sp.dom[target]; td != pr.spreadFrom {
			if s.shares(sp.dom, g, td, pr.e) {
				delta += sp.weight
			}
			delta += pr.spreadLeave
		}
	}
	return delta, true
}

// apply commits the move of e to target, updating all aggregate state and
// the incremental hot-bucket penalties.
func (s *state) apply(e EntityID, target BucketID) {
	from := s.assignment[e]
	if from == target {
		return
	}
	ent := &s.p.Entities[e]
	hot := s.hot

	// Capacity and balance penalties follow the two buckets' loads, which
	// the bucketLoad update at the end commits.
	for m := range s.specs {
		sp := &s.specs[m]
		l := ent.Load[m]
		if l == 0 {
			continue
		}
		if from != Unassigned {
			lf := s.bucketLoad[from][m]
			if d := sp.penalty(from, lf-l) - sp.penalty(from, lf); d != 0 {
				hot.add(from, d)
			}
		}
		lt := s.bucketLoad[target][m]
		if d := sp.penalty(target, lt+l) - sp.penalty(target, lt); d != 0 {
			hot.add(target, d)
		}
	}

	// The per-entity terms: e's travel with it, and a peer's crowding and
	// standing read where e sits, so each share is taken before the move and
	// again after it.
	peers := s.peersOf(e)
	pens := s.pens[:0]
	for _, m := range peers {
		pens = append(pens, s.entityPen(m))
	}
	if g := s.grp.of[e]; g >= 0 {
		s.move(&s.conflict, g, e, from, target)
		if s.spread.weight != 0 {
			s.move(&s.spread, g, e, from, target)
		}
	}
	if from != Unassigned {
		s.affN -= b2i(s.affinityPenalty(e, from) > 0)
		s.drainN -= b2i(s.drainPen[from] > 0)
	}
	s.affN += b2i(s.affinityPenalty(e, target) > 0)
	s.drainN += b2i(s.drainPen[target] > 0)

	if from != Unassigned {
		lst := s.byBucket[from]
		for i, id := range lst {
			if id == e {
				lst[i] = lst[len(lst)-1]
				s.byBucket[from] = lst[:len(lst)-1]
				break
			}
		}
		for m, l := range ent.Load {
			s.bucketLoad[from][m] -= l
		}
	} else {
		s.unassigned--
	}
	s.byBucket[target] = append(s.byBucket[target], e)
	for m, l := range ent.Load {
		s.bucketLoad[target][m] += l
	}
	s.assignment[e] = target

	if pens[0] != 0 {
		hot.add(from, -pens[0])
	}
	if pen := s.entityPen(e); pen != 0 {
		hot.add(target, pen)
	}
	for i, m := range peers[1:] {
		if d := s.entityPen(m) - pens[i+1]; d != 0 {
			hot.add(s.assignment[m], d)
		}
	}
	s.pens = pens
}

// ViolationCounts summarizes constraint and goal violations.
type ViolationCounts struct {
	// Buckets over their hard capacity, per constrained metric.
	Capacity int
	// Conflict counts the group members that share a bucket with an earlier
	// member of their group (the hard bucket rule, broken only by the input).
	Conflict int
	// Buckets over UtilCap or over mean+MaxDiff, per metric (each rule
	// counts).
	Balance int
	// Entities not on their preferred domain.
	Affinity int
	// Exclusion counts the group members that share a domain with an earlier
	// member of their group, under the spread goal.
	Exclusion int
	// Entities on draining buckets.
	Drain int
	// Entities with no assignment.
	Unassigned int
}

// Total sums all violation categories.
func (v ViolationCounts) Total() int {
	return v.Capacity + v.Conflict + v.Balance + v.Affinity + v.Exclusion + v.Drain + v.Unassigned
}

// violations counts the violations of the state as it stands: the capacity
// and balance rules by a scan of the buckets, the rest off the counts sync
// took and apply keeps. It is for reporting, not the hot path. A bucket is
// over its capacity when its load is, in load units, and over a balance limit
// when its utilization, one float64 division of two exact counts, is.
func (s *state) violations() ViolationCounts {
	var v ViolationCounts
	for m := range s.specs {
		sp := &s.specs[m]
		bp := &sp.bal
		for b, c := range sp.cap {
			load := s.bucketLoad[b][m]
			if load > c {
				v.Capacity++
			}
			if bp.Weight == 0 || c <= 0 {
				continue
			}
			u := float64(load) / float64(c)
			if bp.UtilCap > 0 && u > bp.UtilCap {
				v.Balance++
			}
			if bp.MaxDiff > 0 && u > sp.meanUtil+bp.MaxDiff {
				v.Balance++
			}
		}
	}
	v.Affinity, v.Drain = s.affN, s.drainN
	v.Conflict, v.Exclusion = s.conflict.extra, s.spread.extra
	v.Unassigned = s.unassigned
	return v
}

// floor returns a lower bound on each count violations gives, for every
// placement the search can reach from the state as it stands: a search places
// entities and moves them, and never unplaces one. It costs O(entities +
// buckets).
//   - Exclusion and conflict: a group's pinned members keep the domains they
//     share, and its movable placed members beyond the domains the pinned ones
//     leave free share one each (state.count).
//   - Affinity: the placed entities whose preferred domain has no bucket. An
//     affinity penalty affStanding names for a spread goal's sake is not
//     counted: no single move removes it at a gain, but a path of moves can,
//     once another member crowds the entity's domain or a drain or a
//     balance rule pays for the spread.
//   - Capacity and balance, per rule: one bucket when the placed load is more
//     than every bucket's limit together, or one entity's load more than the
//     largest bucket's limit. A negative load could make room, and a bucket
//     without capacity escapes the balance count, so either leaves the metric
//     without a floor. The capacity compares are of exact counts. A balance
//     limit is a utilization: some bucket's load over its capacity is at least
//     the placed load over every capacity, and a correctly rounded division of
//     counts below 2^53 keeps that order (DESIGN §5 "Loads are integers"), so
//     the floor's utilizations are compared as violations compares its own.
func (s *state) floor() ViolationCounts {
	v := ViolationCounts{Conflict: s.conflict.floor, Exclusion: s.spread.floor}
	for e := 0; s.affN > 0 && e < len(s.assignment); e++ {
		if b := s.assignment[e]; b != Unassigned && s.aff[e].weight != 0 && s.aff[e].domID < 0 {
			v.Affinity++
		}
	}
	for m := range s.specs {
		sp := &s.specs[m]
		largest := s.most[m]
		var total, capSum, capMax int64
		ok := s.least[m] >= 0
		for b, c := range sp.cap {
			ok = ok && c > 0
			capSum += c
			capMax = max(capMax, c)
			total += s.bucketLoad[b][m]
		}
		if !ok {
			continue
		}
		if total > capSum || largest > capMax {
			v.Capacity++
		}
		if bp := &sp.bal; bp.Weight != 0 {
			u := max(float64(total)/float64(capSum), float64(largest)/float64(capMax))
			v.Balance += b2i(bp.UtilCap > 0 && u > bp.UtilCap)
			v.Balance += b2i(bp.MaxDiff > 0 && u > sp.meanUtil+bp.MaxDiff)
		}
	}
	return v
}

// seedPenalty returns how much bucket b contributes to the objective, less
// what stands, as sync seeds the hot set with it; afterwards apply maintains the
// same quantity incrementally. The terms are added in one order on every
// sync, so a state synced again seeds the same bits.
func (s *state) seedPenalty(b BucketID) float64 {
	var pen float64
	for m := range s.specs {
		pen += s.specs[m].penalty(b, s.bucketLoad[b][m])
	}
	// Without a preference, a drain or a spread an entity carries nothing, so
	// none is read.
	if !s.preferring && s.drainPen[b] == 0 && s.spread.weight == 0 {
		return pen
	}
	for _, e := range s.byBucket[b] {
		pen += s.entityPen(e)
	}
	return pen
}
