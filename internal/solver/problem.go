// Package solver implements a generic constraint solver for assignment
// problems, modeled after ReBalancer (§5.2): callers describe entities
// (shard replicas), buckets (servers), hard capacity constraints, and
// weighted soft goals through a high-level API, and the solver improves the
// assignment with local search (§5.3).
//
// The solver is domain-independent: it knows nothing about shards, regions,
// or load balancing. Shard Manager's allocator (package allocator)
// translates its placement problem into this vocabulary and supplies domain
// knowledge — grouped target sampling, big-entities-first ordering, and
// goal batching — that the paper shows is essential to make local search
// converge quickly (Fig 22).
//
// Incremental evaluation: the paper describes representing the objective as
// a tree of variables so that evaluating a move touches only O(log n)
// nodes. We achieve the same asymptotics with per-spec aggregate state
// (per-bucket/per-domain load sums) updated in O(1) per move; a group's
// occupancy of a domain is read off the assignment in O(group size), and
// evaluating a candidate move never rescans entities.
package solver

import "fmt"

// EntityID indexes an entity within a Problem.
type EntityID int

// BucketID indexes a bucket within a Problem. Unassigned is the sentinel
// for entities with no current placement (e.g. replicas of a failed server).
type BucketID int

// Unassigned marks an entity without a bucket.
const Unassigned BucketID = -1

// ScopeBucket is the Scope value meaning "each bucket individually"; any
// other scope string refers to a bucket property (e.g. "region", "rack").
const ScopeBucket = ""

// unassignedPenalty dominates every soft goal so that placing unassigned
// entities is always the most urgent improvement.
const unassignedPenalty = 1e12

// Entity is one assignable unit (a shard replica).
type Entity struct {
	// Load per metric, indexed like Problem.Metrics.
	Load []float64
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
}

// Bucket is one assignment target (a server).
type Bucket struct {
	Name string
	// Capacity per metric, indexed like Problem.Metrics.
	Capacity []float64
	// Props maps a scope name to this bucket's domain at that scope,
	// e.g. {"region": "frc", "rack": "frc/dc0/rack01"}. The solver only
	// reads it, so buckets (and the caller's own records) may share one map.
	Props map[string]string
	// Group tags the bucket for grouped candidate sampling (set by the
	// caller; typically the region or hardware class). Like Props it is read
	// once per problem and must not change after.
	Group string
	// Draining marks buckets that should shed entities (pending
	// maintenance or software upgrade, §5.1 soft goal 3).
	Draining bool
}

// CapacitySpec is a hard constraint: for each aggregation key at Scope, the
// sum of entity loads for Metric must not exceed the key's capacity (the sum
// of its buckets' capacities). Mirrors addConstraint(CapacitySpec{...}) in
// Fig 13.
type CapacitySpec struct {
	Metric string
	Scope  string
}

// BalanceSpec is a soft goal: keep each aggregation key's utilization of
// Metric under UtilCap, and within MaxDiff of the mean utilization
// (§5.1 soft goals 4-6). Mirrors addGoal(BalanceSpec{...}) in Fig 13.
type BalanceSpec struct {
	Metric string
	Scope  string
	// UtilCap is the absolute utilization threshold (e.g. 0.9); <= 0
	// disables it.
	UtilCap float64
	// MaxDiff is the allowed deviation above mean utilization (e.g.
	// 0.1); <= 0 disables it.
	MaxDiff float64
	Weight  float64
}

// AffinityGoal is a soft goal: one entity prefers buckets whose domain at
// Scope equals Domain, with the given weight (region preference, §5.1 soft
// goal 1; Fig 13 statements 5-6).
type AffinityGoal struct {
	Scope  string
	Entity EntityID
	Domain string
	Weight float64
}

// ExclusionSpec is a soft goal: entities of one group should occupy distinct
// domains at Scope (spread of replicas, §5.1 soft goal 2; Fig 13 statements
// 7-8). Each colocated extra entity costs Weight.
type ExclusionSpec struct {
	Scope string
	// Group[e] is entity e's group number in [0, NumGroups), or -1 for an
	// entity outside the spec; it has one element per entity of the problem
	// at Solve time. The solver only reads it, so specs may share one slice,
	// and indexes it at the first Solve that sees the spec: it must not change
	// while the spec is in the problem.
	Group     []int32
	NumGroups int
	Weight    float64
}

// Problem is a mutable assignment problem under construction. Build it with
// the Add* methods, then call Solve. A problem may be solved again: after more
// goals are added (the allocator's goal stages), or after ClearGoals and new
// entity placements have restated it (the allocator's next run). What Solve
// builds from the buckets and entities is kept with the problem and brought in
// step with it at the next Solve, which sums the loads again and reuses the
// rest.
type Problem struct {
	Metrics []string
	midx    map[string]int

	Entities []Entity
	Buckets  []Bucket

	capacitySpecs  []CapacitySpec
	balanceSpecs   []BalanceSpec
	affinityGoals  []AffinityGoal // in the order added
	exclusionSpecs []ExclusionSpec
	conflictSpecs  []ExclusionSpec
	drainWeight    float64

	// domTable interns (bucket, scope) -> domain strings; built lazily
	// (see intern.go). groups is the buckets by Group tag, for
	// GroupedSampler; built lazily too.
	domTable *domainTable
	groups   [][]BucketID

	// st and ctx are the last Solve's state and search machinery, kept for
	// the next (see Problem.state).
	st  *state
	ctx *solveCtx
}

// NewProblem creates a problem with the given load metrics.
func NewProblem(metrics []string) *Problem {
	if len(metrics) == 0 {
		panic("solver: NewProblem with no metrics")
	}
	midx := make(map[string]int, len(metrics))
	for i, m := range metrics {
		if _, dup := midx[m]; dup {
			panic(fmt.Sprintf("solver: duplicate metric %q", m))
		}
		midx[m] = i
	}
	return &Problem{
		Metrics: append([]string(nil), metrics...),
		midx:    midx,
	}
}

// MetricIndex returns the index of a metric name.
func (p *Problem) MetricIndex(metric string) int {
	i, ok := p.midx[metric]
	if !ok {
		panic(fmt.Sprintf("solver: unknown metric %q", metric))
	}
	return i
}

// AddBucket registers a bucket and returns its ID.
func (p *Problem) AddBucket(b Bucket) BucketID {
	if len(b.Capacity) != len(p.Metrics) {
		panic(fmt.Sprintf("solver: bucket %q capacity has %d metrics, want %d", b.Name, len(b.Capacity), len(p.Metrics)))
	}
	p.Buckets = append(p.Buckets, b)
	return BucketID(len(p.Buckets) - 1)
}

// AddEntity registers an entity and returns its ID.
func (p *Problem) AddEntity(e Entity) EntityID {
	if len(e.Load) != len(p.Metrics) {
		panic(fmt.Sprintf("solver: entity %d load has %d metrics, want %d", len(p.Entities), len(e.Load), len(p.Metrics)))
	}
	if e.Bucket != Unassigned && (e.Bucket < 0 || int(e.Bucket) >= len(p.Buckets)) {
		panic(fmt.Sprintf("solver: entity %d assigned to unknown bucket %d", len(p.Entities), e.Bucket))
	}
	e.Home = e.Bucket
	p.Entities = append(p.Entities, e)
	return EntityID(len(p.Entities) - 1)
}

// AddConstraint registers a hard capacity constraint.
func (p *Problem) AddConstraint(c CapacitySpec) {
	p.MetricIndex(c.Metric)
	p.capacitySpecs = append(p.capacitySpecs, c)
}

// AddBalanceGoal registers a soft balance goal.
func (p *Problem) AddBalanceGoal(b BalanceSpec) {
	p.MetricIndex(b.Metric)
	if b.Weight <= 0 {
		panic("solver: balance goal needs positive weight")
	}
	if b.UtilCap <= 0 && b.MaxDiff <= 0 {
		panic("solver: balance goal needs UtilCap or MaxDiff")
	}
	p.balanceSpecs = append(p.balanceSpecs, b)
}

// AddAffinityGoal registers a soft per-entity domain preference.
func (p *Problem) AddAffinityGoal(g AffinityGoal) {
	if g.Weight <= 0 {
		panic("solver: affinity goal needs positive weight")
	}
	if g.Entity < 0 || int(g.Entity) >= len(p.Entities) {
		panic(fmt.Sprintf("solver: affinity for unknown entity %d", g.Entity))
	}
	p.affinityGoals = append(p.affinityGoals, g)
}

// AddExclusionGoal registers a soft spread goal.
func (p *Problem) AddExclusionGoal(s ExclusionSpec) {
	if s.Weight <= 0 {
		panic("solver: exclusion goal needs positive weight")
	}
	p.exclusionSpecs = append(p.exclusionSpecs, s)
}

// AddConflict registers a HARD exclusion: no two entities of the same group
// may occupy the same domain at Scope. Moves that would colocate are
// infeasible. Shard Manager uses it at server scope — two replicas of one
// shard must never share a server. Weight is ignored.
func (p *Problem) AddConflict(s ExclusionSpec) {
	p.conflictSpecs = append(p.conflictSpecs, s)
}

// AddDrainGoal penalizes every entity on a Draining bucket with weight w.
func (p *Problem) AddDrainGoal(w float64) {
	if w <= 0 {
		panic("solver: drain goal needs positive weight")
	}
	p.drainWeight = w
}

// ClearGoals removes every constraint and goal — capacity, balance, affinity,
// exclusion, conflict and drain — and keeps the buckets, the entities and
// what the last Solve built from them, so the problem can be stated again
// with fresh goals.
func (p *Problem) ClearGoals() {
	if s := p.st; s != nil {
		for _, g := range p.affinityGoals[:s.nAff] {
			s.aff[g.Entity] = s.aff[g.Entity][:0]
		}
		s.nAff, s.nExcl, s.nConf = 0, 0, 0
	}
	p.capacitySpecs = p.capacitySpecs[:0]
	p.balanceSpecs = p.balanceSpecs[:0]
	p.affinityGoals = p.affinityGoals[:0]
	p.exclusionSpecs = p.exclusionSpecs[:0]
	p.conflictSpecs = p.conflictSpecs[:0]
	p.drainWeight = 0
}

// domainOf returns the aggregation key of bucket b at scope: the bucket's
// own index for ScopeBucket, else its Props value.
func (p *Problem) domainOf(b BucketID, scope string) string {
	if scope == ScopeBucket {
		return p.Buckets[b].Name
	}
	d, ok := p.Buckets[b].Props[scope]
	if !ok {
		panic(fmt.Sprintf("solver: bucket %q lacks scope %q", p.Buckets[b].Name, scope))
	}
	return d
}

// ---------------------------------------------------------------------------
// Incremental evaluation state.
//
// All (bucket, scope) -> domain strings are interned into dense int IDs at
// newState time (see intern.go): the hot path indexes flat slices instead of
// concatenating and hashing strings. Capacity
// and balance specs sharing a (metric, scope) pair are merged into one
// specState so their shared load/capacity aggregates are maintained once.

// balParams is one merged balance goal on a specState.
type balParams struct {
	utilCap float64
	maxDiff float64
	weight  float64
}

// specState holds the per-domain load/capacity aggregates for one
// (metric, scope) pair, serving every capacity and balance spec on it.
type specState struct {
	midx int
	dom  *scopeDomains
	// nHard counts merged hard capacity specs on this (metric, scope);
	// >0 gates move feasibility, and multiplies the overflow penalty so
	// duplicate AddConstraint calls keep their historical weight.
	nHard int
	bals  []balParams
	load  []float64 // per domain ID
	cap   []float64 // per domain ID
	// meanUtil is the mean utilization over domains with capacity, fixed
	// at state-build time (moves conserve total load). Unassigned load is
	// included: once placed it pushes utilization up, and the target must
	// account for it or the solver would chase a moving average.
	meanUtil float64
}

// capPenalty treats hard-constraint overflow as a very large soft penalty so
// local search can repair infeasible initial states while the feasibility
// check prevents creating new overflow.
func (sp *specState) capPenalty(d int32, load float64) float64 {
	if sp.nHard == 0 {
		return 0
	}
	if c := sp.cap[d]; load > c {
		return float64(sp.nHard) * 1e6 * (load - c)
	}
	return 0
}

// balPenalty sums the merged balance goals' penalties for one domain given
// its load. Penalty is measured in capacity-weighted overload so that moving
// a large entity off an overloaded domain helps proportionally.
func (sp *specState) balPenalty(d int32, load float64) float64 {
	var pen float64
	c := sp.cap[d]
	for i := range sp.bals {
		b := &sp.bals[i]
		if c <= 0 {
			// Load on a zero-capacity domain is maximally penalized.
			if load > 0 {
				pen += b.weight * load
			}
			continue
		}
		u := load / c
		var over float64
		if b.utilCap > 0 && u > b.utilCap {
			over += (u - b.utilCap) * c
		}
		if b.maxDiff > 0 && u > sp.meanUtil+b.maxDiff {
			over += (u - sp.meanUtil - b.maxDiff) * c
		}
		pen += b.weight * over
	}
	return pen
}

// domPenalty is the domain's total capacity+balance penalty at the given load.
func (sp *specState) domPenalty(d int32, load float64) float64 {
	return sp.capPenalty(d, load) + sp.balPenalty(d, load)
}

// confState is one hard conflict spec: each entity's group, and each group's
// entities listed once (CSR). How many of a group sit in a domain is not
// stored: others reads it off state.assignment, which costs O(group size) — a
// group is one shard's replicas, one to three on every deployment — where a
// stored count costs a hash per question and a write per move.
type confState struct {
	dom      *scopeDomains
	entGroup []int32 // entity -> group, -1 if not in the spec (the spec's own slice)
	// ents[start[g]:start[g+1]] are group g's entities, in entity order.
	start []int32
	ents  []EntityID
	// extra counts, over every (group, domain), the entities beyond the
	// first: walked at sync, kept by apply.
	extra int
}

// exclState is one soft exclusion spec: the same membership, and what each
// colocated extra entity costs.
type exclState struct {
	confState
	weight float64
}

// index indexes spec's groups over n entities, into cs's own buffers; fill is
// scratch.
func (cs *confState) index(spec *ExclusionSpec, dom *scopeDomains, n int, fill *[]int32) {
	if len(spec.Group) != n {
		panic(fmt.Sprintf("solver: exclusion spec at scope %q states groups for %d entities, problem has %d", spec.Scope, len(spec.Group), n))
	}
	start := resize(cs.start, spec.NumGroups+1)
	clear(start)
	for e, g := range spec.Group {
		if g < -1 || int(g) >= spec.NumGroups {
			panic(fmt.Sprintf("solver: entity %d in group %d, spec has %d groups", e, g, spec.NumGroups))
		}
		if g >= 0 {
			start[g+1]++
		}
	}
	for g := 0; g < spec.NumGroups; g++ {
		start[g+1] += start[g]
	}
	ents := resize(cs.ents, int(start[spec.NumGroups]))
	f := append((*fill)[:0], start[:spec.NumGroups]...)
	for e, g := range spec.Group {
		if g >= 0 {
			ents[f[g]] = EntityID(e)
			f[g]++
		}
	}
	*fill = f
	*cs = confState{dom: dom, entGroup: spec.Group, start: start, ents: ents}
}

// resize returns buf resliced to n elements, reusing its array when it is
// large enough; the elements are not cleared.
func resize[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// others counts the entities of group g other than e that sit in domain d,
// and names the one when it is alone there. Unassigned entities sit nowhere.
func (cs *confState) others(assignment []BucketID, g, d int32, e EntityID) (n int, sole EntityID) {
	for _, m := range cs.ents[cs.start[g]:cs.start[g+1]] {
		if m == e {
			continue
		}
		if b := assignment[m]; b != Unassigned && cs.dom.bucketDom[b] == d {
			n++
			sole = m
		}
	}
	return n, sole
}

// colocated counts, over every (group, domain), the entities beyond the first.
func (cs *confState) colocated(assignment []BucketID) int { return cs.walk(assignment, nil) }

// walk is colocated, and with crowd it also sets crowd[e], for every placed
// entity e of the spec, to whether another member of its group shares its
// domain; it leaves the other entities' flags as they were (or sets them
// false). It goes through the groups in order, which is cheaper than asking
// others entity by entity.
func (cs *confState) walk(assignment []BucketID, crowd []bool) int {
	var n int
	for g := 0; g+1 < len(cs.start); g++ {
		grp := cs.ents[cs.start[g]:cs.start[g+1]]
		if len(grp) == 2 {
			// The common group, a shard's two replicas, in one comparison.
			a, b := assignment[grp[0]], assignment[grp[1]]
			shared := a != Unassigned && b != Unassigned && cs.dom.bucketDom[a] == cs.dom.bucketDom[b]
			if shared {
				n++
			}
			if crowd != nil {
				crowd[grp[0]], crowd[grp[1]] = shared, shared
			}
			continue
		}
		for i, m := range grp {
			b := assignment[m]
			if b == Unassigned {
				continue
			}
			// m is an extra if an earlier member shares its domain, and
			// crowded if any other does.
			d := cs.dom.bucketDom[b]
			extra, crowded := false, false
			for j, o := range grp {
				if ob := assignment[o]; j != i && ob != Unassigned && cs.dom.bucketDom[ob] == d {
					crowded = true
					extra = extra || j < i
				}
			}
			if extra {
				n++
			}
			if crowd != nil {
				crowd[m] = crowded
			}
		}
	}
	return n
}

// affTerm is one interned affinity goal of an entity: penalty weight applies
// whenever the entity's bucket is outside domain domID at the goal's scope.
type affTerm struct {
	bucketDom []int32 // the scope's bucket -> domain mapping
	domID     int32   // preferred domain; -1 if no bucket is in it
	weight    float64
}

// state is the solver's incremental view of a problem.
type state struct {
	p *Problem
	// assignment[e] is the current bucket of entity e.
	assignment []BucketID

	specs []specState
	excls []exclState
	confs []confState
	// nExcl, nConf and nAff count the problem's exclusion specs, conflict
	// specs and affinity goals that excls, confs and aff hold: the ones there
	// at the last sync (ClearGoals zeroes them).
	nExcl, nConf, nAff int
	fill               []int32 // confState.index's scratch
	// crowd[xi][e] is whether entity e shared its domain with another member
	// of its group in exclusion spec xi at the last sync: walk's answer, read
	// while the hot set is seeded.
	crowd [][]bool

	// aff[e] lists entity e's interned affinity terms (empty for most).
	aff [][]affTerm
	// drainPen[b] is the per-entity drain penalty of bucket b (0 or the
	// problem's drain weight); draining is whether any is not 0.
	drainPen []float64
	draining bool

	// Per-bucket entity sets, maintained for neighborhood generation.
	byBucket [][]EntityID

	// bucketLoad[b][m] is the total load of metric m on bucket b,
	// regardless of spec scopes; samplers use it to prefer cold targets.
	bucketLoad [][]float64

	// unassigned counts entities without a bucket, away the ones placed off
	// their Home (at the last sync). affN and drainN count the placed
	// entities with an affinity penalty and those on a draining bucket:
	// counted at sync, kept by apply.
	unassigned, away int
	affN, drainN     int

	// hot tracks every bucket's penalty incrementally (see hotset.go);
	// apply keeps it in sync with the aggregates above.
	hot *hotSet
}

// newState builds the incremental state from the problem's current
// assignment.
func newState(p *Problem) *state {
	s := &state{p: p}
	s.sync()
	return s
}

// state returns the problem's kept state brought in step with the problem as
// it now stands, building it afresh when the buckets or entities were added
// to since.
func (p *Problem) state() *state {
	if s := p.st; s != nil && len(s.assignment) == len(p.Entities) && len(s.byBucket) == len(p.Buckets) {
		s.sync()
		return s
	}
	p.st = newState(p)
	return p.st
}

// sync brings the state in step with its problem, reusing its buffers. The
// assignment is read off the entities, and every aggregate is summed afresh
// in entity order, so a state synced again equals one built from nothing to
// the bit: carrying the sums over from the last Solve would leave its moves'
// rounding in them. Exclusion and conflict specs and affinity goals added
// since the last sync are indexed; the ones before stay as they were.
func (s *state) sync() {
	p := s.p
	nM := len(p.Metrics)
	s.assignment = resize(s.assignment, len(p.Entities))
	if len(s.byBucket) != len(p.Buckets) {
		s.byBucket = make([][]EntityID, len(p.Buckets))
		s.bucketLoad = make([][]float64, len(p.Buckets))
		loads := make([]float64, len(p.Buckets)*nM)
		for b := range s.bucketLoad {
			s.bucketLoad[b] = loads[b*nM : (b+1)*nM : (b+1)*nM]
		}
	}
	for b := range s.byBucket {
		s.byBucket[b] = s.byBucket[b][:0]
		clear(s.bucketLoad[b])
	}
	s.unassigned, s.away = 0, 0
	for i := range p.Entities {
		ent := &p.Entities[i]
		s.assignment[i] = ent.Bucket
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
		}
	}

	table := p.domainTable()

	// Merge capacity and balance specs by (metric, scope), capacity first.
	s.specs = s.specs[:0]
	for _, c := range p.capacitySpecs {
		s.spec(table, c.Metric, c.Scope).nHard++
	}
	for _, b := range p.balanceSpecs {
		sp := s.spec(table, b.Metric, b.Scope)
		sp.bals = append(sp.bals, balParams{utilCap: b.UtilCap, maxDiff: b.MaxDiff, weight: b.Weight})
	}

	s.excls = s.excls[:s.nExcl]
	for i := s.nExcl; i < len(p.exclusionSpecs); i++ {
		ex := &p.exclusionSpecs[i]
		s.excls = grow(s.excls)
		x := &s.excls[i]
		x.index(ex, table.domains(p, ex.Scope), len(p.Entities), &s.fill)
		x.weight = ex.Weight
	}
	s.nExcl = len(p.exclusionSpecs)
	s.confs = s.confs[:s.nConf]
	for i := s.nConf; i < len(p.conflictSpecs); i++ {
		cf := &p.conflictSpecs[i]
		s.confs = grow(s.confs)
		s.confs[i].index(cf, table.domains(p, cf.Scope), len(p.Entities), &s.fill)
	}
	s.nConf = len(p.conflictSpecs)
	for ci := range s.confs {
		s.confs[ci].extra = s.confs[ci].colocated(s.assignment)
	}
	s.crowd = s.crowd[:0]
	for xi := range s.excls {
		s.crowd = grow(s.crowd)
		s.crowd[xi] = resize(s.crowd[xi], len(p.Entities))
		s.excls[xi].extra = s.excls[xi].walk(s.assignment, s.crowd[xi])
	}

	if len(s.aff) != len(p.Entities) {
		s.aff = make([][]affTerm, len(p.Entities))
	}
	for _, g := range p.affinityGoals[s.nAff:] {
		dom := table.domains(p, g.Scope)
		domID, ok := dom.index[g.Domain]
		if !ok {
			domID = -1 // no bucket is in the preferred domain
		}
		s.aff[g.Entity] = append(s.aff[g.Entity], affTerm{bucketDom: dom.bucketDom, domID: domID, weight: g.Weight})
	}
	s.nAff = len(p.affinityGoals)

	s.drainPen = resize(s.drainPen, len(p.Buckets))
	s.draining = false
	for b := range p.Buckets {
		s.drainPen[b] = 0
		if p.drainWeight > 0 && p.Buckets[b].Draining {
			s.drainPen[b] = p.drainWeight
			s.draining = true
		}
	}

	s.affN, s.drainN = 0, 0
	for e := 0; (s.nAff > 0 || s.draining) && e < len(p.Entities); e++ {
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

// spec returns the merged spec state of (metric, scope), adding it with its
// domains' capacities and loads summed when it is new.
func (s *state) spec(table *domainTable, metric, scope string) *specState {
	p := s.p
	midx, dom := p.MetricIndex(metric), table.domains(p, scope)
	for i := range s.specs {
		if sp := &s.specs[i]; sp.midx == midx && sp.dom == dom {
			return sp
		}
	}
	s.specs = grow(s.specs)
	sp := &s.specs[len(s.specs)-1]
	*sp = specState{
		midx: midx,
		dom:  dom,
		bals: sp.bals[:0],
		load: resize(sp.load, dom.numDomains()),
		cap:  resize(sp.cap, dom.numDomains()),
	}
	clear(sp.load)
	clear(sp.cap)
	for b := range p.Buckets {
		sp.cap[dom.bucketDom[b]] += p.Buckets[b].Capacity[midx]
	}
	if dom.numDomains() == len(p.Buckets) {
		// Every bucket is its own domain, numbered as the bucket is: the
		// domain's load is the bucket's, summed in the same order.
		for b := range s.bucketLoad {
			sp.load[b] = s.bucketLoad[b][midx]
		}
	} else {
		for e := range p.Entities {
			if s.assignment[e] == Unassigned {
				continue
			}
			sp.load[dom.bucketDom[s.assignment[e]]] += p.Entities[e].Load[midx]
		}
	}
	var totLoad, totCap float64
	for d := range sp.cap {
		totCap += sp.cap[d]
		totLoad += sp.load[d]
	}
	// Unplaced load joins in entity order: float addition is not
	// associative, and the balance target must be the same bits on every run
	// of one input.
	for e := 0; s.unassigned > 0 && e < len(p.Entities); e++ {
		if s.assignment[e] == Unassigned {
			totLoad += p.Entities[e].Load[midx]
		}
	}
	if totCap > 0 {
		sp.meanUtil = totLoad / totCap
	}
	return sp
}

// affinityPenalty returns the affinity penalty of entity e sitting on bucket b.
func (s *state) affinityPenalty(e EntityID, b BucketID) float64 {
	terms := s.aff[e]
	if len(terms) == 0 {
		return 0
	}
	var pen float64
	for i := range terms {
		t := &terms[i]
		if t.bucketDom[b] != t.domID {
			pen += t.weight
		}
	}
	return pen
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
	// Per merged spec (parallel to state.specs):
	load      []float64 // entity load on the spec's metric
	fromDom   []int32   // source domain, -1 when unassigned
	fromDelta []float64 // penalty delta of the source domain losing load

	// Per conflict spec (parallel to state.confs):
	confGid     []int32
	confFromDom []int32

	// Per exclusion spec (parallel to state.excls):
	exGid       []int32
	exFromDom   []int32
	exFromDelta []float64 // -weight when leaving a crowded domain
}

func newPrepared(s *state) prepared {
	var pr prepared
	pr.fit(s)
	return pr
}

// fit sizes pr's per-spec arrays for s's specs, reusing them.
func (pr *prepared) fit(s *state) {
	pr.load = resize(pr.load, len(s.specs))
	pr.fromDom = resize(pr.fromDom, len(s.specs))
	pr.fromDelta = resize(pr.fromDelta, len(s.specs))
	pr.confGid = resize(pr.confGid, len(s.confs))
	pr.confFromDom = resize(pr.confFromDom, len(s.confs))
	pr.exGid = resize(pr.exGid, len(s.excls))
	pr.exFromDom = resize(pr.exFromDom, len(s.excls))
	pr.exFromDelta = resize(pr.exFromDelta, len(s.excls))
}

// prepare fills pr with entity e's from-side move state.
func (s *state) prepare(pr *prepared, e EntityID) {
	from := s.assignment[e]
	pr.e = e
	pr.from = from
	ent := &s.p.Entities[e]
	for si := range s.specs {
		sp := &s.specs[si]
		l := ent.Load[sp.midx]
		pr.load[si] = l
		pr.fromDom[si] = -1
		pr.fromDelta[si] = 0
		if from != Unassigned && l != 0 {
			fd := sp.dom.bucketDom[from]
			pr.fromDom[si] = fd
			lf := sp.load[fd]
			pr.fromDelta[si] = sp.domPenalty(fd, lf-l) - sp.domPenalty(fd, lf)
		}
	}
	for ci := range s.confs {
		cs := &s.confs[ci]
		g := cs.entGroup[e]
		pr.confGid[ci] = g
		pr.confFromDom[ci] = -1
		if g >= 0 && from != Unassigned {
			pr.confFromDom[ci] = cs.dom.bucketDom[from]
		}
	}
	for xi := range s.excls {
		ex := &s.excls[xi]
		g := ex.entGroup[e]
		pr.exGid[xi] = g
		pr.exFromDom[xi] = -1
		pr.exFromDelta[xi] = 0
		if g >= 0 && from != Unassigned {
			fd := ex.dom.bucketDom[from]
			pr.exFromDom[xi] = fd
			// Leaving a domain shared with another group member saves Weight.
			if n, _ := ex.others(s.assignment, g, fd, e); n >= 1 {
				pr.exFromDelta[xi] = -ex.weight
			}
		}
	}
	if from != Unassigned {
		pr.base = -(s.affinityPenalty(e, from) + s.drainPen[from])
	} else {
		pr.base = -unassignedPenalty
	}
}

// inert reports whether leaving the prepared entity's bucket frees no penalty:
// every leave term of evalTarget's delta (base, fromDelta, exFromDelta) is
// exactly 0. Every join term is >= 0 — affinity and drain at the target, a
// domain's penalty at a higher load less at the lower one (capPenalty and
// balPenalty are non-decreasing in load, in floating point too), Weight on
// joining a crowded domain — so an inert entity's delta is >= 0 at every
// target and no move of it alone can improve the objective. A negative load
// would make a join term negative, so an entity carrying one is never inert.
func (pr *prepared) inert() bool {
	if pr.base != 0 {
		return false
	}
	for si, d := range pr.fromDelta {
		if d != 0 || pr.load[si] < 0 {
			return false
		}
	}
	for _, d := range pr.exFromDelta {
		if d != 0 {
			return false
		}
	}
	return true
}

// evalTarget returns the objective change of moving the prepared entity to
// target, and whether the move is feasible (hard conflicts and capacity).
// Only strictly safe targets are feasible: every capacity domain the move
// loads must remain within capacity. evalTarget does not mutate state and is
// safe to call concurrently with other evalTarget calls.
func (s *state) evalTarget(pr *prepared, target BucketID) (float64, bool) {
	if target == pr.from {
		return 0, false
	}

	// Hard conflict feasibility: a group member may not join a domain
	// that already holds one.
	for ci := range s.confs {
		g := pr.confGid[ci]
		if g < 0 {
			continue
		}
		cs := &s.confs[ci]
		td := cs.dom.bucketDom[target]
		if td == pr.confFromDom[ci] {
			continue
		}
		if n, _ := cs.others(s.assignment, g, td, pr.e); n >= 1 {
			return 0, false
		}
	}

	delta := pr.base + s.affinityPenalty(pr.e, target) + s.drainPen[target]

	// Hard capacity feasibility + capacity/balance penalty deltas.
	for si := range s.specs {
		l := pr.load[si]
		if l == 0 {
			continue
		}
		sp := &s.specs[si]
		td := sp.dom.bucketDom[target]
		if td == pr.fromDom[si] {
			continue // same aggregation domain: no change
		}
		lt := sp.load[td]
		newLoad := lt + l
		if sp.nHard > 0 && newLoad > sp.cap[td] {
			return 0, false
		}
		delta += sp.domPenalty(td, newLoad) - sp.domPenalty(td, lt) + pr.fromDelta[si]
	}

	// Exclusion deltas: joining a domain that already has a group member
	// costs Weight; leaving a crowded one saves it (precomputed).
	for xi := range s.excls {
		g := pr.exGid[xi]
		if g < 0 {
			continue
		}
		ex := &s.excls[xi]
		td := ex.dom.bucketDom[target]
		if td == pr.exFromDom[xi] {
			continue
		}
		if n, _ := ex.others(s.assignment, g, td, pr.e); n >= 1 {
			delta += ex.weight
		}
		delta += pr.exFromDelta[xi]
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

	// Merged spec aggregates. A domain's penalty change is credited to
	// every bucket in the domain (they share the aggregate).
	for si := range s.specs {
		sp := &s.specs[si]
		l := ent.Load[sp.midx]
		if l == 0 {
			continue
		}
		td := sp.dom.bucketDom[target]
		if from != Unassigned {
			fd := sp.dom.bucketDom[from]
			if fd == td {
				continue
			}
			before := sp.domPenalty(fd, sp.load[fd])
			sp.load[fd] -= l
			if d := sp.domPenalty(fd, sp.load[fd]) - before; d != 0 {
				for _, b := range sp.dom.members[fd] {
					hot.add(BucketID(b), d)
				}
			}
		}
		before := sp.domPenalty(td, sp.load[td])
		sp.load[td] += l
		if d := sp.domPenalty(td, sp.load[td]) - before; d != 0 {
			for _, b := range sp.dom.members[td] {
				hot.add(BucketID(b), d)
			}
		}
	}

	// Hard conflicts only keep their count: the penalty has no term for them.
	for ci := range s.confs {
		cs := &s.confs[ci]
		g := cs.entGroup[e]
		if g < 0 {
			continue
		}
		td := cs.dom.bucketDom[target]
		if from != Unassigned {
			fd := cs.dom.bucketDom[from]
			if fd == td {
				continue
			}
			if fn, _ := cs.others(s.assignment, g, fd, e); fn >= 1 {
				cs.extra--
			}
		}
		if tn, _ := cs.others(s.assignment, g, td, e); tn >= 1 {
			cs.extra++
		}
	}

	// Exclusion crowding. The penalty charges Weight to each entity sharing
	// its domain with another group member, so crossing the 1<->2 member
	// boundary also changes the penalty of the other member's bucket. e's
	// peers are read off the assignment, where e itself is never counted.
	for xi := range s.excls {
		ex := &s.excls[xi]
		g := ex.entGroup[e]
		if g < 0 {
			continue
		}
		w := ex.weight
		td := ex.dom.bucketDom[target]
		tn, tsole := ex.others(s.assignment, g, td, e)
		if from != Unassigned {
			fd := ex.dom.bucketDom[from]
			if fd == td {
				// Same domain: counts unchanged, but e's own crowding
				// term moves with it.
				if tn >= 1 {
					hot.add(from, -w)
					hot.add(target, w)
				}
				continue
			}
			fn, fsole := ex.others(s.assignment, g, fd, e)
			if fn >= 1 {
				hot.add(from, -w) // e was crowded at the source
				ex.extra--
			}
			if fn == 1 {
				hot.add(s.assignment[fsole], -w) // last peer no longer crowded
			}
		}
		if tn >= 1 {
			hot.add(target, w) // e becomes crowded at the target
			ex.extra++
		}
		if tn == 1 {
			hot.add(s.assignment[tsole], w) // sole occupant now crowded
		}
	}

	// Affinity and drain are per-entity terms that travel with e.
	if from != Unassigned {
		fa := s.affinityPenalty(e, from)
		s.affN -= b2i(fa > 0)
		s.drainN -= b2i(s.drainPen[from] > 0)
		if d := fa + s.drainPen[from]; d != 0 {
			hot.add(from, -d)
		}
	}
	ta := s.affinityPenalty(e, target)
	s.affN += b2i(ta > 0)
	s.drainN += b2i(s.drainPen[target] > 0)
	if d := ta + s.drainPen[target]; d != 0 {
		hot.add(target, d)
	}

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
}

// ViolationCounts summarizes constraint and goal violations.
type ViolationCounts struct {
	// Capacity keys over their hard capacity.
	Capacity int
	// Conflict counts colocated same-group entities under hard conflict
	// specs (pairs beyond the first per domain).
	Conflict int
	// Balance keys over UtilCap or over mean+MaxDiff (each rule counts).
	Balance int
	// Entities not on their preferred domain.
	Affinity int
	// Colocated same-group entity pairs beyond the first per domain.
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
// and balance rules by a scan of the domains, the rest off the counts sync
// took and apply keeps. It is for reporting, not the hot path.
func (s *state) violations() ViolationCounts {
	var v ViolationCounts
	for si := range s.specs {
		sp := &s.specs[si]
		if sp.nHard > 0 {
			for d := range sp.load {
				if sp.load[d] > sp.cap[d]+1e-9 {
					v.Capacity += sp.nHard
				}
			}
		}
		for i := range sp.bals {
			bp := &sp.bals[i]
			for d := range sp.cap {
				c := sp.cap[d]
				if c <= 0 {
					continue
				}
				u := sp.load[d] / c
				if bp.utilCap > 0 && u > bp.utilCap+1e-9 {
					v.Balance++
				}
				if bp.maxDiff > 0 && u > sp.meanUtil+bp.maxDiff+1e-9 {
					v.Balance++
				}
			}
		}
	}
	v.Affinity, v.Drain = s.affN, s.drainN
	for xi := range s.excls {
		v.Exclusion += s.excls[xi].extra
	}
	for ci := range s.confs {
		v.Conflict += s.confs[ci].extra
	}
	v.Unassigned = s.unassigned
	return v
}

// seedPenalty returns how much bucket b contributes to the objective, as sync
// seeds the hot set with it; afterwards apply maintains the same quantity
// incrementally. An entity's crowding is read off crowd, which sync's walks
// just filled; the terms are added in one order on every sync, so a state
// synced again seeds the same bits.
func (s *state) seedPenalty(b BucketID) float64 {
	var pen float64
	for si := range s.specs {
		sp := &s.specs[si]
		d := sp.dom.bucketDom[b]
		pen += sp.domPenalty(d, sp.load[d])
	}
	// An affinity or drain term that is 0 adds nothing, so it is not read.
	travel := s.nAff > 0 || s.drainPen[b] != 0
	if !travel && len(s.excls) == 0 {
		return pen
	}
	for _, e := range s.byBucket[b] {
		if travel {
			pen += s.affinityPenalty(e, b) + s.drainPen[b]
		}
		for xi := range s.excls {
			if s.excls[xi].entGroup[e] >= 0 && s.crowd[xi][e] {
				pen += s.excls[xi].weight
			}
		}
	}
	return pen
}
