// Package allocator implements Shard Manager's allocator (§5): it turns the
// current view of an application partition — servers with capacities and
// health, shards with per-replica loads and placement preferences — into a
// constrained optimization problem for the generic solver, runs the solver
// in either emergency or periodic mode, and converts the solution back into
// a bounded set of replica moves.
//
// The allocator is where SM's domain knowledge lives (§5.3): it groups
// servers for sampling, orders big shards first, batches goals by priority,
// and enforces the churn hard constraints: the global move cap is the
// solver's move budget, spent by the search, and the per-shard cap is
// applied to the emitted diff.
package allocator

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"time"

	"shardmanager/internal/shard"
	"shardmanager/internal/solver"
	"shardmanager/internal/topology"
)

// ServerInfo describes one candidate placement target (one application
// server / container).
type ServerInfo struct {
	ID shard.ServerID
	// Domains maps fault-domain level names ("region", "datacenter",
	// "rack") to this server's domain at that level.
	Domains map[string]string
	// Capacity per resource. Resources missing from the map have zero
	// capacity for balancing purposes.
	Capacity topology.Capacity
	// Alive servers can receive replicas. Dead servers' replicas are
	// treated as unassigned.
	Alive bool
	// Draining servers should shed replicas (pending maintenance or
	// upgrade, §5.1 soft goal 3).
	Draining bool
}

// ShardSpec describes one shard's placement requirements.
type ShardSpec struct {
	ID shard.ID
	// Replicas is the replica count, fixed by the shard's configuration.
	Replicas int
	// Load is the measured per-replica load.
	Load topology.Capacity
	// RegionPreference, if non-empty, is the preferred region for this
	// shard's replicas (§5.1 soft goal 1). Weight defaults to
	// Policy.AffinityWeight when PreferenceWeight is zero.
	RegionPreference topology.RegionID
	PreferenceWeight float64
}

// Input is one allocation request.
type Input struct {
	Servers []ServerInfo
	Shards  []ShardSpec
	// Current maps each shard to the servers currently holding its
	// replicas (one element per replica, at most the spec's Replicas: a
	// replica not placed yet is missing from the end).
	Current map[shard.ID][]shard.ServerID
}

// Mode selects the allocation mode (§5.1).
type Mode int

// Allocation modes.
const (
	// Periodic optimizes the placement of all shards and must not
	// deteriorate soft goals.
	Periodic Mode = iota
	// Emergency places unavailable shards as quickly as possible while
	// satisfying hard constraints; healthy replicas are pinned.
	Emergency
)

// String returns the mode name.
func (m Mode) String() string {
	if m == Emergency {
		return "emergency"
	}
	return "periodic"
}

// Policy configures the allocator for one application.
type Policy struct {
	// Metrics to balance on; the first is the primary metric used for
	// big-first ordering and sampler utilization bias.
	Metrics []topology.Resource
	// UtilCap is the per-server utilization threshold (§5.1 soft goal 4);
	// 0 disables.
	UtilCap float64
	// MaxDiff is the allowed utilization deviation above the mean (§5.1
	// soft goals 5-6); 0 disables.
	MaxDiff float64
	// SpreadLevel is the fault-domain level across which a shard's
	// replicas spread (§5.1 soft goal 2); SpreadWeight 0 disables.
	SpreadLevel  topology.FaultDomainLevel
	SpreadWeight float64
	// AffinityWeight is the default region-preference weight.
	AffinityWeight float64
	// PerShardMoveCap bounds concurrent replica moves per shard emitted
	// in one run (hard constraint 1 of §5.1). 0 means 1.
	PerShardMoveCap int
	// MaxTotalMoves bounds the migrations of one run — the solver's move
	// budget, so the search stops spending moves there; 0 means unlimited.
	MaxTotalMoves int
}

// What every application gets (§5.3's optimizations are not per-application
// policy: Run always samples by group, orders big shards first and solves the
// goals in priority stages; smbench -fig fig22 measures the sampling and -fig
// ablations big-shards-first on solver.Options directly, and no run measures
// the stages).
const (
	// drainWeight penalizes a replica on a draining server (§5.1 soft goal 3).
	drainWeight = 500
	// balanceWeight is every metric's weight in the balance goals.
	balanceWeight = 1
)

// DefaultPolicy returns a policy balancing on the given metrics.
func DefaultPolicy(metrics ...topology.Resource) Policy {
	if len(metrics) == 0 {
		metrics = []topology.Resource{topology.ResourceCPU}
	}
	return Policy{
		Metrics:         metrics,
		UtilCap:         0.9,
		MaxDiff:         0.1,
		SpreadLevel:     topology.LevelRegion,
		SpreadWeight:    100,
		AffinityWeight:  200,
		PerShardMoveCap: 1,
	}
}

// ReplicaMove is one element of the emitted diff. From == "" is a new
// placement (add); otherwise a migration.
type ReplicaMove struct {
	Shard shard.ID
	From  shard.ServerID
	To    shard.ServerID
}

// Kind classifies the move.
func (m ReplicaMove) Kind() string {
	if m.From == "" {
		return "add"
	}
	return "move"
}

// Result is the outcome of one allocation run.
type Result struct {
	// Moves is the emitted diff: adds, then migrations, each in shard
	// order.
	Moves []ReplicaMove
	// Deferred counts moves the solver made that the per-shard cap or a
	// replica collision kept out of the diff; the next periodic run will
	// retry them.
	Deferred int
	// Initial and Final are the solver's violation counts. Initial is counted
	// by the run's first solve: the critical goals alone when every replica
	// was placed, else the critical and placement goals together. Final is
	// counted on the placement the search reached within MaxTotalMoves,
	// before the Deferred moves were taken back out.
	Initial, Final solver.ViolationCounts
	// Solves is the number of solver batches run.
	Solves int
	// Elapsed is total solver wall-clock time.
	Elapsed time.Duration
	// Evaluated counts the solver's candidate moves over all stages: pairs
	// considered, scored or pruned.
	Evaluated int
}

// Allocator runs allocations for one application partition.
type Allocator struct {
	policy Policy
	seed   uint64
}

// New returns an allocator with the given policy.
func New(policy Policy, seed uint64) *Allocator {
	if len(policy.Metrics) == 0 {
		panic("allocator: policy needs at least one metric")
	}
	if policy.PerShardMoveCap <= 0 {
		policy.PerShardMoveCap = 1
	}
	return &Allocator{policy: policy, seed: seed}
}

// Run performs one allocation and returns the bounded diff: it builds the
// problem of in and runs it once. The input is not mutated. No shard's Current
// list may be longer than its Replicas: a replica count is configuration, so
// there is never a surplus to drop.
func (a *Allocator) Run(in Input, mode Mode) *Result {
	return a.fromInput(in).Run(mode)
}

// fromInput builds the problem the input states, resolving server names to
// buckets once.
func (a *Allocator) fromInput(in Input) *Problem {
	p := a.NewProblem(in.Shards)
	bucketOf := make(map[shard.ServerID]int, len(in.Servers))
	for i, b := range p.SetServers(in.Servers) {
		if b >= 0 {
			bucketOf[in.Servers[i].ID] = b
		}
	}
	var cur []int
	for i, spec := range in.Shards {
		cur = cur[:0]
		for _, id := range in.Current[spec.ID] {
			b, ok := bucketOf[id]
			if !ok {
				b = -1
			}
			cur = append(cur, b)
		}
		p.SetCurrent(i, cur)
	}
	return p
}

// Problem is one partition's allocation problem, kept from run to run: the
// live servers are the solver's buckets, and every shard has an entity range,
// one entity per desired replica in shard order, and a per-metric load slot
// its replicas share. Its owner restates what changed between runs —
// SetServers, SetShard, SetCurrent — and Run answers as Allocator.Run does on
// the equivalent Input; Allocator.Run is this type built from an Input and run
// once. The solver problem and its state are kept too: a run restates the
// entities and the goals, and the solver sums every load afresh, so only the
// building is saved.
type Problem struct {
	a      *Allocator
	shards []shardSlot
	// loads[i*len(Metrics):][:len(Metrics)] is shard i's load slot.
	loads []float64
	// cur[e] is the bucket entity e's replica is on: Unassigned when it has
	// no live server, or no replica yet.
	cur []solver.BucketID
	// group[e] is the index of entity e's shard when that shard has replicas
	// to keep apart, else -1: the group of both the server-scope conflict and
	// the spread goal.
	group   []int32
	grouped bool
	// preferring counts the shards with a region preference.
	preferring int

	// buckets[i] is the bucket of the i-th server of the last SetServers, -1
	// for one not live; serverOf is its inverse.
	buckets  []int
	serverOf []shard.ServerID
	// prob is the solver's problem over the live servers; nil while none is.
	prob *solver.Problem
}

// shardSlot is one shard of a Problem.
type shardSlot struct {
	id              shard.ID
	first, replicas int // its entities are first .. first+replicas-1
	pref            topology.RegionID
	weight          float64
}

// NewProblem returns the problem of the given shards, in that order, with
// their loads and preferences and no server: SetServers and SetCurrent state
// the rest.
func (a *Allocator) NewProblem(shards []ShardSpec) *Problem {
	p := &Problem{a: a, shards: make([]shardSlot, len(shards))}
	n := 0
	for i, spec := range shards {
		p.shards[i] = shardSlot{id: spec.ID, first: n, replicas: spec.Replicas}
		n += spec.Replicas
	}
	p.loads = make([]float64, len(shards)*len(a.policy.Metrics))
	p.cur = make([]solver.BucketID, n)
	p.group = make([]int32, n)
	for i, spec := range shards {
		g := int32(-1)
		if spec.Replicas > 1 {
			g = int32(i)
			p.grouped = true
		}
		for e := p.shards[i].first; e < p.shards[i].first+spec.Replicas; e++ {
			p.cur[e] = solver.Unassigned
			p.group[e] = g
		}
		p.SetShard(i, spec)
	}
	return p
}

// SetServers states the servers. Only live ones are buckets, numbered in
// list order; it returns each server's bucket, -1 for one not live, in a
// slice the problem keeps until the next call. A bucket number another
// server held before must be restated by SetCurrent for every shard with a
// replica there. When the live servers, their domains and their capacities
// are the ones stated last, only their drains are rewritten. A Domains map is
// read, not copied: changed domains come in a new map.
func (p *Problem) SetServers(servers []ServerInfo) []int {
	metrics := p.a.policy.Metrics
	same := p.prob != nil
	live := 0
	p.buckets = p.buckets[:0]
	for _, s := range servers {
		b := -1
		if s.Alive {
			b = live
			live++
			same = same && b < len(p.serverOf) && p.serverOf[b] == s.ID &&
				maps.Equal(p.prob.Buckets[b].Props, s.Domains)
			for i, m := range metrics {
				same = same && p.prob.Buckets[b].Capacity[i] == s.Capacity.Get(m)
			}
		}
		p.buckets = append(p.buckets, b)
	}
	if same && live == len(p.serverOf) {
		for i, s := range servers {
			if b := p.buckets[i]; b >= 0 {
				p.prob.Buckets[b].Draining = s.Draining
			}
		}
		return p.buckets
	}

	p.prob, p.serverOf = nil, p.serverOf[:0]
	if live == 0 {
		return p.buckets
	}
	metricNames := make([]string, len(metrics))
	for i, m := range metrics {
		metricNames[i] = string(m)
	}
	prob := solver.NewProblem(metricNames)
	caps := make([]float64, live*len(metrics))
	for _, s := range servers {
		if !s.Alive {
			continue
		}
		c := caps[:len(metrics):len(metrics)]
		caps = caps[len(metrics):]
		for i, m := range metrics {
			c[i] = s.Capacity.Get(m)
		}
		group := s.Domains[topology.LevelRegion.String()]
		if group == "" {
			group = "all"
		}
		prob.AddBucket(solver.Bucket{
			Name:     string(s.ID),
			Capacity: c,
			Props:    s.Domains,
			Group:    group,
			Draining: s.Draining,
		})
		p.serverOf = append(p.serverOf, s.ID)
	}
	// The entities are restated at every run; their count is known, so the
	// slice is sized once.
	prob.Entities = make([]solver.Entity, 0, len(p.cur))
	for i := range p.shards {
		for range p.shards[i].replicas {
			prob.AddEntity(solver.Entity{Load: p.slot(i), Bucket: solver.Unassigned})
		}
	}
	p.prob = prob
	return p.buckets
}

// SetShard states shard i's load and region preference; its ID and replica
// count are the ones NewProblem was given.
func (p *Problem) SetShard(i int, spec ShardSpec) {
	sh := &p.shards[i]
	if spec.ID != sh.id || spec.Replicas != sh.replicas {
		panic(fmt.Sprintf("allocator: shard %d is %s with %d replicas, not %s with %d", i, sh.id, sh.replicas, spec.ID, spec.Replicas))
	}
	load := p.slot(i)
	for m, r := range p.a.policy.Metrics {
		load[m] = spec.Load.Get(r)
	}
	switch {
	case sh.pref == "" && spec.RegionPreference != "":
		p.preferring++
	case sh.pref != "" && spec.RegionPreference == "":
		p.preferring--
	}
	sh.pref, sh.weight = spec.RegionPreference, spec.PreferenceWeight
}

// SetCurrent states the buckets shard i's replicas are on, one element per
// replica placed (-1 for one on a server that is not live), at most its
// replica count.
func (p *Problem) SetCurrent(i int, buckets []int) {
	sh := &p.shards[i]
	if len(buckets) > sh.replicas {
		panic(fmt.Sprintf("allocator: shard %s has %d current replicas, wants %d", sh.id, len(buckets), sh.replicas))
	}
	for r := range sh.replicas {
		b := solver.Unassigned
		if r < len(buckets) && buckets[r] >= 0 {
			b = solver.BucketID(buckets[r])
		}
		p.cur[sh.first+r] = b
	}
}

// slot returns shard i's load slot.
func (p *Problem) slot(i int) []float64 {
	m := len(p.a.policy.Metrics)
	return p.loads[i*m : (i+1)*m : (i+1)*m]
}

// Run performs one allocation on the problem as stated and returns the
// bounded diff.
func (p *Problem) Run(mode Mode) *Result {
	prob := p.prob
	if prob == nil {
		return &Result{}
	}
	pol := p.a.policy

	// Entities: existing placements on live servers keep their bucket; others
	// start unassigned. In emergency mode, placed replicas are pinned.
	prob.ClearGoals()
	unplaced := 0 // entities with no live server to start from
	for e, b := range p.cur {
		if b == solver.Unassigned {
			unplaced++
		} else if int(b) >= len(p.serverOf) {
			panic(fmt.Sprintf("allocator: entity %d is on bucket %d, %d servers are live: a renumbered replica was not restated", e, b, len(p.serverOf)))
		}
		ent := &prob.Entities[e]
		ent.Bucket, ent.Home = b, b
		ent.Movable = mode != Emergency || b == solver.Unassigned
	}

	res := &Result{}
	opt := solver.DefaultOptions()
	opt.Seed = p.a.seed
	// Every stage spends one budget: an entity's Home is where this run
	// found it.
	opt.MoveBudget = pol.MaxTotalMoves
	start := time.Now()
	solve := func() {
		// A sampler keeps a rotation; every stage starts a fresh one.
		opt.Sampler = solver.GroupedSampler(prob, 0)
		sres := solver.Solve(prob, opt)
		if res.Solves == 0 {
			res.Initial = sres.Initial
		}
		res.Final = sres.Final
		res.Solves++
		res.Evaluated += sres.Evaluated
	}

	// Goal stages, highest priority first (§5.3: "groups placement goals of
	// similar priorities into batches"). Each stage adds its goals to the
	// problem on top of the earlier stages', so a later stage cannot undo an
	// earlier fix for free; Solve brings its state in step with the problem as
	// it then stands and leaves the assignment it reached in prob.Entities for
	// the next stage. Emergency solves once, for the hard constraints and
	// placement only, and skips balance. Periodic solves after the placement
	// and balance stages, and after the critical stage only when every
	// replica is placed: a replica placed on the critical goals alone lands
	// blind to spread and region preference, and the placement stage would
	// spend far more evaluations moving it than placing it with them in view
	// costs. A placing run may therefore leave a drain to the next run.

	// Critical: capacity, no two replicas of a shard on one server, drains.
	for _, m := range prob.Metrics {
		prob.AddConstraint(solver.CapacitySpec{Metric: m})
	}
	if p.grouped {
		// Invariant: a shard's replicas never share a server (hard).
		prob.AddConflict(solver.ExclusionSpec{
			Scope:     solver.ScopeBucket,
			Group:     p.group,
			NumGroups: len(p.shards),
		})
	}
	prob.AddDrainGoal(drainWeight)
	if mode != Emergency && unplaced == 0 {
		solve()
	}

	// Placement: spread and region preference.
	if pol.SpreadWeight > 0 && p.grouped {
		prob.AddExclusionGoal(solver.ExclusionSpec{
			Scope:     pol.SpreadLevel.String(),
			Group:     p.group,
			NumGroups: len(p.shards),
			Weight:    pol.SpreadWeight,
		})
	}
	for i := 0; p.preferring > 0 && i < len(p.shards); i++ {
		sh := &p.shards[i]
		if sh.pref == "" {
			continue
		}
		w := sh.weight
		if w == 0 {
			w = pol.AffinityWeight
		}
		for e := sh.first; e < sh.first+sh.replicas; e++ {
			if prob.Entities[e].Movable {
				prob.AddAffinityGoal(solver.AffinityGoal{
					Scope:  topology.LevelRegion.String(),
					Entity: solver.EntityID(e),
					Domain: string(sh.pref),
					Weight: w,
				})
			}
		}
	}
	solve()

	// Balance.
	if mode != Emergency {
		if pol.UtilCap > 0 || pol.MaxDiff > 0 {
			for _, m := range prob.Metrics {
				prob.AddBalanceGoal(solver.BalanceSpec{
					Metric:  m,
					UtilCap: pol.UtilCap,
					MaxDiff: pol.MaxDiff,
					Weight:  balanceWeight,
				})
			}
		}
		solve()
	}
	res.Elapsed = time.Since(start)

	res.Moves, res.Deferred = p.capDiff(prob.Entities)
	sortMoves(res.Moves)
	return res
}

// capDiff compares where the solver left each replica (its Bucket) with where
// it started (its Home) and emits a diff bounded by the per-shard churn cap.
// The global cap needs nothing here: the solver spent it as its move budget.
// Adds (restoring availability) are never capped; migrations of
// already-placed replicas are. Every decision is made on bucket numbers —
// only live servers are buckets, so a replica on a dead server had no home —
// and is written over the entity's bucket: a replica ends at home (kept),
// somewhere when it had none (added), or elsewhere (migrated). A bucket is
// named only when its move is emitted.
func (p *Problem) capDiff(ents []solver.Entity) ([]ReplicaMove, int) {
	perShard := p.a.policy.PerShardMoveCap
	var adds, migrations []ReplicaMove
	deferred := 0
	for _, sh := range p.shards {
		lo, hi := sh.first, sh.first+sh.replicas
		shardMoves := 0
		for e := lo; e < hi; e++ {
			ent := &ents[e]
			switch {
			case ent.Bucket == ent.Home || ent.Home == solver.Unassigned:
				// Kept, or still unplaceable (no feasible server); or an
				// add, which restores availability and is never capped.
			case ent.Bucket == solver.Unassigned:
				// Solver failed to place an existing replica; keep it
				// where it is.
				ent.Bucket = ent.Home
			case shardMoves >= perShard:
				// A migration over the per-shard cap.
				deferred++
				ent.Bucket = ent.Home
			default:
				shardMoves++
			}
		}
		// Invariant: a shard never ends with two replicas on one server.
		// Cancel any add/migration whose target collides with another
		// replica of the same shard (typically one kept in place by the
		// per-shard cap). A cancelled migration reverts to its current
		// server, which may collide with yet another pending move, so
		// iterate to a fixpoint (bounded by the replica count).
		for changed := true; changed; {
			changed = false
			for e := lo; e < hi; e++ {
				to := ents[e].Bucket
				first := lo // the first replica of the shard that ends on to
				for ents[first].Bucket != to {
					first++
				}
				if first == e || to == solver.Unassigned {
					continue
				}
				cancel := &ents[e]
				if to == cancel.Home {
					cancel = &ents[first]
				}
				if cancel.Bucket == cancel.Home {
					continue // two keeps: current placement was malformed
				}
				// A migration reverts to its current server; an add is
				// retried next round.
				cancel.Bucket = cancel.Home
				deferred++
				changed = true
				break
			}
		}
		for e := lo; e < hi; e++ {
			switch to, from := ents[e].Bucket, ents[e].Home; {
			case to == from:
			case from == solver.Unassigned:
				adds = append(adds, ReplicaMove{Shard: sh.id, To: p.serverOf[to]})
			default:
				migrations = append(migrations, ReplicaMove{Shard: sh.id, From: p.serverOf[from], To: p.serverOf[to]})
			}
		}
	}
	return append(adds, migrations...), deferred
}

func sortMoves(moves []ReplicaMove) {
	sort.SliceStable(moves, func(i, j int) bool {
		if (moves[i].From == "") != (moves[j].From == "") {
			return moves[i].From == ""
		}
		if moves[i].Shard != moves[j].Shard {
			return moves[i].Shard < moves[j].Shard
		}
		return moves[i].To < moves[j].To
	})
}

// FormatMoves renders a diff compactly for logs and smctl.
func FormatMoves(moves []ReplicaMove) string {
	parts := make([]string, len(moves))
	for i, m := range moves {
		if m.Kind() == "add" {
			parts[i] = fmt.Sprintf("+%s@%s", m.Shard, m.To)
		} else {
			parts[i] = fmt.Sprintf("%s:%s->%s", m.Shard, m.From, m.To)
		}
	}
	return strings.Join(parts, " ")
}
