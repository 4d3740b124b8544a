// Package allocator implements Shard Manager's allocator (§5): it turns the
// current view of an application partition — servers with capacities and
// health, shards with per-replica loads and placement preferences — into a
// constrained optimization problem for the generic solver, runs the solver
// in either emergency or periodic mode, and converts the solution back into
// a bounded set of replica moves.
//
// The allocator is where SM's domain knowledge lives (§5.3): it groups
// servers for sampling, orders big shards first, batches goals by priority —
// every run solves the placement goals, hard constraints included, and a
// periodic run then adds the balance goals and solves again — and enforces
// the churn hard constraints: the global move cap is the solver's move budget,
// spent by the search, and the per-shard cap is applied to the emitted diff.
package allocator

import (
	"cmp"
	"fmt"
	"slices"
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
	// "rack") to this server's domain at that level. The allocator reads
	// only the region.
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
	// Policy.AffinityWeight when PreferenceWeight is zero; a weight that is
	// zero then states no preference.
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
	// big-first ordering and the target draw's utilization bias.
	Metrics []topology.Resource
	// UtilCap is the per-server utilization threshold (§5.1 soft goal 4);
	// 0 disables.
	UtilCap float64
	// MaxDiff is the allowed utilization deviation above the mean (§5.1
	// soft goals 5-6); 0 disables.
	MaxDiff float64
	// SpreadLevel is the fault-domain level across which a shard's
	// replicas spread (§5.1 soft goal 2); SpreadWeight 0 disables. The
	// region is the one level: New panics on another.
	SpreadLevel  topology.FaultDomainLevel
	SpreadWeight float64
	// AffinityWeight is the default region-preference weight; 0 disables
	// the preferences that state no weight of their own.
	AffinityWeight float64
	// PerShardMoveCap bounds concurrent replica moves per shard emitted
	// in one run (hard constraint 1 of §5.1). 0 means 1.
	PerShardMoveCap int
	// MaxTotalMoves bounds the migrations of one run — the solver's move
	// budget, so the search stops spending moves there; 0 means unlimited.
	MaxTotalMoves int
}

// What every application gets (§5.3's optimizations are not per-application
// policy: the solver always samples by region and orders big shards first, and
// Run always solves the goals in two priority batches; smbench -fig fig22
// measures the sampling against Options.Uniform, the mutant no-big-first
// measures big-shards-first, and no run measures the batches).
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
	// by the placement batch on the input: the critical and placement goals,
	// never balance. Final is counted on the placement the search reached
	// within MaxTotalMoves, before the Deferred moves were taken back out.
	Initial, Final solver.ViolationCounts
	// Floor is the last solve's floor, a lower bound on Final kind by kind
	// (solver.Result).
	Floor solver.ViolationCounts
	// Solves is the number of solver batches run: 2 for a periodic run
	// (placement, then balance), 1 for an emergency one.
	Solves int
	// Elapsed is total solver wall-clock time.
	Elapsed time.Duration
	// Evaluated counts the solver's candidate moves over all batches: the
	// pairs its grids scored and the runner-ups they checked again.
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
	if policy.SpreadLevel != topology.LevelRegion {
		panic(fmt.Sprintf("allocator: spread at %v, only the region is supported", policy.SpreadLevel))
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
// one entity per desired replica in shard order, which holds its region
// preference and its replica's bucket (the entity's Home), and a per-metric
// load slot its replicas share. Its owner restates what changed between runs —
// SetServers, SetShard, SetCurrent — and Run answers as Allocator.Run does on
// the equivalent Input; Allocator.Run is this type built from an Input and run
// once. The solver problem and its state are kept too, made once with the
// entities the shard specs fix and the goals the policy states: the solver
// sums every load afresh, so only the building is saved, and a run no setter
// has written a differing value since is not run again (Run).
type Problem struct {
	a      *Allocator
	shards []shardSlot
	// loads[i*len(Metrics):][:len(Metrics)] is shard i's load slot, in the
	// solver's load units.
	loads []int64

	// buckets[i] is the bucket of the i-th server of the last SetServers, -1
	// for one not live; serverOf is its inverse.
	buckets  []int
	serverOf []shard.ServerID
	// prob is the solver's problem: the live servers are its buckets, caps
	// holds their capacities, and its entities are the shards' replicas, each
	// Home the bucket its replica is on (Unassigned when it has no live
	// server, or no replica yet).
	prob *solver.Problem
	caps []int64
	// balance is the balance batch's rules, one per metric (nil: the policy
	// states none); the placement batch solves without them.
	balance []solver.BalanceRule

	// moves is the room capDiff writes a fresh run's diff in.
	moves []ReplicaMove

	// last is the last run's result (nil: none, or a setter has written a
	// value other than the one it read since), lastMode its mode.
	last     *Result
	lastMode Mode
}

// shardSlot is one shard of a Problem.
type shardSlot struct {
	id              shard.ID
	first, replicas int // its entities are first .. first+replicas-1
}

// NewProblem returns the problem of the given shards, in that order, with
// their loads and preferences, the policy's goals and no server: SetServers
// and SetCurrent state the rest.
func (a *Allocator) NewProblem(shards []ShardSpec) *Problem {
	pol := a.policy
	p := &Problem{a: a, shards: make([]shardSlot, len(shards)), prob: solver.NewProblem(len(pol.Metrics))}
	// Two goal batches, highest priority first (§5.3: "groups placement goals
	// of similar priorities into batches"): the placement batch holds the
	// critical goals — capacity, drains and (the solver's own rule on the
	// grouping) no two replicas of a shard on one server — with spread and
	// region preference, and the balance batch adds the balance rules (run).
	p.prob.DrainWeight, p.prob.SpreadWeight = drainWeight, pol.SpreadWeight
	if pol.UtilCap > 0 || pol.MaxDiff > 0 {
		p.balance = make([]solver.BalanceRule, len(pol.Metrics))
		for m := range p.balance {
			p.balance[m] = solver.BalanceRule{UtilCap: pol.UtilCap, MaxDiff: pol.MaxDiff, Weight: balanceWeight}
		}
	}
	n := 0
	for i, spec := range shards {
		p.shards[i] = shardSlot{id: spec.ID, first: n, replicas: spec.Replicas}
		n += spec.Replicas
	}
	p.loads = make([]int64, len(shards)*len(a.policy.Metrics))
	// The entities are restated in place at every run: one per replica,
	// sharing its shard's load slot, and a shard with replicas to keep apart
	// is a group.
	p.prob.Entities = make([]solver.Entity, 0, n)
	for i, spec := range shards {
		g := int32(-1)
		if spec.Replicas > 1 {
			g = int32(i)
		}
		for range spec.Replicas {
			p.prob.AddEntity(solver.Entity{Load: p.slot(i), Bucket: solver.Unassigned, Group: g})
		}
		p.SetShard(i, spec)
	}
	return p
}

// SetServers states the servers. Only live ones are buckets, numbered in
// list order; it returns each server's bucket, -1 for one not live, in a
// slice the problem keeps until the next call. A live server's capacities are
// quantized (solver.Quantize, which panics on one it cannot hold). A bucket
// number another server held before must be restated by SetCurrent for every
// shard with a replica there. A server's region is its bucket's domain, and nothing else
// of its Domains is read. The live servers are written into the solver
// problem as its buckets, and their drains always; the buckets are restated
// (solver.Problem.ClearBuckets) only when a live server, its region or its
// capacity differs from the one stated last. A drain that differs from the one
// held, like a restated list, makes the next Run run afresh.
func (p *Problem) SetServers(servers []ServerInfo) []int {
	metrics := p.a.policy.Metrics
	region := topology.LevelRegion.String()
	prob := p.prob
	same := true
	live := 0
	p.buckets = p.buckets[:0]
	for _, s := range servers {
		b := -1
		if s.Alive {
			b = live
			live++
			same = same && b < len(p.serverOf) && p.serverOf[b] == s.ID &&
				prob.Buckets[b].Domain == s.Domains[region]
			for i, m := range metrics {
				same = same && prob.Buckets[b].Capacity[i] == solver.Quantize(s.Capacity.Get(m))
			}
		}
		p.buckets = append(p.buckets, b)
	}
	if !same || live != len(p.serverOf) {
		prob.ClearBuckets()
		p.serverOf, p.last = p.serverOf[:0], nil
		nM := len(metrics)
		p.caps = slices.Grow(p.caps[:0], live*nM)[:live*nM]
		for _, s := range servers {
			if !s.Alive {
				continue
			}
			c := p.caps[len(prob.Buckets)*nM:][:nM:nM]
			for i, m := range metrics {
				c[i] = solver.Quantize(s.Capacity.Get(m))
			}
			prob.AddBucket(solver.Bucket{Capacity: c, Domain: s.Domains[region], Draining: s.Draining})
			p.serverOf = append(p.serverOf, s.ID)
		}
		return p.buckets
	}
	for i, s := range servers {
		if b := p.buckets[i]; b >= 0 && prob.Buckets[b].Draining != s.Draining {
			prob.Buckets[b].Draining, p.last = s.Draining, nil
		}
	}
	return p.buckets
}

// SetShard states shard i's load, quantized as SetLoad does, and its region
// preference; its ID and replica count are the ones NewProblem was given.
func (p *Problem) SetShard(i int, spec ShardSpec) {
	sh := &p.shards[i]
	if spec.ID != sh.id || spec.Replicas != sh.replicas {
		panic(fmt.Sprintf("allocator: shard %d is %s with %d replicas, not %s with %d", i, sh.id, sh.replicas, spec.ID, spec.Replicas))
	}
	for m, r := range p.a.policy.Metrics {
		p.setLoad(i, m, spec.Load.Get(r))
	}
	p.SetPreference(i, spec.RegionPreference, spec.PreferenceWeight)
}

// SetLoad states shard i's load, one value per Policy.Metrics in that order,
// quantized to the solver's load units (solver.Quantize, which panics on a
// value it cannot hold).
func (p *Problem) SetLoad(i int, load []float64) {
	for m, v := range load {
		p.setLoad(i, m, v)
	}
}

// setLoad writes v, quantized, into metric m of shard i's load slot. A value
// other than the one held makes the next Run run afresh, even if it is written
// back before.
func (p *Problem) setLoad(i, m int, v float64) {
	l := &p.slot(i)[m]
	if q := solver.Quantize(v); *l != q {
		*l, p.last = q, nil
	}
}

// SetPreference states shard i's region preference and its weight, which
// defaults to Policy.AffinityWeight, on each of its replicas' entities. A
// preference written other than the one held makes the next Run run afresh,
// even if it is written back before.
func (p *Problem) SetPreference(i int, region topology.RegionID, weight float64) {
	sh := &p.shards[i]
	w := cmp.Or(weight, p.a.policy.AffinityWeight)
	if region == "" {
		w = 0
	}
	for e := sh.first; e < sh.first+sh.replicas; e++ {
		if ent := &p.prob.Entities[e]; ent.Prefer != string(region) || ent.PreferWeight != w {
			ent.Prefer, ent.PreferWeight, p.last = string(region), w, nil
		}
	}
}

// SetCurrent states the buckets shard i's replicas are on, one element per
// replica placed (-1 for one on a server that is not live), at most its
// replica count, as its entities' Homes. A bucket other than the one held
// makes the next Run run afresh, even if it is written back before.
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
		if ent := &p.prob.Entities[sh.first+r]; ent.Home != b {
			ent.Home, p.last = b, nil
		}
	}
}

// slot returns shard i's load slot.
func (p *Problem) slot(i int) []int64 {
	m := len(p.a.policy.Metrics)
	return p.loads[i*m : (i+1)*m : (i+1)*m]
}

// Run performs one allocation on the problem as stated and returns the
// bounded diff, which must not be modified. A run is a function of the values
// stated and the mode alone — the seed is fixed and nothing reads the clock —
// so Run returns the last run's result again, the same pointer, while the
// mode is that run's and no setter has written a value other than the one
// held since: each setter compares as it writes, so a replay compares nothing.
func (p *Problem) Run(mode Mode) *Result {
	if p.last == nil || mode != p.lastMode {
		p.last, p.lastMode = p.run(mode), mode
	}
	return p.last
}

// run is Run without the replay.
func (p *Problem) run(mode Mode) *Result {
	prob := p.prob
	if len(prob.Buckets) == 0 {
		return &Result{}
	}
	pol := p.a.policy

	// Entities start at their Home: a replica on a live server keeps its
	// bucket, any other starts unassigned. In emergency mode, placed replicas
	// are pinned, and the solver reads no pinned replica's preference.
	for e := range prob.Entities {
		ent := &prob.Entities[e]
		if b := ent.Home; b != solver.Unassigned && int(b) >= len(p.serverOf) {
			panic(fmt.Sprintf("allocator: entity %d is on bucket %d, %d servers are live: a renumbered replica was not restated", e, b, len(p.serverOf)))
		}
		ent.Bucket = ent.Home
		ent.Movable = mode != Emergency || ent.Home == solver.Unassigned
	}

	res := &Result{}
	// Both batches spend one budget: an entity's Home is where this run
	// found it.
	opt := solver.Options{Seed: p.a.seed, MoveBudget: pol.MaxTotalMoves}
	start := time.Now()
	solve := func() {
		sres := solver.Solve(prob, opt)
		if res.Solves == 0 {
			res.Initial = sres.Initial
		}
		res.Final, res.Floor = sres.Final, sres.Floor
		res.Solves++
		res.Evaluated += sres.Evaluated
	}

	// The placement batch places a replica or moves it off a drain once, with
	// spread and preference in view. Every run solves it; a periodic run then
	// adds the balance rules and solves again, so balance cannot undo a
	// placement fix for free. Solve brings its state in step with the problem
	// as it then stands and leaves the assignment it reached in prob.Entities
	// for the next batch. An emergency run solves the placement batch alone.
	prob.Balance = nil
	solve()
	if mode != Emergency {
		prob.Balance = p.balance
		solve()
	}
	res.Elapsed = time.Since(start)

	res.Moves, res.Deferred = p.capDiff(prob.Entities)
	sortMoves(res.Moves)
	if len(res.Moves) == 0 {
		res.Moves = nil // as a problem run the first time reports none
	}
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
// named only when its move is emitted. The diff is written in shard order into
// room the problem keeps, valid until the next fresh run; sortMoves puts the
// adds first.
func (p *Problem) capDiff(ents []solver.Entity) ([]ReplicaMove, int) {
	perShard := p.a.policy.PerShardMoveCap
	deferred, n := 0, 0
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
			if ents[e].Bucket != ents[e].Home {
				n++
			}
		}
	}
	// Counted first, the diff grows the kept room once.
	moves := slices.Grow(p.moves[:0], n)
	for _, sh := range p.shards {
		for e := sh.first; e < sh.first+sh.replicas; e++ {
			switch to, from := ents[e].Bucket, ents[e].Home; {
			case to == from:
			case from == solver.Unassigned:
				moves = append(moves, ReplicaMove{Shard: sh.id, To: p.serverOf[to]})
			default:
				moves = append(moves, ReplicaMove{Shard: sh.id, From: p.serverOf[from], To: p.serverOf[to]})
			}
		}
	}
	// Room for a move of every replica is the initial placement's: kept, it
	// would stay live for good.
	p.moves = nil
	if cap(moves) < len(p.prob.Entities) {
		p.moves = moves
	}
	return moves, deferred
}

// sortMoves orders a diff: adds before migrations, then by shard and target.
// No two moves of a diff share all three (capDiff cancels a move onto a
// server another replica of its shard ends on), so the order is total and
// does not depend on the order capDiff wrote them in.
func sortMoves(moves []ReplicaMove) {
	slices.SortStableFunc(moves, func(a, b ReplicaMove) int {
		if (a.From == "") != (b.From == "") {
			if a.From == "" {
				return -1
			}
			return 1
		}
		return cmp.Or(cmp.Compare(a.Shard, b.Shard), cmp.Compare(a.To, b.To))
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
