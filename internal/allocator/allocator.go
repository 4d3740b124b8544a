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

// Run performs one allocation and returns the bounded diff. The input is
// not mutated. No shard's Current list may be longer than its Replicas: a
// replica count is configuration, so there is never a surplus to drop.
func (a *Allocator) Run(in Input, mode Mode) *Result {
	p := a.policy
	metricNames := make([]string, len(p.Metrics))
	for i, m := range p.Metrics {
		metricNames[i] = string(m)
	}

	prob := solver.NewProblem(metricNames)

	// Buckets: live servers only. Dead servers' replicas become
	// unassigned entities.
	bucketOf := make(map[shard.ServerID]solver.BucketID)
	var serverOf []shard.ServerID // indexed by BucketID
	for _, s := range in.Servers {
		if !s.Alive {
			continue
		}
		cap := make([]float64, len(p.Metrics))
		for i, m := range p.Metrics {
			cap[i] = s.Capacity.Get(m)
		}
		group := s.Domains[topology.LevelRegion.String()]
		if group == "" {
			group = "all"
		}
		bucketOf[s.ID] = prob.AddBucket(solver.Bucket{
			Name:     string(s.ID),
			Capacity: cap,
			Props:    s.Domains,
			Group:    group,
			Draining: s.Draining,
		})
		serverOf = append(serverOf, s.ID)
	}
	if len(bucketOf) == 0 {
		return &Result{}
	}

	// Entities: one per desired replica, shard by shard in in.Shards' order.
	// Existing placements on live servers keep their bucket; others start
	// unassigned. In emergency mode, placed replicas are pinned. The count is
	// known, so the entity slice, their loads and their groups are each sized
	// once: growing them per replica is megabytes of garbage per run, in
	// bursts large enough to raise the process's peak heap.
	replicas := 0
	for _, spec := range in.Shards {
		replicas += spec.Replicas
	}
	prob.Entities = make([]solver.Entity, 0, replicas)
	loads := make([]float64, replicas*len(p.Metrics))
	// shardOf[e] is the index in in.Shards of entity e's shard when that shard
	// has replicas to keep apart, else -1: the group of both the server-scope
	// conflict and the spread goal.
	shardOf := make([]int32, 0, replicas)
	grouped := false
	unplaced := 0 // entities with no live server to start from
	var affinities []solver.AffinityGoal
	for si, spec := range in.Shards {
		cur := in.Current[spec.ID]
		if len(cur) > spec.Replicas {
			panic(fmt.Sprintf("allocator: shard %s has %d current replicas, wants %d", spec.ID, len(cur), spec.Replicas))
		}
		group := int32(-1)
		if spec.Replicas > 1 {
			group = int32(si)
			grouped = true
		}
		for idx := 0; idx < spec.Replicas; idx++ {
			load := loads[:len(p.Metrics):len(p.Metrics)]
			loads = loads[len(p.Metrics):]
			for i, m := range p.Metrics {
				load[i] = spec.Load.Get(m)
			}
			bucket := solver.Unassigned
			if idx < len(cur) {
				if b, ok := bucketOf[cur[idx]]; ok {
					bucket = b
				}
			}
			if bucket == solver.Unassigned {
				unplaced++
			}
			movable := mode != Emergency || bucket == solver.Unassigned
			id := prob.AddEntity(solver.Entity{
				Load:    load,
				Bucket:  bucket,
				Movable: movable,
			})
			shardOf = append(shardOf, group)
			if spec.RegionPreference != "" && movable {
				w := spec.PreferenceWeight
				if w == 0 {
					w = p.AffinityWeight
				}
				affinities = append(affinities, solver.AffinityGoal{
					Scope:  topology.LevelRegion.String(),
					Entity: id,
					Domain: string(spec.RegionPreference),
					Weight: w,
				})
			}
		}
	}

	res := &Result{}
	opt := solver.DefaultOptions()
	opt.Seed = a.seed
	// Every stage spends one budget: an entity's Home is where this run
	// found it.
	opt.MoveBudget = p.MaxTotalMoves
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
	// earlier fix for free; Solve builds its state from the problem as it
	// then stands and leaves the assignment it reached in prob.Entities for
	// the next stage. Emergency solves once, for the hard constraints and
	// placement only, and skips balance. Periodic solves after the placement
	// and balance stages, and after the critical stage only when every
	// replica is placed: a replica placed on the critical goals alone lands
	// blind to spread and region preference, and the placement stage would
	// spend far more evaluations moving it than placing it with them in view
	// costs. A placing run may therefore leave a drain to the next run.

	// Critical: capacity, no two replicas of a shard on one server, drains.
	for _, m := range metricNames {
		prob.AddConstraint(solver.CapacitySpec{Metric: m})
	}
	if grouped {
		// Invariant: a shard's replicas never share a server (hard).
		prob.AddConflict(solver.ExclusionSpec{
			Scope:     solver.ScopeBucket,
			Group:     shardOf,
			NumGroups: len(in.Shards),
		})
	}
	prob.AddDrainGoal(drainWeight)
	if mode != Emergency && unplaced == 0 {
		solve()
	}

	// Placement: spread and region preference.
	if p.SpreadWeight > 0 && grouped {
		prob.AddExclusionGoal(solver.ExclusionSpec{
			Scope:     p.SpreadLevel.String(),
			Group:     shardOf,
			NumGroups: len(in.Shards),
			Weight:    p.SpreadWeight,
		})
	}
	for _, g := range affinities {
		prob.AddAffinityGoal(g)
	}
	solve()

	// Balance.
	if mode != Emergency {
		if p.UtilCap > 0 || p.MaxDiff > 0 {
			for _, m := range metricNames {
				prob.AddBalanceGoal(solver.BalanceSpec{
					Metric:  m,
					UtilCap: p.UtilCap,
					MaxDiff: p.MaxDiff,
					Weight:  balanceWeight,
				})
			}
		}
		solve()
	}
	res.Elapsed = time.Since(start)

	res.Moves, res.Deferred = a.capDiff(in, prob.Entities, serverOf)
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
func (a *Allocator) capDiff(in Input, ents []solver.Entity, serverOf []shard.ServerID) ([]ReplicaMove, int) {
	p := a.policy
	var adds, migrations []ReplicaMove
	deferred := 0
	hi := 0
	for _, spec := range in.Shards {
		lo := hi
		hi += spec.Replicas
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
			case shardMoves >= p.PerShardMoveCap:
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
				adds = append(adds, ReplicaMove{Shard: spec.ID, To: serverOf[to]})
			default:
				migrations = append(migrations, ReplicaMove{Shard: spec.ID, From: serverOf[from], To: serverOf[to]})
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
