// Package allocator implements Shard Manager's allocator (§5): it turns the
// current view of an application partition — servers with capacities and
// health, shards with per-replica loads and placement preferences — into a
// constrained optimization problem for the generic solver, runs the solver
// in either emergency or periodic mode, and converts the solution back into
// a bounded set of replica moves.
//
// The allocator is where SM's domain knowledge lives (§5.3): it groups
// servers for sampling, orders big shards first, batches goals by priority,
// and enforces the churn hard constraints (per-shard and global move caps)
// on the emitted diff.
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
	// Replicas is the desired replica count (the shard scaler adjusts
	// this, §6.1).
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
	// replicas (one element per replica; length may differ from the
	// spec's Replicas when scaling or after failures).
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
	// MaxTotalMoves bounds total moves per run; 0 means unlimited.
	MaxTotalMoves int
}

// What every application gets (§5.3's optimizations are not per-application
// policy: Run always samples by group, orders big shards first, reuses
// equivalent shards' evaluations, tries swaps and solves the goals in
// priority stages; smbench -fig 22 and -fig ablations measure each choice on
// solver.Options directly).
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
// placement (add); To == "" is a removal (drop); otherwise a migration.
type ReplicaMove struct {
	Shard shard.ID
	From  shard.ServerID
	To    shard.ServerID
}

// Kind classifies the move.
func (m ReplicaMove) Kind() string {
	switch {
	case m.From == "":
		return "add"
	case m.To == "":
		return "drop"
	default:
		return "move"
	}
}

// Result is the outcome of one allocation run.
type Result struct {
	// Assignment is the new shard-to-servers placement after applying
	// the (cap-limited) moves.
	Assignment map[shard.ID][]shard.ServerID
	// Moves is the emitted diff, adds first.
	Moves []ReplicaMove
	// Deferred counts solver-proposed moves suppressed by churn caps;
	// the next periodic run will retry them.
	Deferred int
	// Initial and Final are the solver's violation counts (final is
	// before churn capping).
	Initial, Final solver.ViolationCounts
	// Solves is the number of solver batches run.
	Solves int
	// Elapsed is total solver wall-clock time.
	Elapsed time.Duration
	// Evaluated counts solver candidate evaluations.
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

// Policy returns the allocator's policy.
func (a *Allocator) Policy() Policy { return a.policy }

// Run performs one allocation and returns the bounded diff. The input is
// not mutated.
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
		return &Result{Assignment: cloneAssignment(in.Current)}
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
	var affinities []solver.AffinityGoal
	for si, spec := range in.Shards {
		cur := in.Current[spec.ID]
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
			placed := false
			if idx < len(cur) {
				if b, ok := bucketOf[cur[idx]]; ok {
					bucket = b
					placed = true
				}
			}
			movable := true
			if mode == Emergency && placed {
				movable = false
			}
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
	// the next stage. Periodic solves after every stage; emergency solves
	// once, for the hard constraints and placement only, and skips balance.

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
	if mode != Emergency {
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

	// Convert the solver assignment into per-shard server lists, carved from
	// one slab in the order the entities were added.
	proposed := make(map[shard.ID][]shard.ServerID, len(in.Shards))
	slab := make([]shard.ServerID, replicas)
	e := 0 // the shard's first entity
	for _, spec := range in.Shards {
		if spec.Replicas == 0 {
			continue
		}
		lst := slab[e : e+spec.Replicas : e+spec.Replicas]
		for idx := range lst {
			if b := prob.Entities[e+idx].Bucket; b != solver.Unassigned {
				lst[idx] = serverOf[b]
			}
		}
		e += spec.Replicas
		proposed[spec.ID] = lst
	}

	res.Assignment, res.Moves, res.Deferred = a.capDiff(in, proposed)
	sortMoves(res.Moves)
	return res
}

// capDiff compares the proposed placement against the current one and
// emits a diff bounded by the churn caps. Adds (restoring availability)
// are never capped; migrations of already-placed replicas are.
func (a *Allocator) capDiff(in Input, proposed map[shard.ID][]shard.ServerID) (map[shard.ID][]shard.ServerID, []ReplicaMove, int) {
	p := a.policy
	final := make(map[shard.ID][]shard.ServerID, len(proposed))
	var adds, migrations []ReplicaMove
	deferred := 0
	totalMigrations := 0

	// Deterministic iteration order.
	ids := make([]shard.ID, 0, len(proposed))
	for id := range proposed {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	liveServers := make(map[shard.ServerID]bool)
	for _, s := range in.Servers {
		if s.Alive {
			liveServers[s.ID] = true
		}
	}

	// Per-replica decision; kind is keep (including unplaced), add, or
	// migrate. Decisions are made first, then de-duplicated, and only then
	// turned into moves — a capped migration falls back to keeping the
	// replica in place, which can collide with a sibling replica that just
	// migrated onto that very server.
	const (
		kindKeep = iota
		kindAdd
		kindMigrate
	)
	type decision struct {
		srv, from shard.ServerID
		kind      int
	}

	for _, id := range ids {
		want := proposed[id]
		cur := in.Current[id]
		shardMoves := 0
		dec := make([]decision, len(want))
		for idx, target := range want {
			var curSrv shard.ServerID
			if idx < len(cur) && liveServers[cur[idx]] {
				curSrv = cur[idx]
			}
			switch {
			case target == "" && curSrv == "":
				// Still unplaceable (no feasible server).
				dec[idx] = decision{kind: kindKeep}
			case target == curSrv:
				dec[idx] = decision{srv: curSrv, kind: kindKeep}
			case curSrv == "":
				// Add: restores availability, never capped.
				dec[idx] = decision{srv: target, kind: kindAdd}
			case target == "":
				// Solver failed to place an existing replica;
				// keep it where it is.
				dec[idx] = decision{srv: curSrv, kind: kindKeep}
			default:
				// Migration: subject to per-shard and global caps.
				if shardMoves >= p.PerShardMoveCap ||
					(p.MaxTotalMoves > 0 && totalMigrations >= p.MaxTotalMoves) {
					deferred++
					dec[idx] = decision{srv: curSrv, kind: kindKeep}
					continue
				}
				shardMoves++
				totalMigrations++
				dec[idx] = decision{srv: target, from: curSrv, kind: kindMigrate}
			}
		}
		// Invariant: a shard never ends with two replicas on one server.
		// Cancel any add/migration whose target collides with another
		// replica of the same shard (typically one kept in place by the
		// churn caps). A cancelled migration reverts to its current
		// server, which may collide with yet another pending move, so
		// iterate to a fixpoint (bounded by the replica count).
		for changed := true; changed; {
			changed = false
			used := make(map[shard.ServerID]int, len(dec))
			for idx := range dec {
				srv := dec[idx].srv
				if srv == "" {
					continue
				}
				first, dup := used[srv]
				if !dup {
					used[srv] = idx
					continue
				}
				cancel := idx
				if dec[cancel].kind == kindKeep {
					cancel = first
				}
				if dec[cancel].kind == kindKeep {
					continue // two keeps: current placement was malformed
				}
				d := &dec[cancel]
				if d.kind == kindMigrate {
					shardMoves--
					totalMigrations--
					d.srv = d.from
				} else {
					d.srv = "" // add retried next round
				}
				d.kind = kindKeep
				d.from = ""
				deferred++
				changed = true
				break
			}
		}
		out := make([]shard.ServerID, len(dec))
		for idx, d := range dec {
			out[idx] = d.srv
			switch d.kind {
			case kindAdd:
				adds = append(adds, ReplicaMove{Shard: id, From: "", To: d.srv})
			case kindMigrate:
				migrations = append(migrations, ReplicaMove{Shard: id, From: d.from, To: d.srv})
			}
		}
		// Surplus current replicas beyond the spec become drops.
		for idx := len(want); idx < len(cur); idx++ {
			if liveServers[cur[idx]] {
				migrations = append(migrations, ReplicaMove{Shard: id, From: cur[idx], To: ""})
			}
		}
		final[id] = out
	}
	return final, append(adds, migrations...), deferred
}

func cloneAssignment(cur map[shard.ID][]shard.ServerID) map[shard.ID][]shard.ServerID {
	out := make(map[shard.ID][]shard.ServerID, len(cur))
	for k, v := range cur {
		out[k] = append([]shard.ServerID(nil), v...)
	}
	return out
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
		switch m.Kind() {
		case "add":
			parts[i] = fmt.Sprintf("+%s@%s", m.Shard, m.To)
		case "drop":
			parts[i] = fmt.Sprintf("-%s@%s", m.Shard, m.From)
		default:
			parts[i] = fmt.Sprintf("%s:%s->%s", m.Shard, m.From, m.To)
		}
	}
	return strings.Join(parts, " ")
}
