package allocator

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// makeServers builds n live servers spread across the given regions with
// the given CPU capacity each.
func makeServers(n int, regions []string, cpu float64) []ServerInfo {
	out := make([]ServerInfo, n)
	for i := range out {
		region := regions[i%len(regions)]
		out[i] = ServerInfo{
			ID: shard.ServerID(fmt.Sprintf("srv%03d", i)),
			Domains: map[string]string{
				"region":     region,
				"datacenter": region + "/dc0",
				"rack":       fmt.Sprintf("%s/dc0/rack%02d", region, i%8),
			},
			Capacity: topology.Capacity{topology.ResourceCPU: cpu, topology.ResourceShardCount: 1000},
			Alive:    true,
		}
	}
	return out
}

func makeShards(n, replicas int, cpu float64) []ShardSpec {
	out := make([]ShardSpec, n)
	for i := range out {
		out[i] = ShardSpec{
			ID:       shard.ID(fmt.Sprintf("s%04d", i)),
			Replicas: replicas,
			Load:     topology.Capacity{topology.ResourceCPU: cpu, topology.ResourceShardCount: 1},
		}
	}
	return out
}

// applyMoves returns in.Current after moves, applied as the orchestrator
// applies a diff: a move re-homes its From replica in place, and an add fills
// the first replica that is empty or on a server not alive in in (else it
// appends). It is the placement Run's answer is checked by.
func applyMoves(in Input, moves []ReplicaMove) map[shard.ID][]shard.ServerID {
	alive := map[shard.ServerID]bool{}
	for _, s := range in.Servers {
		alive[s.ID] = s.Alive
	}
	out := make(map[shard.ID][]shard.ServerID, len(in.Current))
	for id, cur := range in.Current {
		out[id] = slices.Clone(cur)
	}
	for _, m := range moves {
		list := out[m.Shard]
		if m.Kind() == "move" {
			list[slices.Index(list, m.From)] = m.To
		} else if i := slices.IndexFunc(list, func(s shard.ServerID) bool { return s == "" || !alive[s] }); i != -1 {
			list[i] = m.To
		} else {
			out[m.Shard] = append(list, m.To)
		}
	}
	return out
}

func TestInitialPlacementAssignsEverything(t *testing.T) {
	a := New(DefaultPolicy(topology.ResourceCPU), 1)
	in := Input{
		Servers: makeServers(10, []string{"r1", "r2"}, 100),
		Shards:  makeShards(50, 2, 1),
		Current: map[shard.ID][]shard.ServerID{},
	}
	res := a.Run(in, Emergency)
	if res.Final.Unassigned != 0 {
		t.Fatalf("unassigned after initial placement: %+v", res.Final)
	}
	placed := applyMoves(in, res.Moves)
	for _, sp := range in.Shards {
		servers := placed[sp.ID]
		if len(servers) != 2 || servers[0] == "" || servers[1] == "" {
			t.Fatalf("shard %s assignment = %v", sp.ID, servers)
		}
		if servers[0] == servers[1] {
			t.Fatalf("shard %s replicas colocated on %s", sp.ID, servers[0])
		}
	}
	// All moves are adds.
	for _, m := range res.Moves {
		if m.Kind() != "add" {
			t.Fatalf("unexpected %s in initial placement", m.Kind())
		}
	}
}

func TestSpreadAcrossRegions(t *testing.T) {
	a := New(DefaultPolicy(topology.ResourceCPU), 1)
	in := Input{
		Servers: makeServers(12, []string{"r1", "r2", "r3"}, 100),
		Shards:  makeShards(30, 3, 1),
		Current: map[shard.ID][]shard.ServerID{},
	}
	placed := applyMoves(in, a.Run(in, Periodic).Moves)
	regionOf := map[shard.ServerID]string{}
	for _, s := range in.Servers {
		regionOf[s.ID] = s.Domains["region"]
	}
	for _, sp := range in.Shards {
		regions := map[string]bool{}
		for _, srv := range placed[sp.ID] {
			regions[regionOf[srv]] = true
		}
		if len(regions) != 3 {
			t.Fatalf("shard %s spans %d regions, want 3", sp.ID, len(regions))
		}
	}
}

// TestFirstPlacementNeedsNoSpreadRepair pins the batches for a run with
// replicas to place: no run solves the critical goals alone, so each replica
// is placed once with spread in view, and balance finds nothing to repair.
// Were the critical goals solved alone first, every replica would be placed
// blind to spread and a third solve would spend thousands of evaluations
// moving them apart again.
func TestFirstPlacementNeedsNoSpreadRepair(t *testing.T) {
	a := New(DefaultPolicy(topology.ResourceCPU), 1)
	in := Input{
		Servers: makeServers(12, []string{"r1", "r2", "r3"}, 100),
		Shards:  makeShards(60, 3, 1),
		Current: map[shard.ID][]shard.ServerID{},
	}
	res := a.Run(in, Periodic)
	if res.Solves != 2 {
		t.Errorf("solves = %d, want 2 (placement, balance)", res.Solves)
	}
	if res.Final.Exclusion != 0 {
		t.Errorf("final = %+v, want no spread violation", res.Final)
	}
	// A draw is 16 targets: three regions are fewer than the solver's least.
	if want := 180 * 16; res.Evaluated != want {
		t.Errorf("evaluated = %d, want %d: one sampled round per replica", res.Evaluated, want)
	}
}

// TestDrainRepairNeedsNoSpreadRepair is TestFirstPlacementNeedsNoSpreadRepair
// for a drain on a fully placed world: the replicas on the draining server
// move once, with spread in view, in the placement batch. Were the critical
// goals solved alone first, they would move blind to spread, and the
// placement batch would spend as many evaluations again moving them apart.
func TestDrainRepairNeedsNoSpreadRepair(t *testing.T) {
	a := New(DefaultPolicy(topology.ResourceCPU), 1)
	in := Input{
		Servers: makeServers(12, []string{"r1", "r2", "r3"}, 100),
		Shards:  makeShards(60, 3, 1),
		Current: map[shard.ID][]shard.ServerID{},
	}
	in.Current = applyMoves(in, a.Run(in, Periodic).Moves)
	in.Servers[1].Draining = true
	on := 0
	for _, srvs := range in.Current {
		if slices.Contains(srvs, in.Servers[1].ID) {
			on++
		}
	}
	if on != 15 {
		t.Fatalf("%d replicas on the drained server, want 15", on)
	}
	res := a.Run(in, Periodic)
	if res.Final.Drain != 0 || res.Final.Exclusion != 0 {
		t.Errorf("final = %+v, want no drain or spread violation", res.Final)
	}
	if res.Solves != 2 {
		t.Errorf("solves = %d, want 2 (placement, balance)", res.Solves)
	}
	if limit := 15 * 16; res.Evaluated > limit {
		t.Errorf("evaluated = %d, want at most %d: one sampled round per drained replica", res.Evaluated, limit)
	}
}

// TestPlacingRunFinishesDrainsOnTheNext checks drain liveness across a
// placing run. Such a run solves the drain goal together with the placement
// goals, so in these two worlds it leaves one replica on a draining server;
// the next run, on the placement the first one emitted, must move it.
func TestPlacingRunFinishesDrainsOnTheNext(t *testing.T) {
	for _, seed := range []uint64{1876, 2642} {
		in, pol, _ := propertyWorld(seed)
		first := New(pol, seed).Run(in, Periodic)
		in.Current = applyMoves(in, first.Moves)
		if second := New(pol, seed).Run(in, Periodic); second.Final.Drain != 0 {
			t.Errorf("seed %d: drain violations %d after the first run, %d after the second; want 0",
				seed, first.Final.Drain, second.Final.Drain)
		}
	}
}

func TestRegionPreferenceHonored(t *testing.T) {
	a := New(DefaultPolicy(topology.ResourceCPU), 1)
	shards := makeShards(20, 1, 1)
	for i := range shards {
		shards[i].RegionPreference = "r2"
	}
	in := Input{
		Servers: makeServers(10, []string{"r1", "r2"}, 100),
		Shards:  shards,
		Current: map[shard.ID][]shard.ServerID{},
	}
	placed := applyMoves(in, a.Run(in, Periodic).Moves)
	regionOf := map[shard.ServerID]string{}
	for _, s := range in.Servers {
		regionOf[s.ID] = s.Domains["region"]
	}
	for _, sp := range shards {
		srv := placed[sp.ID][0]
		if regionOf[srv] != "r2" {
			t.Fatalf("shard %s placed in %s, want r2", sp.ID, regionOf[srv])
		}
	}
}

// TestZeroAffinityWeightStatesNoPreference: under the zero-value policy
// (AffinityWeight 0), a region preference with no weight of its own resolves
// to weight 0, which states no goal, as SpreadWeight 0 states no spread: the
// run places every replica and counts no affinity violation. A shard's own
// weight still states its preference.
func TestZeroAffinityWeightStatesNoPreference(t *testing.T) {
	shards := makeShards(10, 1, 1)
	for i := range shards {
		shards[i].RegionPreference = "r2"
	}
	shards[0].PreferenceWeight = 5
	in := Input{
		Servers: makeServers(6, []string{"r1", "r2"}, 100),
		Shards:  shards,
		Current: map[shard.ID][]shard.ServerID{"s0000": {"srv000"}},
	}
	pol := Policy{Metrics: []topology.Resource{topology.ResourceCPU}}
	for _, mode := range []Mode{Periodic, Emergency} {
		res := New(pol, 1).Run(in, mode)
		if res.Final.Unassigned != 0 || res.Initial.Affinity > 1 || res.Final.Affinity > 1 {
			t.Errorf("%v: initial %+v, final %+v: want every replica placed and only s0000's preference stated", mode, res.Initial, res.Final)
		}
	}
	if res := New(pol, 1).Run(in, Periodic); res.Initial.Affinity != 1 || res.Final.Affinity != 0 {
		t.Errorf("s0000's own weight: affinity %d -> %d, want 1 -> 0", res.Initial.Affinity, res.Final.Affinity)
	}
}

func TestEmergencyPinsHealthyReplicas(t *testing.T) {
	a := New(DefaultPolicy(topology.ResourceCPU), 1)
	servers := makeServers(6, []string{"r1", "r2"}, 100)
	shards := makeShards(12, 2, 1)
	in := Input{Servers: servers, Shards: shards, Current: map[shard.ID][]shard.ServerID{}}
	first := applyMoves(in, a.Run(in, Periodic).Moves)

	// Kill server 0; its replicas must move, everything else must stay.
	servers[0].Alive = false
	in2 := Input{Servers: servers, Shards: shards, Current: first}
	res := a.Run(in2, Emergency)
	placed := applyMoves(in2, res.Moves)
	for _, sp := range shards {
		oldList := first[sp.ID]
		newList := placed[sp.ID]
		for i := range oldList {
			if oldList[i] == "srv000" {
				if newList[i] == "srv000" || newList[i] == "" {
					t.Fatalf("shard %s replica %d not recovered: %v", sp.ID, i, newList)
				}
			} else if newList[i] != oldList[i] {
				t.Fatalf("emergency moved healthy replica of %s: %v -> %v", sp.ID, oldList, newList)
			}
		}
	}
	if res.Final.Unassigned != 0 {
		t.Fatalf("unassigned after emergency: %+v", res.Final)
	}
}

// TestEmergencyReadsNoPinnedPreference: an emergency run pins the placed
// replicas and the solver reads no pinned replica's preference, so a shard
// placed outside the region it prefers counts no affinity violation there; a
// periodic run, which may move it, counts both its replicas.
func TestEmergencyReadsNoPinnedPreference(t *testing.T) {
	shards := makeShards(2, 2, 1)
	shards[0].RegionPreference = "r2"
	in := Input{
		Servers: makeServers(4, []string{"r1", "r2"}, 100),
		Shards:  shards,
		Current: map[shard.ID][]shard.ServerID{"s0000": {"srv000", "srv002"}},
	}
	a := New(DefaultPolicy(topology.ResourceCPU), 1)
	for mode, want := range map[Mode]int{Emergency: 0, Periodic: 2} {
		if got := a.Run(in, mode).Initial.Affinity; got != want {
			t.Errorf("%v: %d affinity violations at the start, want %d", mode, got, want)
		}
	}
}

func TestPerShardMoveCapLimitsChurn(t *testing.T) {
	pol := DefaultPolicy(topology.ResourceCPU)
	pol.PerShardMoveCap = 1
	a := New(pol, 1)
	servers := makeServers(9, []string{"r1", "r2", "r3"}, 100)
	shards := makeShards(9, 3, 1)
	// Start all replicas of each shard on the same region (violating
	// spread twice per shard); the solver wants to move 2 replicas per
	// shard but only 1 may move per run.
	current := map[shard.ID][]shard.ServerID{}
	for i, sp := range shards {
		srv := servers[(i%3)*3].ID // a server in region r1
		current[sp.ID] = []shard.ServerID{srv, srv, srv}
	}
	_ = current
	// colocated on one server is invalid input for replicas; use three
	// servers of the same region instead.
	regionServers := map[string][]shard.ServerID{}
	for _, s := range servers {
		r := s.Domains["region"]
		regionServers[r] = append(regionServers[r], s.ID)
	}
	for _, sp := range shards {
		current[sp.ID] = append([]shard.ServerID(nil), regionServers["r1"]...)
	}
	in := Input{Servers: servers, Shards: shards, Current: current}
	res := a.Run(in, Periodic)
	perShard := map[shard.ID]int{}
	for _, m := range res.Moves {
		if m.Kind() == "move" {
			perShard[m.Shard]++
		}
	}
	for id, n := range perShard {
		if n > 1 {
			t.Fatalf("shard %s has %d concurrent moves, cap is 1", id, n)
		}
	}
	if res.Deferred == 0 {
		t.Fatal("expected deferred moves under per-shard cap")
	}
}

func TestMaxTotalMovesCap(t *testing.T) {
	pol := DefaultPolicy(topology.ResourceCPU)
	pol.MaxTotalMoves = 3
	pol.PerShardMoveCap = 2
	a := New(pol, 1)
	servers := makeServers(6, []string{"r1", "r2"}, 100)
	shards := makeShards(12, 2, 1)
	// Colocate both replicas per shard in r1 to force spread moves.
	r1 := []shard.ServerID{}
	for _, s := range servers {
		if s.Domains["region"] == "r1" {
			r1 = append(r1, s.ID)
		}
	}
	current := map[shard.ID][]shard.ServerID{}
	for i, sp := range shards {
		current[sp.ID] = []shard.ServerID{r1[i%3], r1[(i+1)%3]}
	}
	in := Input{Servers: servers, Shards: shards, Current: current}
	res := a.Run(in, Periodic)
	migrations := 0
	for _, m := range res.Moves {
		if m.Kind() == "move" {
			migrations++
		}
	}
	if migrations > 3 {
		t.Fatalf("migrations = %d, cap is 3", migrations)
	}
}

func TestDrainingServerSheds(t *testing.T) {
	a := New(DefaultPolicy(topology.ResourceCPU), 1)
	servers := makeServers(4, []string{"r1"}, 100)
	shards := makeShards(8, 1, 1)
	in := Input{Servers: servers, Shards: shards, Current: map[shard.ID][]shard.ServerID{}}
	first := applyMoves(in, a.Run(in, Periodic).Moves)

	servers[1].Draining = true
	in2 := Input{Servers: servers, Shards: shards, Current: first}
	placed := applyMoves(in2, a.Run(in2, Periodic).Moves)
	for _, sp := range shards {
		for _, srv := range placed[sp.ID] {
			if srv == servers[1].ID {
				t.Fatalf("shard %s still on draining server", sp.ID)
			}
		}
	}
}

// TestRunPanicsOnSurplusReplicas: a replica count is configuration, so a
// shard never holds more replicas than its spec asks for; an input that does
// is a caller's bug, and Run says so instead of dropping one.
func TestRunPanicsOnSurplusReplicas(t *testing.T) {
	servers := makeServers(6, []string{"r1", "r2"}, 100)
	shards := makeShards(4, 2, 1)
	cur := map[shard.ID][]shard.ServerID{shards[2].ID: {servers[0].ID, servers[1].ID, servers[2].ID}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(DefaultPolicy(topology.ResourceCPU), 1).Run(Input{Servers: servers, Shards: shards, Current: cur}, Periodic)
}

func TestLoadBalancingReducesHotServer(t *testing.T) {
	pol := DefaultPolicy(topology.ResourceCPU)
	pol.SpreadWeight = 0 // single-replica shards; spread irrelevant
	a := New(pol, 1)
	servers := makeServers(4, []string{"r1"}, 100)
	shards := makeShards(40, 1, 2) // total load 80 over 400 capacity
	// All on server 0: utilization 0.8 > mean(0.2)+0.1.
	current := map[shard.ID][]shard.ServerID{}
	for _, sp := range shards {
		current[sp.ID] = []shard.ServerID{servers[0].ID}
	}
	pol.PerShardMoveCap = 1
	pol.MaxTotalMoves = 0
	a = New(pol, 1)
	in := Input{Servers: servers, Shards: shards, Current: current}
	res := a.Run(in, Periodic)
	placed := applyMoves(in, res.Moves)
	load := map[shard.ServerID]float64{}
	for _, sp := range shards {
		load[placed[sp.ID][0]] += 2
	}
	if load[servers[0].ID] > 30+1e-9 { // mean 20, +10% of 100 => 30
		t.Fatalf("server 0 still hot: %v", load)
	}
	if res.Final.Balance != 0 {
		t.Fatalf("balance violations remain: %+v", res.Final)
	}
}

func TestNoLiveServers(t *testing.T) {
	a := New(DefaultPolicy(topology.ResourceCPU), 1)
	servers := makeServers(2, []string{"r1"}, 100)
	servers[0].Alive = false
	servers[1].Alive = false
	cur := map[shard.ID][]shard.ServerID{"s0001": {"srv000"}}
	res := a.Run(Input{Servers: servers, Shards: makeShards(2, 1, 1), Current: cur}, Emergency)
	if !reflect.DeepEqual(res, &Result{}) {
		t.Fatalf("no live servers, yet Run answered %+v", res)
	}
}

func TestStablePlacementProducesNoMoves(t *testing.T) {
	a := New(DefaultPolicy(topology.ResourceCPU), 1)
	servers := makeServers(8, []string{"r1", "r2"}, 100)
	shards := makeShards(24, 2, 1)
	in := Input{Servers: servers, Shards: shards, Current: map[shard.ID][]shard.ServerID{}}
	first := applyMoves(in, a.Run(in, Periodic).Moves)
	in2 := Input{Servers: servers, Shards: shards, Current: first}
	res := a.Run(in2, Periodic)
	if len(res.Moves) != 0 {
		t.Fatalf("stable placement produced %d moves: %s", len(res.Moves), FormatMoves(res.Moves))
	}
}

func TestModeString(t *testing.T) {
	if Periodic.String() != "periodic" || Emergency.String() != "emergency" {
		t.Fatal("mode names wrong")
	}
}

func TestMoveKindAndFormat(t *testing.T) {
	add := ReplicaMove{Shard: "s", To: "b"}
	mv := ReplicaMove{Shard: "s", From: "a", To: "b"}
	if add.Kind() != "add" || mv.Kind() != "move" {
		t.Fatal("kinds wrong")
	}
	s := FormatMoves([]ReplicaMove{add, mv})
	if s != "+s@b s:a->b" {
		t.Fatalf("FormatMoves = %q", s)
	}
}

func TestNewPanicsWithoutMetrics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Policy{}, 1)
}

// TestNewPanicsOnSpreadBelowRegion: the region is the one level a spread
// keeps replicas apart at; a policy naming another is refused, not run at the
// region.
func TestNewPanicsOnSpreadBelowRegion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pol := DefaultPolicy(topology.ResourceCPU)
	pol.SpreadLevel = topology.LevelRack
	New(pol, 1)
}

// TestLoadsOutOfRangePanic: SetLoad and SetServers quantize what they are
// given to the solver's load units (solver.Quantize), and a value the solver
// cannot hold as an int64 count of them — NaN, an infinity, or one whose count
// is past 2^63 — panics rather than wraps, on a load and on a capacity alike.
// A value just inside the range is taken.
func TestLoadsOutOfRangePanic(t *testing.T) {
	a := New(DefaultPolicy(topology.ResourceCPU), 1)
	problem := func() (*Problem, []ServerInfo) {
		servers := makeServers(2, []string{"r1"}, 100)
		p := a.NewProblem(makeShards(1, 1, 1))
		p.SetServers(servers)
		return p, servers
	}
	set := map[string]func(v float64){
		"SetLoad": func(v float64) {
			p, _ := problem()
			p.SetLoad(0, []float64{v})
		},
		"SetServers": func(v float64) {
			p, servers := problem()
			servers[1].Capacity = topology.Capacity{topology.ResourceCPU: v}
			p.SetServers(servers)
		},
	}
	for name, fn := range set {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e13, -1e13} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%v) took the value", name, v)
					}
				}()
				fn(v)
			}()
		}
		fn(9e12) // 9e18 units, below 2^63
	}
}
