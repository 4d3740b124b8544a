package orchestrator

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/appserver"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// loadApp is countApp reporting, for every shard, the CPU load the test last
// set: the way a load change reaches the allocator's input.
type loadApp struct {
	*countApp
	cpu *float64
}

func (a loadApp) ShardLoad(shard.ID) topology.Capacity {
	return topology.Capacity{topology.ResourceCPU: *a.cpu, topology.ResourceShardCount: 1}
}

// sameVerdict reports whether two results agree in everything allocate uses:
// the moves, in order, and the violation counts.
func sameVerdict(a, b *allocator.Result) bool {
	return reflect.DeepEqual(a.Moves, b.Moves) && a.Initial == b.Initial && a.Final == b.Final
}

// TestMemoReplaysWhatAFreshSolveGives runs the allocator fresh beside every
// allocation of an orchestrator that is drained, loses a machine, has a
// replica count, the loads, a region preference and its capacity edited, and
// idles in between: whatever solve returned, remembered or not, a fresh run
// on the same input must give the same moves and counts. Idle stretches must
// be answered from the memo and every disturbance must miss it.
func TestMemoReplaysWhatAFreshSolveGives(t *testing.T) {
	cfg := baseConfig(shard.PrimarySecondary, 24, 2)
	cfg.FailoverGrace = 20 * time.Second
	cfg.AllocInterval = 15 * time.Second
	cfg.MaxConcurrentMigrations = 4
	cpu := 1.0
	w := buildWorldOf(t, []topology.RegionID{"r1", "r2"}, 4, cfg,
		func(*appserver.Server) appserver.Application { return loadApp{newCountApp(), &cpu} })
	o := w.orch
	fresh := allocator.New(o.cfg.Policy, 1) // buildWorld's seed
	hits, misses := 0, 0
	o.memo.solved = func(in allocator.Input, mode allocator.Mode, res *allocator.Result, remembered bool) {
		if want := fresh.Run(in, mode); !sameVerdict(res, want) {
			t.Fatalf("%v at %v (remembered: %v): solve returned %d moves %+v -> %+v, a fresh run %d moves %+v -> %+v",
				mode, w.loop.Now(), remembered, len(res.Moves), res.Initial, res.Final, len(want.Moves), want.Initial, want.Final)
		}
		if remembered {
			hits++
		} else {
			misses++
		}
	}
	// step runs do, then the world for d, and requires at least the given
	// number of hits and misses in that time.
	step := func(what string, d time.Duration, minHits, minMisses int, do func()) {
		t.Helper()
		h, m := hits, misses
		do()
		w.loop.RunFor(d)
		if hits-h < minHits || misses-m < minMisses {
			t.Fatalf("%s: %d remembered and %d fresh allocations, want at least %d and %d", what, hits-h, misses-m, minHits, minMisses)
		}
	}
	step("initial placement", 3*time.Minute, 4, 2, func() {})
	assertConverged(t, w, 2)

	drained, killed := o.byID[0], o.byID[5]
	step("drain", 2*time.Minute, 2, 1, func() { o.Drain(drained.id, nil) })
	step("machine kill inside the grace, then past it", 2*time.Minute, 2, 2, func() {
		w.managers[killed.region].KillMachine(killed.machine)
	})
	step("replica-count edit", time.Minute, 1, 1, func() { o.SetReplicas("s003", 3) })
	step("load change", 2*time.Minute, 2, 1, func() { cpu = 3 })
	step("idle", 2*time.Minute, 7, 0, func() {})
	step("region preference", 2*time.Minute, 2, 1, func() { o.SetRegionPreference("s007", "r2", 0) })
	step("capacity edit", time.Minute, 1, 1, func() {
		o.cfg.ServerCapacity = topology.Capacity{topology.ResourceCPU: 60, topology.ResourceShardCount: 1000}
	})
	step("machine back, drain cancelled", 3*time.Minute, 4, 2, func() {
		w.managers[killed.region].RestoreMachine(killed.machine)
		o.CancelDrain(drained.id)
	})
	if hits < 25 || misses < 12 {
		t.Fatalf("%d remembered and %d fresh allocations over the scenario", hits, misses)
	}
}

// memoProblem is a small unsettled allocation problem — a dead server's
// replicas to re-place, one shard a replica short, a preference unmet — so
// that editing any one field of it changes what the allocator answers.
func memoProblem() allocator.Input {
	in := allocator.Input{Current: map[shard.ID][]shard.ServerID{}}
	for r, region := range []string{"r1", "r2"} {
		for i := 0; i < 3; i++ {
			in.Servers = append(in.Servers, allocator.ServerInfo{
				ID:       shard.ServerID(fmt.Sprintf("%s/srv%d", region, i)),
				Domains:  map[string]string{"region": region, "datacenter": region + "/dc0", "rack": fmt.Sprintf("%s/dc0/rack%d", region, i)},
				Capacity: topology.Capacity{topology.ResourceCPU: 100, topology.ResourceShardCount: 1000},
				Alive:    !(r == 1 && i == 2),
			})
		}
	}
	for i := 0; i < 12; i++ {
		id := shard.ID(fmt.Sprintf("s%03d", i))
		sp := allocator.ShardSpec{ID: id, Replicas: 2,
			Load: topology.Capacity{topology.ResourceCPU: float64(1 + i%3), topology.ResourceShardCount: 1}}
		if i == 4 {
			sp.RegionPreference, sp.PreferenceWeight = "r2", 150
		}
		in.Shards = append(in.Shards, sp)
		in.Current[id] = []shard.ServerID{in.Servers[i%3].ID, in.Servers[3+(i+1)%3].ID}
	}
	in.Current["s011"] = in.Current["s011"][:1]
	return in
}

// memoMutations edits exactly one field of memoProblem each, in a way that
// changes the allocator's answer. The keys are "<struct>.<field>" for every
// field of allocator.Input, ServerInfo and ShardSpec, which
// TestMemoComparesEveryField checks by reflection.
var memoMutations = map[string]func(in *allocator.Input){
	"Input.Servers":      func(in *allocator.Input) { in.Servers = in.Servers[:4] },
	"Input.Shards":       func(in *allocator.Input) { in.Shards = in.Shards[:11] },
	"Input.Current":      func(in *allocator.Input) { in.Current["s002"] = in.Current["s002"][:1] },
	"ServerInfo.ID":      func(in *allocator.Input) { in.Servers[0].ID = "r1/renamed" },
	"ServerInfo.Domains": func(in *allocator.Input) { in.Servers[1].Domains = in.Servers[4].Domains },
	"ServerInfo.Capacity": func(in *allocator.Input) {
		in.Servers[0].Capacity = topology.Capacity{topology.ResourceCPU: 2, topology.ResourceShardCount: 1000}
	},
	"ServerInfo.Alive":    func(in *allocator.Input) { in.Servers[0].Alive = false },
	"ServerInfo.Draining": func(in *allocator.Input) { in.Servers[0].Draining = true },
	"ShardSpec.ID":        func(in *allocator.Input) { in.Shards[0].ID = "renamed" },
	"ShardSpec.Replicas":  func(in *allocator.Input) { in.Shards[0].Replicas = 3 },
	"ShardSpec.Load": func(in *allocator.Input) {
		in.Shards[0].Load = topology.Capacity{topology.ResourceCPU: 90, topology.ResourceShardCount: 1}
	},
	"ShardSpec.RegionPreference": func(in *allocator.Input) { in.Shards[0].RegionPreference = "r1" },
	"ShardSpec.PreferenceWeight": func(in *allocator.Input) { in.Shards[4].PreferenceWeight = 1e-6 },
}

// blank returns a copy of in with the named field zeroed in every element it
// occurs in: what a comparison that left the field out would see.
func blank(in allocator.Input, field string) allocator.Input {
	out := allocator.Input{
		Servers: append([]allocator.ServerInfo(nil), in.Servers...),
		Shards:  append([]allocator.ShardSpec(nil), in.Shards...),
		Current: in.Current,
	}
	zero := func(v reflect.Value, name string) { f := v.FieldByName(name); f.Set(reflect.Zero(f.Type())) }
	owner, name, _ := strings.Cut(field, ".")
	switch owner {
	case "Input":
		zero(reflect.ValueOf(&out).Elem(), name)
	case "ServerInfo":
		for i := range out.Servers {
			zero(reflect.ValueOf(&out.Servers[i]).Elem(), name)
		}
	case "ShardSpec":
		for i := range out.Shards {
			zero(reflect.ValueOf(&out.Shards[i]).Elem(), name)
		}
	}
	return out
}

// TestMemoComparesEveryField: for each field of the allocator's input structs
// — found by reflection, so a field added later fails here until it is both
// compared and given a mutation — the memo's key tells the mutated problem
// from the original, the field is the only thing that tells them apart, and a
// fresh run answers the two differently: a memo that left the field out of
// its comparison would have replayed the wrong verdict. The mode is compared
// the same way.
func TestMemoComparesEveryField(t *testing.T) {
	key := func(in allocator.Input, mode allocator.Mode) []byte {
		var m solveMemo
		m.rekey(&in, mode)
		return m.key.buf
	}
	alloc := allocator.New(basePolicy(), 1)
	base := memoProblem()
	baseRes := alloc.Run(base, allocator.Periodic)
	if !bytes.Equal(key(base, allocator.Periodic), key(memoProblem(), allocator.Periodic)) {
		t.Fatal("two builds of one problem have different keys")
	}

	for _, typ := range []reflect.Type{
		reflect.TypeOf(allocator.Input{}), reflect.TypeOf(allocator.ServerInfo{}), reflect.TypeOf(allocator.ShardSpec{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			field := typ.Name() + "." + typ.Field(i).Name
			mutate := memoMutations[field]
			if mutate == nil {
				t.Errorf("%s: no mutation — is the field compared by solveMemo.rekey?", field)
				continue
			}
			mutant := memoProblem()
			mutate(&mutant)
			if bytes.Equal(key(base, allocator.Periodic), key(mutant, allocator.Periodic)) {
				t.Errorf("%s: the key does not see the edit", field)
			}
			if !bytes.Equal(key(blank(base, field), allocator.Periodic), key(blank(mutant, field), allocator.Periodic)) {
				t.Errorf("%s: the mutation edits more than the field", field)
			}
			if res := alloc.Run(mutant, allocator.Periodic); sameVerdict(res, baseRes) {
				t.Errorf("%s: the allocator answers the mutated problem as the original (%d moves, %+v -> %+v): the mutation proves nothing",
					field, len(res.Moves), res.Initial, res.Final)
			}
		}
	}
	if len(memoMutations) != 13 {
		t.Errorf("%d mutations for 13 fields", len(memoMutations))
	}

	// One memo re-keyed over its own buffer, problem after problem — shorter,
	// longer, equal, differing early and late — says "same" exactly when the
	// fresh encodings are equal and always ends up holding the fresh one.
	var m solveMemo
	var prev []byte
	fields := make([]string, 0, 2*len(memoMutations))
	for field := range memoMutations {
		fields = append(fields, field, field) // each problem twice: a miss, then a hit
	}
	sort.Strings(fields)
	for i, field := range append(fields, "", "") {
		problem := memoProblem()
		if field != "" {
			memoMutations[field](&problem)
		}
		want := key(problem, allocator.Periodic)
		if same := m.rekey(&problem, allocator.Periodic); same != bytes.Equal(prev, want) || !bytes.Equal(m.key.buf, want) {
			t.Fatalf("problem %d (%q): rekey said same=%v, fresh keys equal: %v; buffer holds the fresh key: %v",
				i, field, same, bytes.Equal(prev, want), bytes.Equal(m.key.buf, want))
		}
		prev = want
	}

	// Current is compared whole, not only where a spec points into it.
	unlisted, other := memoProblem(), memoProblem()
	unlisted.Current["unlisted"] = []shard.ServerID{"r1/srv0"}
	other.Current["unlisted"] = []shard.ServerID{"r1/srv1"}
	if k := key(unlisted, allocator.Periodic); bytes.Equal(k, key(base, allocator.Periodic)) || bytes.Equal(k, key(other, allocator.Periodic)) {
		t.Error("the key does not see a Current entry no spec lists")
	}

	if bytes.Equal(key(base, allocator.Periodic), key(base, allocator.Emergency)) {
		t.Error("the key does not see the mode")
	}
	if res := alloc.Run(base, allocator.Emergency); sameVerdict(res, baseRes) {
		t.Error("the allocator answers the problem alike in both modes: the mode check proves nothing")
	}
}
