package orchestrator

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// loadApp is countApp reporting, for every shard, the CPU load the test last
// set: the way a load change reaches the allocator's input. A test that sets it
// marks the shards (appserver.Server.LoadChanged).
type loadApp struct {
	*countApp
	cpu *float64
}

func (a loadApp) ShardLoad(_ shard.ID, into topology.Capacity) {
	into[topology.ResourceCPU] = *a.cpu
	into[topology.ResourceShardCount] = 1
}

// reportingKV is a KVStore that runs reported, once, right after the next
// ShardLoad it answers for s000: inside the collection, after that server's
// report is made and before the orchestrator applies it.
type reportingKV struct {
	*apps.KVStore
	reported func()
}

func (k *reportingKV) ShardLoad(s shard.ID, into topology.Capacity) {
	k.KVStore.ShardLoad(s, into)
	if f := k.reported; f != nil && s == "s000" {
		k.reported = nil
		f()
	}
}

// TestLoadReportDoesNotAliasTheApplication: what the orchestrator holds of a
// load report is what the report said when it was made. A caller editing
// the map it gave KVStore.SetShardLoad, as the bench injects loads, changes
// nothing the next collection brings in; only a new SetShardLoad does, and
// not before that collection. A load travels as values: the store copies the
// caller's, the report copies the store's out of the map the server handed
// it, and the apply copies the report's into what the orchestrator holds.
// Until the apply the orchestrator holds the last collection's load, and a
// SetShardLoad between the two belongs to the next report.
func TestLoadReportDoesNotAliasTheApplication(t *testing.T) {
	backing := apps.NewKVBacking()
	var stores []*reportingKV
	w := buildWorldOf(t, []topology.RegionID{"r1"}, 2, baseConfig(shard.PrimaryOnly, 4, 1),
		func(s *appserver.Server) appserver.Application {
			kv := &reportingKV{KVStore: apps.NewKVStore(s, backing)}
			stores = append(stores, kv)
			return kv
		})
	w.loop.RunFor(2 * time.Minute)
	load := topology.Capacity{topology.ResourceCPU: 2, topology.ResourceShardCount: 1}
	setLoad := func() {
		for _, kv := range stores {
			kv.SetShardLoad("s000", load)
		}
	}
	cpu := func() float64 { return w.orch.ShardLoadValue("s000", topology.ResourceCPU) }
	setLoad()
	if got := cpu(); got != 1 {
		t.Fatalf("load %v after SetShardLoad and before a collection, want the default 1", got)
	}
	w.loop.RunFor(loadInterval)
	if got := cpu(); got != 2 {
		t.Fatalf("collected load %v, want 2", got)
	}
	load[topology.ResourceCPU] = 9
	w.loop.RunFor(loadInterval)
	if got := cpu(); got != 2 {
		t.Fatalf("load %v after the caller edited its map: the orchestrator holds the caller's map", got)
	}
	setLoad()
	if got := cpu(); got != 2 {
		t.Fatalf("load %v after SetShardLoad and before a collection: the orchestrator holds the store's map", got)
	}
	w.loop.RunFor(loadInterval)
	if got := cpu(); got != 9 {
		t.Fatalf("load %v after SetShardLoad and a collection, want 9", got)
	}

	load[topology.ResourceCPU] = 4
	setLoad()
	held := 0.0
	for _, kv := range stores {
		kv.reported = func() {
			w.loop.AfterL(0, 0, func() {
				held = cpu()
				load[topology.ResourceCPU] = 6
				setLoad()
			})
		}
	}
	w.loop.RunFor(loadInterval)
	if held != 9 {
		t.Fatalf("load %v between a report and its apply, want the last collection's 9: the orchestrator holds the server's map", held)
	}
	if got := cpu(); got != 4 {
		t.Fatalf("load %v after a SetShardLoad between a report and its apply, want the reported 4", got)
	}
	w.loop.RunFor(loadInterval)
	if got := cpu(); got != 6 {
		t.Fatalf("load %v a collection after that SetShardLoad, want 6", got)
	}
}

// storageApp is countApp reporting a fixed CPU load and the storage load the
// test last set: a metric basePolicy does not balance on. A test that sets it
// marks the shards (appserver.Server.LoadChanged). asked counts, by storage
// load, the shards it reported.
type storageApp struct {
	*countApp
	storage *float64
	asked   map[float64]int
}

func (a storageApp) ShardLoad(_ shard.ID, into topology.Capacity) {
	a.asked[*a.storage]++
	into[topology.ResourceCPU] = 1
	into[topology.ResourceStorage] = *a.storage
	into[topology.ResourceShardCount] = 1
}

// TestLoadOutsideThePolicyReplays: load reports that change only a metric the
// policy does not balance on change nothing the allocator reads, so over the
// next two AllocIntervals no allocation is solved afresh. That the reports
// came in is shown by every replica reporting the new storage load, and by
// the apply marking every shard for the refresh.
func TestLoadOutsideThePolicyReplays(t *testing.T) {
	cfg := baseConfig(shard.PrimarySecondary, 24, 2)
	cfg.AllocInterval = 15 * time.Second
	storage := 1.0
	asked := map[float64]int{}
	w := buildWorldOf(t, []topology.RegionID{"r1", "r2"}, 4, cfg,
		func(*appserver.Server) appserver.Application { return storageApp{newCountApp(), &storage, asked} })
	o := w.orch
	if slices.Contains(o.cfg.Policy.Metrics, topology.ResourceStorage) {
		t.Fatal("the policy balances on storage")
	}
	var prev *allocator.Result
	allocs, fresh := 0, 0
	o.solved = func(_ allocator.Mode, res *allocator.Result) {
		allocs++
		if res != prev {
			fresh++
		}
		prev = res
	}
	w.loop.RunFor(3 * time.Minute)
	assertConverged(t, w, 2)

	allocs, fresh = 0, 0
	storage = 5
	for _, id := range o.order {
		w.dir.Lookup(o.byID[0].id).LoadChanged(w.dir.ShardNum(id))
	}
	// The collections fall between the allocations (every 10 s against
	// every 15 s), so a once-a-second look sees the apply's marks before a
	// refresh clears them.
	marked := 0
	for range 2 * cfg.AllocInterval / time.Second {
		w.loop.RunFor(time.Second)
		if len(o.stale) == len(o.order) {
			marked++
		}
	}
	if asked[5] != 2*len(o.order) || marked == 0 {
		t.Fatalf("%d replicas reported the storage load 5 and %d looks saw every shard marked: want %d, and at least one",
			asked[5], marked, 2*len(o.order))
	}
	if allocs < 2 || fresh != 0 {
		t.Fatalf("%d allocations after a storage-only load change, %d of them fresh: want at least 2, none fresh", allocs, fresh)
	}
}

// refInput is the allocation problem of the orchestrator's state built from
// nothing, as an allocator.Input: the reference the kept problem's refresh is
// held to. It counts a server dead for less than the failover grace as alive
// and finds every server by name, not through shardState.hosts.
func refInput(o *Orchestrator) allocator.Input {
	in := allocator.Input{Current: make(map[shard.ID][]shard.ServerID, len(o.shards))}
	now := o.loop.Now()
	for _, st := range o.byID {
		in.Servers = append(in.Servers, allocator.ServerInfo{
			ID:       st.id,
			Domains:  st.domains,
			Capacity: o.cfg.ServerCapacity,
			Alive:    st.alive || now-st.deadSince < o.cfg.FailoverGrace,
			Draining: st.draining,
		})
	}
	for _, id := range o.order {
		ss := o.shards[id]
		in.Shards = append(in.Shards, allocator.ShardSpec{
			ID:               id,
			Replicas:         ss.cfg.Replicas,
			Load:             refShardLoad(o, ss),
			RegionPreference: ss.cfg.RegionPreference,
			PreferenceWeight: ss.cfg.PreferenceWeight,
		})
		cur := make([]shard.ServerID, len(ss.replicas))
		for i, a := range ss.replicas {
			cur[i] = a.Server
		}
		in.Current[id] = cur
	}
	return in
}

// refShardLoad is shardLoad by name: the report of the last replica in the
// shard's list whose server has one, or the configured default. The report is
// copied, since a later collection rewrites the held values in place.
func refShardLoad(o *Orchestrator, ss *shardState) topology.Capacity {
	var latest []float64
	for _, a := range ss.replicas {
		if st := o.servers[a.Server]; st != nil {
			if l := ss.reported(st, len(o.cfg.Policy.Metrics)); l != nil {
				latest = slices.Clone(l)
			}
		}
	}
	if latest == nil {
		if ss.cfg.DefaultLoad != nil {
			return ss.cfg.DefaultLoad
		}
		return topology.Capacity{topology.ResourceShardCount: 1}
	}
	load := topology.Capacity{}
	for k, r := range o.cfg.Policy.Metrics {
		load[r] = latest[k]
	}
	return load
}

// sameVerdict reports whether two results agree in everything allocate uses:
// the moves, in order, and the violation counts.
func sameVerdict(a, b *allocator.Result) bool {
	return reflect.DeepEqual(a.Moves, b.Moves) && a.Initial == b.Initial && a.Final == b.Final
}

// allocation is one call of solve as the test saw it.
type allocation struct {
	at         time.Duration
	mode       allocator.Mode
	remembered bool
}

// TestMemoReplaysWhatAFreshSolveGives builds the allocator's input beside
// every allocation of an orchestrator that is drained, loses a machine, has
// sessions expire inside and past the grace, has the loads and a region
// preference edited, sees migrations abort, and idles in between.
// Whatever solve returned, a fresh run on that input must give the same moves
// and counts; a remembered result must be for the very input the last fresh
// solve was given; and a fresh solve must not be for that input in the same
// mode — a hit the kept problem could have made and did not.
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
	var log []allocation
	var last allocator.Input // the problem of the last fresh solve
	var lastMode allocator.Mode
	var prev *allocator.Result
	o.solved = func(mode allocator.Mode, res *allocator.Result) {
		remembered := res == prev
		prev = res
		now := w.loop.Now()
		in := refInput(o)
		if want := fresh.Run(in, mode); !sameVerdict(res, want) {
			t.Fatalf("%v at %v (remembered: %v): solve returned %d moves %+v -> %+v, a fresh run %d moves %+v -> %+v",
				mode, now, remembered, len(res.Moves), res.Initial, res.Final, len(want.Moves), want.Initial, want.Final)
		}
		same := last.Servers != nil && mode == lastMode && reflect.DeepEqual(in, last)
		if remembered && !same {
			t.Fatalf("%v at %v: a remembered result replayed for a problem that changed since it was solved", mode, now)
		}
		if !remembered && same {
			t.Fatalf("%v at %v: solved afresh the problem the last solve had: a hit lost", mode, now)
		}
		if !remembered {
			last, lastMode = in, mode
		}
		log = append(log, allocation{now, mode, remembered})
	}
	// step runs do, then the world for d, and requires at least minHits
	// remembered and between minMisses and maxMisses fresh allocations in that
	// time. It returns the allocations made.
	step := func(what string, d time.Duration, minHits, minMisses, maxMisses int, do func()) []allocation {
		t.Helper()
		from := len(log)
		do()
		w.loop.RunFor(d)
		hits := 0
		for _, a := range log[from:] {
			if a.remembered {
				hits++
			}
		}
		if misses := len(log) - from - hits; hits < minHits || misses < minMisses || misses > maxMisses {
			t.Fatalf("%s: %d remembered and %d fresh allocations, want at least %d and %d..%d",
				what, hits, misses, minHits, minMisses, maxMisses)
		}
		return log[from:]
	}
	const many = 1 << 30
	step("initial placement", 3*time.Minute, 8, 2, many, func() {})
	assertConverged(t, w, 2)

	// The test drives session expiries through w.host, r2's.
	var r1, r2 []*serverState
	for _, st := range o.byID {
		if st.domains[topology.LevelRegion.String()] == "r1" {
			r1 = append(r1, st)
		} else {
			r2 = append(r2, st)
		}
	}
	drained, expired, abortFrom := r2[0], r2[1], r2[2]
	killed := w.machineOf(t, r1[1].id)
	step("drain", 2*time.Minute, 5, 2, many, func() { o.Drain(drained.id, nil) })
	step("machine kill inside the grace, then past it", 2*time.Minute, 6, 2, many, func() {
		w.managers["r1"].KillMachine(killed)
	})
	// A false-dead server that reconnects inside the grace never left the
	// problem: its primaries fail over, its rejoin sync runs, and not one
	// allocation is fresh.
	step("session expiry inside the grace", time.Minute, 4, 0, 0, func() {
		if !w.host.ExpireSession(expired.id, 5*time.Second) {
			t.Fatal("ExpireSession found no session")
		}
	})
	step("load change", 2*time.Minute, 6, 1, many, func() {
		cpu = 3
		// Every shard's load changed; one live server's marks reach them all.
		for _, id := range o.order {
			w.dir.Lookup(drained.id).LoadChanged(w.dir.ShardNum(id))
		}
	})
	step("idle", 2*time.Minute, 7, 0, 0, func() {})
	step("region preference", 2*time.Minute, 5, 1, many, func() { o.SetRegionPreference("s007", "r2", 0) })
	step("an edit that writes the values held", time.Minute, 4, 0, 0, func() {
		o.SetRegionPreference("s007", "r2", 0)
	})
	// Every migration off a server in r2 fails while r1 — the orchestrator's
	// home — cannot reach r2; each abort asks for an emergency allocation of
	// the unchanged problem. Three allocations must be fresh: the drain's
	// (the problem changed), the first abort's (a run remembers one mode) and
	// the next periodic tick's (the mode changed back). More are fresh only
	// if one of the drain's moves completes inside the step, which depends on
	// which moves the search picked.
	aborted := step("migrations abort", time.Minute, 5, 3, many, func() {
		w.net.SetLinkFault("r1", "r2", rpcnet.LinkFault{DropProb: 1})
		o.Drain(abortFrom.id, nil)
	})
	if !slices.ContainsFunc(aborted, func(a allocation) bool { return a.mode == allocator.Emergency && a.remembered }) {
		t.Fatalf("migrations abort: no remembered emergency allocation in %+v", aborted)
	}
	step("partition healed, drain cancelled", 3*time.Minute, 8, 1, many, func() {
		w.net.ClearLinkFault("r1", "r2")
		o.CancelDrain(abortFrom.id)
	})
	// The drained server holds nothing, so its grace running out schedules no
	// emergency allocation: the periodic tick at that very instant is the
	// first allocation to see it gone, and must not replay. Its rejoin after
	// the grace puts it back.
	if o.ShardsOnServer(drained.id) != 0 {
		t.Fatalf("the drained server holds %d replicas", o.ShardsOnServer(drained.id))
	}
	tick := cfg.AllocInterval
	expire := (w.loop.Now()/tick+2)*tick - cfg.FailoverGrace%tick // a death whose grace ends on a tick
	w.loop.RunUntil(expire)
	allocs := step("grace expiry on a periodic tick, rejoin after it", time.Minute, 2, 2, many, func() {
		if !w.host.ExpireSession(drained.id, cfg.FailoverGrace+10*time.Second) {
			t.Fatal("ExpireSession found no session")
		}
	})
	for _, a := range allocs {
		if a.at == expire+cfg.FailoverGrace && a.mode == allocator.Periodic && a.remembered {
			t.Fatalf("the periodic tick at the grace's end (%v) replayed a result", a.at)
		}
	}
	if !slices.ContainsFunc(allocs, func(a allocation) bool { return a.at == expire+cfg.FailoverGrace && !a.remembered }) {
		t.Fatalf("no allocation at the grace's end %v: %+v", expire+cfg.FailoverGrace, allocs)
	}
	step("drain cancelled", 2*time.Minute, 6, 1, many, func() { o.CancelDrain(drained.id) })
	// The rejoin changes the problem, so one allocation must be fresh; a
	// second one is fresh only if that solve moves replicas onto the machine,
	// which this world's goals do not require.
	step("machine back", 3*time.Minute, 8, 1, many, func() { w.managers["r1"].RestoreMachine(killed) })
}

// inputSources pins, for every field of the allocator's input structs, the
// orchestrator state the refresh restates it from — named by the field or
// variable an assignment writes; hosts is derived from the replica lists — and
// the functions allowed to write that state. The server list is read at every
// refresh (everyRefresh), so its writers need do nothing more; a writer of a
// shard's values other than New (which runs before any solve) must mark the
// shard for the refresh (markShard), or its change would be solved stale.
// Whether a solve may replay is not the writers' business: the kept problem's
// setters compare what they are told with what they hold.
var inputSources = []struct {
	field        string
	sources      []string
	writers      []string
	everyRefresh bool
}{
	{"Input.Servers", []string{"byID"}, []string{"syncMembership"}, true},
	{"Input.Shards", []string{"order"}, []string{"New"}, false},
	{"Input.Current", []string{"replicas", "Server", "hosts"}, []string{"addReplica", "removeReplica", "rehomeReplica"}, false},
	{"ServerInfo.ID", []string{"byID"}, []string{"syncMembership"}, true},
	{"ServerInfo.Domains", []string{"domains"}, []string{"resolveMachine"}, true},
	{"ServerInfo.Capacity", []string{"ServerCapacity"}, nil, true},
	{"ServerInfo.Alive", []string{"alive", "deadSince"}, []string{"syncMembership"}, true},
	{"ServerInfo.Draining", []string{"draining"}, []string{"Drain", "CancelDrain"}, true},
	{"ShardSpec.ID", []string{"order"}, []string{"New"}, false},
	{"ShardSpec.Replicas", []string{"Replicas"}, []string{"New"}, false},
	{"ShardSpec.Load", []string{"loadFrom", "loads", "defaults", "DefaultLoad", "replicas", "Server", "hosts"},
		[]string{"New", "holdLoad", "dropLoad", "addReplica", "removeReplica", "rehomeReplica"}, false},
	{"ShardSpec.RegionPreference", []string{"RegionPreference"}, []string{"SetRegionPreference"}, false},
	{"ShardSpec.PreferenceWeight", []string{"PreferenceWeight"}, []string{"SetRegionPreference"}, false},
}

// written returns the name an assignment target writes: the last field
// selected, past any indexing (ss.replicas[i].Server writes Server), or nil
// for a plain local variable.
func written(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// TestMemoComparesEveryField: every field of allocator.Input, ServerInfo and
// ShardSpec — found by reflection, so a field added later fails here until it
// has a row — has its sources and writers in inputSources; the package's
// non-test code writes a source nowhere but in a listed writer; and every
// listed writer of a value not read at every refresh, but New, marks the
// shard it changed for the refresh.
func TestMemoComparesEveryField(t *testing.T) {
	rows := map[string]bool{}
	writersOf := map[string][]string{} // source -> functions allowed to write it
	mustMark := map[string]bool{}
	for _, r := range inputSources {
		if rows[r.field] {
			t.Errorf("%s has two rows", r.field)
		}
		rows[r.field] = true
		for _, s := range r.sources {
			writersOf[s] = append(writersOf[s], r.writers...)
		}
		for _, f := range r.writers {
			if !r.everyRefresh && f != "New" {
				mustMark[f] = true
			}
		}
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(allocator.Input{}), reflect.TypeOf(allocator.ServerInfo{}), reflect.TypeOf(allocator.ShardSpec{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			field := typ.Name() + "." + typ.Field(i).Name
			if !rows[field] {
				t.Errorf("%s: no row in inputSources — what writes it, and does the refresh read it?", field)
			}
			delete(rows, field)
		}
	}
	for field := range rows {
		t.Errorf("inputSources row %s names no field of the input structs", field)
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	marks := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fname := fn.Name.Name
			check := func(target ast.Expr) {
				if id := written(target); id != nil {
					if allowed, isSource := writersOf[id.Name]; isSource && !slices.Contains(allowed, fname) {
						t.Errorf("%s: %s writes %s, a source of the allocator's input, and is no writer in inputSources",
							fset.Position(id.Pos()), fname, id.Name)
					}
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					if s.Tok != token.DEFINE {
						for _, lhs := range s.Lhs {
							check(lhs)
						}
					}
				case *ast.IncDecStmt:
					check(s.X)
				case *ast.CallExpr:
					if sel, ok := s.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "markShard" {
						marks[fname] = true
					}
				}
				return true
			})
		}
	}
	for f := range mustMark {
		if !marks[f] {
			t.Errorf("%s writes a shard's input to the allocator and never marks it for the refresh", f)
		}
	}
}
