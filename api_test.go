package shardmanager

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/audit"
	"shardmanager/internal/cluster"
	"shardmanager/internal/coord"
	"shardmanager/internal/discovery"
	"shardmanager/internal/experiments"
	"shardmanager/internal/healthmon"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/sim"
	"shardmanager/internal/simprof"
	"shardmanager/internal/solver"
	"shardmanager/internal/taskcontroller"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
)

// TestOneEntryPointPerMechanism pins the exported method sets that used to
// carry a second way to do the same thing, so a removed entry point cannot
// drift back in: the loop schedules through exactly four methods, grants
// come only generation-stamped under the paper's names, hooks attach only
// through Add*, a shard map is published one way: discovery has one
// Publish and one Subscribe, and no configuration selects another, and a
// trace has one record, the span, reached through the loop.
func TestOneEntryPointPerMechanism(t *testing.T) {
	// A scheduling method is one that takes a callback.
	var scheduling []string
	loop := reflect.TypeOf((*sim.Loop)(nil))
	for i := 0; i < loop.NumMethod(); i++ {
		m := loop.Method(i)
		for j := 1; j < m.Type.NumIn(); j++ {
			if m.Type.In(j).Kind() == reflect.Func {
				scheduling = append(scheduling, m.Name)
				break
			}
		}
	}
	sort.Strings(scheduling)
	if want := []string{"AfterL", "AtL", "EveryL", "PostArgL"}; !reflect.DeepEqual(scheduling, want) {
		t.Errorf("*sim.Loop scheduling methods = %v, want exactly %v", scheduling, want)
	}

	// The gen-less/Gen-suffixed grant pairs and the Set*/Add* hook pairs each
	// collapsed to one name. (Assembled from stems so a repo-wide grep for a
	// deleted identifier stays empty.)
	var grantsAndHooks []string
	for _, grant := range []string{"AddShard", "ChangeRole", "PrepareAddShard", "ResumeShard"} {
		grantsAndHooks = append(grantsAndHooks, grant+"Gen")
	}
	for _, hook := range []string{"Hooks", "Observer"} {
		grantsAndHooks = append(grantsAndHooks, "Set"+hook)
	}
	for typ, removed := range map[reflect.Type][]string{
		loop:                                     {"Schedule"}, // took its callback inside a struct, so the scan above would miss it
		reflect.TypeOf((*appserver.Server)(nil)): grantsAndHooks,
		reflect.TypeOf((*orchestrator.Orchestrator)(nil)): grantsAndHooks,
		reflect.TypeOf((*discovery.Service)(nil)):         grantsAndHooks,
		// The closure form of the reply leg and the by-name resolvers in front
		// of the handle forms; ReplyAt is the one reply form, SendTo the one
		// arg-carrying send.
		reflect.TypeOf((*rpcnet.Network)(nil)): {"Re" + "ply", "Reply" + "Arg", "Send" + "Arg"},
		// A point in time is a zero-length span, and every traced component
		// reaches the tracer through its loop.
		reflect.TypeOf((*trace.Tracer)(nil)): {"Ev" + "ent", "Ev" + "ents"},
		reflect.TypeOf((*coord.Store)(nil)):  {"Set" + "Tracer"},
	} {
		for _, name := range removed {
			if _, ok := typ.MethodByName(name); ok {
				t.Errorf("%v has method %s: it was deleted in favour of the single surviving entry point", typ, name)
			}
		}
	}

	// Publication: one publish form, one subscribe form, one authoritative
	// read (Latest). (Names again assembled from stems.)
	disc := reflect.TypeOf((*discovery.Service)(nil))
	for _, stem := range []string{"Publish", "Subscribe"} {
		var have []string
		for i := 0; i < disc.NumMethod(); i++ {
			if name := disc.Method(i).Name; strings.HasPrefix(name, stem) {
				have = append(have, name)
			}
		}
		if len(have) != 1 {
			t.Errorf("%v has methods %v starting with %s, want exactly one", disc, have, stem)
		}
	}
	for _, suffix := range []string{"", "Into", "Meta"} {
		if _, ok := disc.MethodByName("Current" + suffix); ok {
			t.Errorf("%v has method Current%s: Latest is the one authoritative read", disc, suffix)
		}
	}
	for typ, field := range map[reflect.Type]string{
		reflect.TypeOf(orchestrator.Config{}): "Delta" + "Publish",
		reflect.TypeOf(routing.Options{}):     "Apply" + "Deltas",
		reflect.TypeOf(orchestrator.Hooks{}):  "Map" + "Snapshot",
	} {
		if _, ok := typ.FieldByName(field); ok {
			t.Errorf("%v has field %s: it selected a second publication path", typ, field)
		}
	}
}

// TestEventsHaveOneLifecycle pins the kernel's event lifecycle: scheduled,
// then fired. No scheduling method hands back a handle that could unschedule
// its event (a ticker's Stop only ends its ticks), and a profiler sees the two
// steps and nothing else.
func TestEventsHaveOneLifecycle(t *testing.T) {
	loop := reflect.TypeOf((*sim.Loop)(nil))
	for _, name := range []string{"AfterL", "AtL", "PostArgL"} {
		m, ok := loop.MethodByName(name)
		if !ok {
			t.Errorf("*sim.Loop has no method %s", name)
		} else if n := m.Type.NumOut(); n != 0 {
			t.Errorf("(*sim.Loop).%s returns %d values, want none", name, n)
		}
	}
	every, ok := loop.MethodByName("EveryL")
	if !ok || every.Type.NumOut() != 1 || every.Type.Out(0) != reflect.TypeOf((*sim.Ticker)(nil)) {
		t.Errorf("(*sim.Loop).EveryL = %v (present %v), want it to return only *sim.Ticker", every.Type, ok)
	}
	var hooks []string
	prof := reflect.TypeOf((*sim.Profiler)(nil)).Elem()
	for i := 0; i < prof.NumMethod(); i++ {
		hooks = append(hooks, prof.Method(i).Name)
	}
	if want := []string{"Dispatch", "OnSchedule"}; !reflect.DeepEqual(hooks, want) {
		t.Errorf("sim.Profiler methods = %v, want exactly %v", hooks, want)
	}
}

// TestNoSyntheticBenchKnobs pins what went with the three synthetic benches:
// the knobs only they set and the experiments that were their drivers. `go
// run ./bench` on real deployments is the one yardstick; a layer is driven on
// its own by its package benchmark. Beside them: the two options that had one
// value in use, and the hand-over of a domain table between per-stage copies
// of one problem. (Names assembled from stems, as above.)
func TestNoSyntheticBenchKnobs(t *testing.T) {
	disc := reflect.TypeOf((*discovery.Service)(nil))
	if _, ok := disc.MethodByName("Set" + "Fanout" + "Batch"); ok {
		t.Errorf("%v has a fan-out batch setter: discovery has one delivery path, one event per subscriber", disc)
	}
	opts := reflect.TypeOf(solver.Options{})
	if _, ok := opts.FieldByName("Para" + "llel"); ok {
		t.Errorf("%v has a worker-count field: the solver, like the rest of the simulator, is single-threaded", opts)
	}
	if _, ok := opts.FieldByName("BigFirst" + "Metric"); ok {
		t.Errorf("%v names the big-first metric: it is metric 0, the caller's primary metric", opts)
	}
	pol := reflect.TypeOf(allocator.Policy{})
	if _, ok := pol.FieldByName("Solve" + "Time"); ok {
		t.Errorf("%v has a wall-clock solve limit: an allocation is a function of its input", pol)
	}
	prob := reflect.TypeOf((*solver.Problem)(nil))
	if _, ok := prob.MethodByName("Adopt" + "DomainTable"); ok {
		t.Errorf("%v adopts another problem's domain table: the allocator's goal stages share one problem", prob)
	}

	var fields []string
	cfg := reflect.TypeOf(experiments.RunConfig{})
	for i := 0; i < cfg.NumField(); i++ {
		fields = append(fields, cfg.Field(i).Name)
	}
	if want := []string{"Scale", "Tracer", "Health", "Profiler", "FaultSpec", "Torture"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("experiments.RunConfig fields = %v, want exactly %v", fields, want)
	}
	for _, id := range experiments.IDs() { // sim-, control- and solver-
		if strings.HasSuffix(id, "scale") {
			t.Errorf("experiment %q is registered: the synthetic scale drivers are retired", id)
		}
	}
}

// TestOptionStructFields pins the options of the system under study: a field
// is a handle or deployment setting, per-application policy the paper names,
// or set to two values by code that runs (DESIGN "Options" has the table);
// anything else is a constant, and a field cannot drift back unnoticed.
func TestOptionStructFields(t *testing.T) {
	for typ, want := range map[reflect.Type][]string{
		reflect.TypeOf(orchestrator.Config{}): {"App", "Strategy", "Shards", "Policy", "ServerCapacity", "HomeRegion",
			"GracefulMigration", "AllocInterval", "FailoverGrace", "MaxConcurrentMigrations", "ShardLoadTime"},
		reflect.TypeOf(appserver.Host{}): nil,
		reflect.TypeOf(allocator.Policy{}): {"Metrics", "UtilCap", "MaxDiff", "SpreadLevel", "SpreadWeight",
			"AffinityWeight", "PerShardMoveCap", "MaxTotalMoves"},
		reflect.TypeOf(solver.Options{}):        {"EvalBudget", "MoveBudget", "Seed", "Uniform", "Progress"},
		reflect.TypeOf(routing.Options{}):       {"MaxAttempts"},
		reflect.TypeOf(taskcontroller.Policy{}): {"DrainOnRestart", "MaxConcurrentOps", "MaxUnavailableReplicas"},
		reflect.TypeOf(cluster.Options{}):       {"StartDuration", "RestartDuration", "NegotiationDelay"},
		reflect.TypeOf(rpcnet.Network{}):        {"Messages", "Dropped"}, // not options: counts the fabric keeps for tests
		reflect.TypeOf(experiments.DeploymentSpec{}): {"Regions", "ServersPerRegion", "Latency", "Orch", "TaskPolicy",
			"AppFactory", "ClusterOpts", "Tracer", "Health", "Profiler", "Audit", "Seed"},
		// The instruments run at their defaults: ring sizes, the stale bound
		// and the SLO are constants.
		reflect.TypeOf(audit.Options{}):     {"App"},
		reflect.TypeOf(healthmon.Options{}): {"Registry"},
		reflect.TypeOf(simprof.Options{}):   {"Allocs", "Registry"},
		reflect.TypeOf(topology.Spec{}):     {"Regions", "MachinesPerRegion", "Latency"},
	} {
		if have := exportedFields(typ); !reflect.DeepEqual(have, want) {
			t.Errorf("%v exported fields = %v, want exactly %v", typ, have, want)
		}
	}
	if n := reflect.TypeOf(trace.New).NumIn(); n != 0 {
		t.Errorf("trace.New takes %d parameters, want none: the tracer has no options", n)
	}
}

// TestSolverSearchesOneWay pins what went when §5.3's sampling and ordering
// became the solver's own search: no sampler type or constructor, no view of
// the search's state, no default-options constructor (a caller writes its
// seed), and no figure that ablates big-first by option (the mutant
// no-big-first does). Fig 22's baseline is Options.Uniform. (Names assembled
// from stems, as above.)
func TestSolverSearchesOneWay(t *testing.T) {
	files, err := filepath.Glob("internal/solver/*.go")
	if err != nil {
		t.Fatal(err)
	}
	gone := map[string]bool{"Sam" + "pler": true, "Vi" + "ew": true, "Random" + "Sampler": true,
		"Grouped" + "Sampler": true, "Default" + "Options": true}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			var ids []string
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					ids = append(ids, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						ids = append(ids, ts.Name.Name)
					}
				}
			}
			for _, id := range ids {
				if gone[id] {
					t.Errorf("%s declares solver.%s: the solver draws its targets one way, and Options has no defaults to fill", name, id)
				}
			}
		}
	}
	if slices.Contains(experiments.IDs(), "abl"+"ations") {
		t.Errorf("experiment %q is registered: big-first is ablated by a mutant, not by an option", "abl"+"ations")
	}
}

// TestDeploymentShapeIsConfiguration pins what went with the paths only tests
// selected: a job's size, a shard's replica count and where a container runs
// are configuration, the cluster manager's one operation is a restart, and
// maintenance takes machines off the network. (Names assembled from stems, as
// above.)
func TestDeploymentShapeIsConfiguration(t *testing.T) {
	if have, want := exportedFields(reflect.TypeOf(cluster.Operation{})), []string{"ID", "Container", "Reason", "Negotiable"}; !reflect.DeepEqual(have, want) {
		t.Errorf("cluster.Operation fields = %v, want exactly %v", have, want)
	}
	if have, want := exportedFields(reflect.TypeOf(cluster.MaintenanceEvent{})), []string{"Machines", "Start", "End"}; !reflect.DeepEqual(have, want) {
		t.Errorf("cluster.MaintenanceEvent fields = %v, want exactly %v", have, want)
	}
	mgr := reflect.TypeOf((*cluster.Manager)(nil))
	if _, ok := mgr.MethodByName("Re" + "size"); ok {
		t.Errorf("%v can resize a job: a job's size is fixed at CreateJob", mgr)
	}
	if m, ok := mgr.MethodByName("ScheduleMaintenance"); !ok || m.Type.NumIn() != 4 {
		t.Errorf("(*cluster.Manager).ScheduleMaintenance = %v (present %v), want (machines, start, end)", m.Type, ok)
	}
	orch := reflect.TypeOf((*orchestrator.Orchestrator)(nil))
	if _, ok := orch.MethodByName("Set" + "Replicas"); ok {
		t.Errorf("%v can change a replica count: it is the shard's configuration", orch)
	}
	files, err := filepath.Glob("internal/cluster/*.go")
	if err != nil {
		t.Fatal(err)
	}
	gone := map[string]bool{"Op" + "Type": true, "Maintenance" + "Impact": true}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.TYPE {
				for _, spec := range g.Specs {
					if id := spec.(*ast.TypeSpec).Name.Name; gone[id] {
						t.Errorf("%s declares cluster.%s: an operation is a restart, maintenance a network loss", name, id)
					}
				}
			}
		}
	}
}

// TestExportedStateFields pins the exported state of the two components the
// benchmark and the examples hold: the orchestrator's counters are the ones
// bench/ reads (their requests-side twins on appserver.Server went, the
// registry carries those), and a server exports its identity and load time.
func TestExportedStateFields(t *testing.T) {
	for typ, want := range map[reflect.Type][]string{
		reflect.TypeOf(orchestrator.Orchestrator{}): {"ShardMoves", "EmergencyRuns", "PeriodicRuns", "FailedRPCs"},
		reflect.TypeOf(appserver.Server{}):          {"ID", "App", "Region", "LoadTime"},
	} {
		if have := exportedFields(typ); !reflect.DeepEqual(have, want) {
			t.Errorf("%v exported fields = %v, want exactly %v", typ, have, want)
		}
	}
}

// TestAllocationAnswersWithMoves pins what an allocation answers: the bounded
// diff and the solver's counts with their floor, not a copy of the placement
// beside them. The
// orchestrator executes the moves and nothing else; the solver leaves its
// final buckets in the problem's entities, where the allocator reads them.
func TestAllocationAnswersWithMoves(t *testing.T) {
	for typ, want := range map[reflect.Type][]string{
		reflect.TypeOf(allocator.Result{}): {"Moves", "Deferred", "Initial", "Final", "Floor", "Solves", "Elapsed", "Evaluated"},
		reflect.TypeOf(solver.Result{}):    {"Moves", "Initial", "Final", "Floor", "Evaluated", "Elapsed"},
	} {
		if have := exportedFields(typ); !reflect.DeepEqual(have, want) {
			t.Errorf("%v exported fields = %v, want exactly %v", typ, have, want)
		}
	}
}

// TestLoadReportsCarryWhatChanged pins the load-report contract: an
// application reports through ShardLoad alone and marks a load that may have
// changed through one Server call, and LoadReport answers with the entries
// that changed, not a map of every replica.
func TestLoadReportsCarryWhatChanged(t *testing.T) {
	var methods []string
	lr := reflect.TypeOf((*appserver.LoadReporter)(nil)).Elem()
	for i := 0; i < lr.NumMethod(); i++ {
		methods = append(methods, lr.Method(i).Name)
	}
	if want := []string{"ShardLoad"}; !reflect.DeepEqual(methods, want) {
		t.Errorf("appserver.LoadReporter methods = %v, want exactly %v", methods, want)
	}
	srv := reflect.TypeOf((*appserver.Server)(nil))
	for name, want := range map[string]reflect.Type{
		"LoadChanged": reflect.TypeOf(func(*appserver.Server, appserver.ShardNum) {}),
		"LoadReport":  reflect.TypeOf(func(*appserver.Server) []appserver.LoadEntry { return nil }),
	} {
		if m, ok := srv.MethodByName(name); !ok || m.Type != want {
			t.Errorf("(*appserver.Server).%s = %v (present %v), want %v", name, m.Type, ok, want)
		}
	}
	if have, want := exportedFields(reflect.TypeOf(appserver.LoadEntry{})), []string{"Shard", "Load"}; !reflect.DeepEqual(have, want) {
		t.Errorf("appserver.LoadEntry fields = %v, want exactly %v", have, want)
	}
}

// exportedFields lists a struct type's exported field names in order.
func exportedFields(typ reflect.Type) []string {
	var have []string
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			have = append(have, f.Name)
		}
	}
	return have
}

// TestResolvedNamesReplaceTheirMaps pins what the request path's handles
// replaced, by the names and types reflect reports for unexported fields: the
// fabric keeps one record per endpoint, not a region map and a down map side
// by side, and a server finds its replicas in the directory's lists by the
// shard's number, one list per number and no map of its own beside them, and
// keys its tombstones by the number, not by the shard's name; the replica's
// entry holds the state the application returned for the shard, which the
// application gets back with each request, so the applications keep no table
// of their shards. Off the request path the same rule:
// the solver is told an entity's group one way, as a number on the entity, not
// as a string in a map it must intern nor as a spec listing groups per goal
// (no conflict or exclusion-goal adder: the bucket rule comes with the
// grouping; names assembled from stems, as above). No goal names a scope
// either: a bucket has one domain, which the spread, a preference and the
// solver's target draw all read, so the spread is only its weight, and a
// capacity or balance rule judges each server's load, which the search
// already sums. Every goal is a field, of the problem or of the entity that
// prefers, not an element of a list that is cleared and stated again.
func TestResolvedNamesReplaceTheirMaps(t *testing.T) {
	net := reflect.TypeOf(rpcnet.Network{})
	for _, gone := range []string{"regions", "down"} {
		if f, ok := net.FieldByName(gone); ok {
			t.Errorf("rpcnet.Network has field %s %v: an endpoint's region and state live in its one Peer record", gone, f.Type)
		}
	}
	peers, ok := net.FieldByName("peers")
	if !ok || peers.Type != reflect.TypeOf(map[rpcnet.Endpoint]*rpcnet.Peer(nil)) {
		t.Errorf("rpcnet.Network.peers = %v (present %v), want the one map from endpoint name to *rpcnet.Peer", peers.Type, ok)
	}
	srv := reflect.TypeOf(appserver.Server{})
	if f, ok := srv.FieldByName("tombstones"); !ok || f.Type.Kind() != reflect.Map || f.Type.Key() != reflect.TypeOf(appserver.ShardNum(0)) {
		t.Errorf("appserver.Server.tombstones = %v (present %v), want a map keyed by appserver.ShardNum", f.Type, ok)
	}
	for i := 0; i < srv.NumField(); i++ {
		if f := srv.Field(i); f.Type.Kind() == reflect.Map && f.Name != "tombstones" && f.Name != "dropped" && f.Name != "asked" {
			t.Errorf("appserver.Server.%s is a %v: a server's replicas are in the directory's lists", f.Name, f.Type)
		}
	}
	if f, ok := reflect.TypeOf(appserver.Directory{}).FieldByName("holders"); !ok || f.Type.Kind() != reflect.Slice || f.Type.Elem().Kind() != reflect.Slice {
		t.Errorf("appserver.Directory.holders = %v (present %v), want a list of replicas per shard number", f.Type, ok)
	}
	// The server's replica is the one record of what it owns: AddShard returns
	// the shard's state, the server keeps it with the replica and hands it to
	// HandleRequest, and no application keeps a table of its shards beside it.
	app := reflect.TypeOf((*appserver.Application)(nil)).Elem()
	var methods []string
	for i := 0; i < app.NumMethod(); i++ {
		methods = append(methods, app.Method(i).Name+" "+app.Method(i).Type.String())
	}
	if want := []string{
		"AddShard func(shard.ID, shard.Role) interface {}",
		"ChangeRole func(shard.ID, shard.Role, shard.Role)",
		"DropShard func(shard.ID)",
		"HandleRequest func(*appserver.Request, interface {}) (interface {}, error)",
	}; !reflect.DeepEqual(methods, want) {
		t.Errorf("appserver.Application methods = %q, want exactly %q", methods, want)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(apps.KVStore{}), reflect.TypeOf(apps.Queue{}), reflect.TypeOf(apps.StreamProcessor{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type.Kind() == reflect.Map && f.Type.Key() == reflect.TypeOf(appserver.ShardNum(0)) {
				t.Errorf("%v.%s is a %v: a shard's state is handed over with the request", typ, f.Name, f.Type)
			}
		}
	}
	for spec, want := range map[reflect.Type][]string{
		reflect.TypeOf(solver.Entity{}):      {"Load", "Bucket", "Home", "Movable", "Group", "Prefer", "PreferWeight"},
		reflect.TypeOf(solver.Bucket{}):      {"Capacity", "Domain", "Draining"},
		reflect.TypeOf(solver.BalanceRule{}): {"UtilCap", "MaxDiff", "Weight"},
	} {
		var fields []string
		for i := 0; i < spec.NumField(); i++ {
			fields = append(fields, spec.Field(i).Name)
		}
		if !reflect.DeepEqual(fields, want) {
			t.Errorf("%v fields = %v, want exactly %v", spec, fields, want)
		}
	}
	if f, _ := reflect.TypeOf(solver.Entity{}).FieldByName("Group"); f.Type != reflect.TypeOf(int32(0)) {
		t.Errorf("solver.Entity.Group is a %v, want the group's number as an int32", f.Type)
	}
	prob := reflect.TypeOf((*solver.Problem)(nil))
	for _, gone := range []string{"Add" + "Conflict", "Add" + "Exclusion" + "Goal"} {
		if _, ok := prob.MethodByName(gone); ok {
			t.Errorf("%v has %s: the bucket rule and the spread act on the entities' one grouping", prob, gone)
		}
	}
	// A goal is a field: no method adds one, clears them or names a metric.
	for _, gone := range []string{"Clear" + "Goals", "Add" + "Constraint", "Add" + "Balance" + "Goal", "Add" + "Drain" + "Goal",
		"Add" + "Spread" + "Goal", "Add" + "Affinity" + "Goal", "Metric" + "Index"} {
		if _, ok := prob.MethodByName(gone); ok {
			t.Errorf("%v has %s: every goal is a field of the problem or of an entity", prob, gone)
		}
	}
	for name, typ := range map[string]reflect.Type{"Balance": reflect.TypeOf([]solver.BalanceRule(nil)),
		"SpreadWeight": reflect.TypeOf(float64(0)), "DrainWeight": reflect.TypeOf(float64(0))} {
		if f, ok := prob.Elem().FieldByName(name); !ok || f.Type != typ {
			t.Errorf("solver.Problem.%s is %v (present %v), want a %v", name, f.Type, ok, typ)
		}
	}
	// A problem is restated, not rebuilt: ClearBuckets restates its buckets,
	// the allocator's live servers.
	if m, ok := prob.MethodByName("ClearBuckets"); !ok || m.Type.NumIn() != 1 || m.Type.NumOut() != 0 {
		t.Errorf("%v.ClearBuckets is %v (present %v), want a method without parameters or results", prob, m.Type, ok)
	}
	files, err := filepath.Glob("internal/solver/*.go")
	if err != nil {
		t.Fatal(err)
	}
	gone := map[string]bool{"Capacity" + "Spec": true, "Affinity" + "Goal": true, "Balance" + "Spec": true}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.TYPE {
				for _, spec := range g.Specs {
					if id := spec.(*ast.TypeSpec).Name.Name; gone[id] {
						t.Errorf("%s declares solver.%s: capacity is on every metric, a balance rule is a BalanceRule and a preference is on its entity", name, id)
					}
				}
			}
		}
	}
}

// TestMigrationPathTakesNoContinuations pins the orchestrator's migrations and
// cleanups as records: a step's outcome goes to the record that sent it, not
// to a callback handed along with the RPC. A non-test function in
// internal/orchestrator may take a func-typed parameter only if it is on the
// keep-list below, each entry with its reason.
func TestMigrationPathTakesNoContinuations(t *testing.T) {
	keep := map[string]string{
		"Drain":         "onDone is the TaskController's API: it hears when the server is empty",
		"call":          "the plain RPC of syncServer and rpcChangeRole; its handle/done/fail serve DemotePrimaries' demote-then-promote chain, which is not a migration",
		"rpcChangeRole": "done chains DemotePrimaries' promote after the acknowledged demote, which is not a migration",
	}
	files, err := filepath.Glob("internal/orchestrator/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || keep[fn.Name.Name] != "" {
				continue
			}
			for _, p := range fn.Type.Params.List {
				if _, ok := p.Type.(*ast.FuncType); ok {
					t.Errorf("%s: %s takes a func-typed parameter: a migration step reports its outcome to its record", name, fn.Name.Name)
					break
				}
			}
		}
	}
}
