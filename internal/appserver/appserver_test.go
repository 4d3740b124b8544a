package appserver

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"time"

	"shardmanager/internal/cluster"
	"shardmanager/internal/coord"
	"shardmanager/internal/metrics"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
)

// echoApp records callbacks and echoes request keys. Each AddShard returns a
// new state, kept in states until the shard is dropped, and HandleRequest
// records the state it was handed in received.
type echoApp struct {
	added    []shard.ID
	dropped  []shard.ID
	roles    map[shard.ID]shard.Role
	states   map[shard.ID]*echoState
	received any
	failAll  bool
}

// echoState is the state echoApp returns from one AddShard.
type echoState struct{ shard shard.ID }

func newEchoApp() *echoApp {
	return &echoApp{roles: map[shard.ID]shard.Role{}, states: map[shard.ID]*echoState{}}
}

func (a *echoApp) AddShard(s shard.ID, role shard.Role) any {
	a.added = append(a.added, s)
	a.roles[s] = role
	a.states[s] = &echoState{shard: s}
	return a.states[s]
}
func (a *echoApp) DropShard(s shard.ID) {
	a.dropped = append(a.dropped, s)
	delete(a.roles, s)
	delete(a.states, s)
}
func (a *echoApp) ChangeRole(s shard.ID, from, to shard.Role) { a.roles[s] = to }
func (a *echoApp) HandleRequest(req *Request, state any) (any, error) {
	a.received = state
	if a.failAll {
		return nil, errors.New("app-error")
	}
	return "echo:" + req.Key, nil
}

type testEnv struct {
	loop  *sim.Loop
	fleet *topology.Fleet
	net   *rpcnet.Network
	dir   *Directory
}

func newEnv() *testEnv {
	fleet := topology.Build(topology.Spec{
		Regions:           []topology.RegionID{"a", "b"},
		MachinesPerRegion: 4,
	})
	loop := sim.NewLoop(1)
	net := rpcnet.NewNetwork(loop, fleet)
	dir := NewDirectory()
	dir.SetMetrics("app", testMetrics)
	return &testEnv{loop: loop, fleet: fleet, net: net, dir: dir}
}

// testMetrics are the metrics the test servers' loads are reported in: a
// report entry's Load[0] is the CPU load, Load[1] the shard count.
var testMetrics = []topology.Resource{topology.ResourceCPU, topology.ResourceShardCount}

func (e *testEnv) server(id shard.ServerID, region topology.RegionID, app Application) *Server {
	s := NewServer(e.loop, e.net, e.dir, func(*Server) Application { return app }, "app", id, region)
	e.dir.Register(s)
	e.net.Register(rpcnet.Endpoint(id), region)
	return s
}

func TestAddDropShardLifecycle(t *testing.T) {
	env := newEnv()
	app := newEchoApp()
	s := env.server("s1", "a", app)
	s.AddShard("sh1", shard.RolePrimary, 1)
	if !s.HoldsActive("sh1") {
		t.Fatal("shard not active after AddShard")
	}
	if got := s.Shards()["sh1"]; got != shard.RolePrimary {
		t.Fatalf("role = %v", got)
	}
	s.DropShard("sh1")
	if len(s.Shards()) != 0 || len(app.dropped) != 1 {
		t.Fatal("DropShard did not release")
	}
	// Dropping an unowned shard is a no-op.
	s.DropShard("ghost")
}

func TestChangeRole(t *testing.T) {
	env := newEnv()
	app := newEchoApp()
	s := env.server("s1", "a", app)
	s.AddShard("sh1", shard.RoleSecondary, 1)
	if err := s.ChangeRole("sh1", shard.RoleSecondary, shard.RolePrimary, 1); err != nil {
		t.Fatal(err)
	}
	if app.roles["sh1"] != shard.RolePrimary {
		t.Fatal("app not notified of role change")
	}
	if err := s.ChangeRole("sh1", shard.RoleSecondary, shard.RolePrimary, 1); err == nil {
		t.Fatal("stale role change accepted")
	}
	if err := s.ChangeRole("ghost", shard.RolePrimary, shard.RoleSecondary, 1); err == nil {
		t.Fatal("role change on unowned shard accepted")
	}
}

func serve(t *testing.T, env *testEnv, s *Server, req *Request) Response {
	t.Helper()
	var resp Response
	got := false
	s.Serve(req, func(r Response) { resp = r; got = true })
	env.loop.Run()
	if !got {
		t.Fatal("no reply")
	}
	return resp
}

func TestServeActivePrimary(t *testing.T) {
	env := newEnv()
	s := env.server("s1", "a", newEchoApp())
	s.AddShard("sh1", shard.RolePrimary, 1)
	resp := serve(t, env, s, &Request{Shard: "sh1", Key: "k", Write: true})
	if !resp.OK || resp.Payload != "echo:k" || resp.Server != "s1" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestServeWriteOnSecondaryRejected(t *testing.T) {
	env := newEnv()
	s := env.server("s1", "a", newEchoApp())
	s.AddShard("sh1", shard.RoleSecondary, 1)
	resp := serve(t, env, s, &Request{Shard: "sh1", Write: true})
	if resp.OK || resp.Err != "not-primary" {
		t.Fatalf("resp = %+v", resp)
	}
	// Reads are fine on secondaries.
	resp = serve(t, env, s, &Request{Shard: "sh1", Key: "k"})
	if !resp.OK {
		t.Fatalf("read on secondary rejected: %+v", resp)
	}
}

func TestServeUnownedShardRejected(t *testing.T) {
	env := newEnv()
	reg := metrics.NewRegistry()
	env.loop.SetMetrics(reg)
	s := env.server("s1", "a", newEchoApp())
	resp := serve(t, env, s, &Request{Shard: "ghost"})
	if resp.OK || resp.Err != "not-owner" {
		t.Fatalf("resp = %+v", resp)
	}
	if n := reg.Counter("appserver_requests_total", "app", "app", "outcome", "not-owner").Value(); n != 1 {
		t.Fatalf("not-owner rejections = %d, want 1", n)
	}
}

// TestGenerationZeroGrantIsStale: coord's epochs start at 1, so a grant
// stamped 0 is older than every session. It is dropped and counted like any
// other stale grant.
func TestGenerationZeroGrantIsStale(t *testing.T) {
	env := newEnv()
	reg := metrics.NewRegistry()
	env.loop.SetMetrics(reg)
	s := env.server("s1", "a", newEchoApp())
	s.AddShard("sh1", shard.RolePrimary, 0)
	if len(s.Shards()) != 0 {
		t.Fatalf("generation-0 grant applied: %v", s.Shards())
	}
	if n := reg.Counter("appserver_stale_grants_total", "app", "app").Value(); n != 1 {
		t.Fatalf("stale grants = %d, want 1", n)
	}
	s.AddShard("sh1", shard.RolePrimary, 1)
	if !s.HoldsActive("sh1") {
		t.Fatal("generation-1 grant not applied")
	}
}

func TestServeAppError(t *testing.T) {
	env := newEnv()
	app := newEchoApp()
	app.failAll = true
	s := env.server("s1", "a", app)
	s.AddShard("sh1", shard.RolePrimary, 1)
	resp := serve(t, env, s, &Request{Shard: "sh1", Write: true})
	if resp.OK || resp.Err != "app-error" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestGracefulMigrationProtocol(t *testing.T) {
	env := newEnv()
	appOld, appNew := newEchoApp(), newEchoApp()
	old := env.server("old", "a", appOld)
	newer := env.server("new", "b", appNew)
	old.AddShard("sh1", shard.RolePrimary, 1)

	// Step 1: prepare_add on the new primary. Direct client requests are
	// rejected; only forwarded ones are served.
	newer.PrepareAddShard("sh1", "old", shard.RolePrimary, 1)
	resp := serve(t, env, newer, &Request{Shard: "sh1", Write: true})
	if resp.OK || resp.Err != "preparing" {
		t.Fatalf("direct request during prepare = %+v", resp)
	}

	// Step 2: prepare_drop on the old primary: all requests forward.
	old.PrepareDropShard("sh1", "new", shard.RolePrimary)
	resp = serve(t, env, old, &Request{Shard: "sh1", Key: "k", Write: true})
	if !resp.OK || resp.Server != "new" || resp.Hops != 1 {
		t.Fatalf("forwarded resp = %+v", resp)
	}

	// Step 3: add_shard on the new primary: it serves directly.
	newer.AddShard("sh1", shard.RolePrimary, 1)
	resp = serve(t, env, newer, &Request{Shard: "sh1", Write: true})
	if !resp.OK || resp.Hops != 0 {
		t.Fatalf("direct resp after add = %+v", resp)
	}

	// Step 5: drop_shard on the old primary; stragglers still forward
	// via the tombstone.
	old.DropShard("sh1")
	resp = serve(t, env, old, &Request{Shard: "sh1", Write: true})
	if !resp.OK || resp.Server != "new" {
		t.Fatalf("tombstone forward = %+v", resp)
	}
	// After the tombstone TTL, requests are rejected.
	env.loop.RunFor(tombstoneTTL + time.Second)
	resp = serve(t, env, old, &Request{Shard: "sh1", Write: true})
	if resp.OK || resp.Err != "not-owner" {
		t.Fatalf("post-TTL resp = %+v", resp)
	}
}

func TestForwardToDeadServerFails(t *testing.T) {
	env := newEnv()
	old := env.server("old", "a", newEchoApp())
	env.server("new", "b", newEchoApp())
	old.AddShard("sh1", shard.RolePrimary, 1)
	old.PrepareDropShard("sh1", "new", shard.RolePrimary)
	env.net.Unregister("new")
	resp := serve(t, env, old, &Request{Shard: "sh1", Write: true})
	if resp.OK || resp.Err != "forward-failed" {
		t.Fatalf("resp = %+v", resp)
	}
}

// TestForwardRecordsZeroLengthSpan checks the trace a forwarding replica
// leaves: one zero-length appserver/forward span under the request's span,
// naming both ends and the shard.
func TestForwardRecordsZeroLengthSpan(t *testing.T) {
	env := newEnv()
	tr := trace.New()
	env.loop.SetTracer(tr)
	old := env.server("old", "a", newEchoApp())
	env.server("new", "b", newEchoApp()).PrepareAddShard("sh1", "old", shard.RolePrimary, 1)
	old.AddShard("sh1", shard.RolePrimary, 1)
	old.PrepareDropShard("sh1", "new", shard.RolePrimary)
	env.loop.RunFor(time.Second)

	req := tr.StartSpan("routing", "request", 0)
	at := env.loop.Now()
	if resp := serve(t, env, old, &Request{Shard: "sh1", Write: true, TraceSpan: req}); !resp.OK || resp.Hops != 1 {
		t.Fatalf("forwarded resp = %+v", resp)
	}
	fwd := tr.FindSpans("appserver", "forward")
	if len(fwd) != 1 {
		t.Fatalf("forward spans = %d, want 1", len(fwd))
	}
	sp := fwd[0]
	if sp.Parent != req {
		t.Fatalf("forward span parent = %d, want the request's span %d", sp.Parent, req)
	}
	if !sp.Ended || sp.Start != at || sp.Duration() != 0 {
		t.Fatalf("forward span at %v (ended %v, lasts %v), want zero-length at %v", sp.Start, sp.Ended, sp.Duration(), at)
	}
	for k, want := range map[string]string{"from": "old", "to": "new", "shard": "sh1"} {
		if got := sp.Attr(k); got != want {
			t.Fatalf("forward span %s = %q, want %q", k, got, want)
		}
	}
}

func TestForwardLoopRejected(t *testing.T) {
	env := newEnv()
	s := env.server("s1", "a", newEchoApp())
	s.AddShard("sh1", shard.RolePrimary, 1)
	s.PrepareDropShard("sh1", "s1", shard.RolePrimary)
	resp := serve(t, env, s, &Request{Shard: "sh1", Write: true})
	if resp.OK || resp.Err != "forward-loop" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestLoadReportDefaultsToShardCount(t *testing.T) {
	env := newEnv()
	s := env.server("s1", "a", newEchoApp())
	s.AddShard("a", shard.RolePrimary, 1)
	s.AddShard("b", shard.RoleSecondary, 1)
	rep := s.LoadReport()
	if len(rep) != 2 || rep[0].Load[1] != 1 || rep[1].Load[1] != 1 {
		t.Fatalf("LoadReport = %v", rep)
	}
}

type loadApp struct {
	*echoApp
	cpu   float64
	asked int
}

func (l *loadApp) ShardLoad(_ shard.ID, into topology.Capacity) {
	l.asked++
	into[topology.ResourceCPU] = l.cpu
}

func TestLoadReporterOverride(t *testing.T) {
	env := newEnv()
	s := env.server("s1", "a", &loadApp{echoApp: newEchoApp(), cpu: 7})
	s.AddShard("a", shard.RolePrimary, 1)
	if rep := s.LoadReport(); len(rep) != 1 || rep[0].Load[0] != 7 {
		t.Fatalf("LoadReport = %v", rep)
	}
}

// TestLoadReportCarriesWhatChanged: a replica reports when it is new and then
// only after its shard is marked — on whichever server of the directory the
// mark was made — and a round in which nothing changed asks the application
// nothing and allocates nothing.
func TestLoadReportCarriesWhatChanged(t *testing.T) {
	env := newEnv()
	app := &loadApp{echoApp: newEchoApp(), cpu: 1}
	s := env.server("s1", "a", app)
	other := env.server("s2", "a", newEchoApp())
	for _, id := range []shard.ID{"a", "b", "c"} {
		s.AddShard(id, shard.RolePrimary, 1)
	}
	other.AddShard("b", shard.RolePrimary, 1)
	if rep := s.LoadReport(); len(rep) != 3 || app.asked != 3 {
		t.Fatalf("first report %v asked %d loads, want all three", rep, app.asked)
	}
	app.asked = 0
	if allocs := testing.AllocsPerRun(10, func() {
		if rep := s.LoadReport(); rep != nil {
			t.Fatalf("unchanged report = %v", rep)
		}
	}); allocs != 0 || app.asked != 0 {
		t.Fatalf("an unchanged report allocated %v times and asked %d loads", allocs, app.asked)
	}
	app.cpu = 2
	other.LoadChanged(other.ShardNum("b"))
	other.LoadChanged(other.ShardNum("unknown")) // a shard no server was given: nothing to mark
	rep := s.LoadReport()
	if len(rep) != 1 || rep[0].Shard != "b" || rep[0].Load[0] != 2 {
		t.Fatalf("report after marking b = %v", rep)
	}
	s.DropShard("c")
	s.AddShard("c", shard.RoleSecondary, 1)
	if rep := s.LoadReport(); len(rep) != 1 || rep[0].Shard != "c" {
		t.Fatalf("report after re-adding c = %v, want c alone (a new replica)", rep)
	}
	if rep := other.LoadReport(); len(rep) != 1 || rep[0].Shard != "b" {
		t.Fatalf("the other server's first report = %v", rep)
	}
	// A report outgrowing the server's buffers carries its own entries only,
	// each with its own values.
	app.cpu = 3
	for _, id := range []shard.ID{"d", "e", "f", "g"} {
		s.AddShard(id, shard.RoleSecondary, 1)
	}
	var got []shard.ID
	for _, e := range s.LoadReport() {
		got = append(got, e.Shard)
		if len(e.Load) != 2 || e.Load[0] != 3 {
			t.Fatalf("%s reports %v, want cpu 3", e.Shard, e.Load)
		}
	}
	if slices.Sort(got); !slices.Equal(got, []shard.ID{"d", "e", "f", "g"}) {
		t.Fatalf("the report after adding four replicas names %v", got)
	}
}

// TestLoadReportBuffersGrowOnce: a server whose reports grow by one entry a
// round, from 1 to all n of its replicas, remakes its report buffers once,
// for every replica it holds, not at each new high. A server whose replica
// count rises one at a time, each report carrying every replica, remakes them
// at most log2(n)+1 times: each remake at least doubles the room.
func TestLoadReportBuffersGrowOnce(t *testing.T) {
	const n = 20
	env := newEnv()
	s := env.server("s1", "a", newEchoApp())
	ids := make([]shard.ID, n)
	for i := range ids {
		ids[i] = shard.ID(fmt.Sprintf("sh%02d", i))
		s.AddShard(ids[i], shard.RolePrimary, 1)
		if rep := s.LoadReport(); len(rep) != 1 { // the new replica alone
			t.Fatalf("report after adding %s = %v", ids[i], rep)
		}
	}
	remade := 0
	entry, vals := &s.report[0], &s.reportVals[0]
	for k := 1; k <= n; k++ {
		for _, id := range ids[:k] {
			s.LoadChanged(s.ShardNum(id))
		}
		if rep := s.LoadReport(); len(rep) != k {
			t.Fatalf("round %d reported %d entries", k, len(rep))
		}
		if &s.report[0] != entry || &s.reportVals[0] != vals {
			remade++
			entry, vals = &s.report[0], &s.reportVals[0]
		}
	}
	if remade != 1 || len(s.report) != n || len(s.reportVals) != n*len(testMetrics) {
		t.Fatalf("reports growing from 1 to %d entries remade the buffers %d times, to %d entries and %d values",
			n, remade, len(s.report), len(s.reportVals))
	}

	const rising = 64
	s = env.server("s2", "a", newEchoApp())
	made := 0
	for i := range rising {
		id := shard.ID(fmt.Sprintf("up%02d", i))
		s.AddShard(id, shard.RolePrimary, 1)
		for j := range i {
			s.LoadChanged(s.ShardNum(shard.ID(fmt.Sprintf("up%02d", j))))
		}
		before := s.report
		if rep := s.LoadReport(); len(rep) != i+1 {
			t.Fatalf("report %d carried %d entries, want every replica", i, len(rep))
		}
		if len(before) == 0 || &s.report[0] != &before[0] {
			made++
		}
	}
	if limit := bits.Len(rising) + 1; made > limit || len(s.reportVals) != len(s.report)*len(testMetrics) {
		t.Fatalf("a replica count rising to %d made the report buffers %d times (at most %d), %d entries and %d values",
			rising, made, limit, len(s.report), len(s.reportVals))
	}
}

func TestEncodeDecodeAssignment(t *testing.T) {
	in := map[shard.ID]shard.Role{
		"beta":  shard.RoleSecondary,
		"alpha": shard.RolePrimary,
	}
	data := EncodeAssignment(in)
	if string(data) != "alpha p\nbeta s\n" {
		t.Fatalf("encoded = %q", data)
	}
	entries := splitAssign(string(data))
	if len(entries) != 2 || entries[0].Shard != "alpha" || entries[0].Role != shard.RolePrimary ||
		entries[1].Shard != "beta" || entries[1].Role != shard.RoleSecondary {
		t.Fatalf("decoded = %+v", entries)
	}
	if again := AppendEntries(nil, entries); string(again) != string(data) {
		t.Fatalf("the decoded entries encode to %q, want %q", again, data)
	}
	if again := AppendEntries([]byte("x"), entries); string(again) != "x"+string(data) {
		t.Fatalf("appended to %q, the entries give %q", "x", again)
	}
}

func TestHostLifecycle(t *testing.T) {
	env := newEnv()
	store := coord.NewStore()
	mgr := cluster.NewManager(env.loop, env.fleet, "a", cluster.DefaultOptions())
	host := NewHost(env.loop, env.net, env.dir, store, env.fleet, "app", "job", func(s *Server) Application {
		return newEchoApp()
	})
	mgr.AddListener(host)
	mgr.CreateJob("job", 3)
	env.loop.RunFor(time.Minute)
	if len(host.ServerIDs()) != 3 {
		t.Fatalf("live servers = %d", len(host.ServerIDs()))
	}
	// Liveness nodes exist.
	kids, err := store.Children("/apps/app/servers")
	if err != nil || len(kids) != 3 {
		t.Fatalf("liveness nodes = %v err=%v", kids, err)
	}
	// Kill a container: server dies, ephemeral vanishes, endpoint down.
	cid := mgr.RunningContainers("job")[0]
	c, _ := mgr.Container(cid)
	mgr.KillMachine(c.Machine)
	if len(host.ServerIDs()) != 2 {
		t.Fatalf("live servers after kill = %d", len(host.ServerIDs()))
	}
	kids, _ = store.Children("/apps/app/servers")
	if len(kids) != 2 {
		t.Fatalf("liveness nodes after kill = %v", kids)
	}
	if env.net.Reachable(rpcnet.Endpoint(cid)) {
		t.Fatal("dead server still reachable")
	}
}

func TestHostRestoresPersistedAssignment(t *testing.T) {
	env := newEnv()
	store := coord.NewStore()
	mgr := cluster.NewManager(env.loop, env.fleet, "a", cluster.DefaultOptions())
	host := NewHost(env.loop, env.net, env.dir, store, env.fleet, "app", "job", func(s *Server) Application {
		return newEchoApp()
	})
	mgr.AddListener(host)
	// Persist an assignment for the first container before it starts.
	if err := store.Create(DefaultPaths("app").AssignNode("job/0"),
		EncodeAssignment(map[shard.ID]shard.Role{"sh9": shard.RolePrimary}), nil); err != nil {
		t.Fatal(err)
	}
	mgr.CreateJob("job", 1)
	env.loop.RunFor(time.Minute)
	srv := host.Server("job/0")
	if srv == nil {
		t.Fatal("server not started")
	}
	if !srv.HoldsActive("sh9") {
		t.Fatal("persisted assignment not restored at start-up")
	}
}

func TestHostIgnoresOtherJobs(t *testing.T) {
	env := newEnv()
	store := coord.NewStore()
	mgr := cluster.NewManager(env.loop, env.fleet, "a", cluster.DefaultOptions())
	host := NewHost(env.loop, env.net, env.dir, store, env.fleet, "app", "job", func(s *Server) Application {
		return newEchoApp()
	})
	mgr.AddListener(host)
	mgr.CreateJob("otherjob", 2)
	env.loop.RunFor(time.Minute)
	if len(host.ServerIDs()) != 0 {
		t.Fatal("host adopted containers of a different job")
	}
}

func TestHostExpireSessionFalseDeadThenReconnect(t *testing.T) {
	env := newEnv()
	store := coord.NewStore()
	mgr := cluster.NewManager(env.loop, env.fleet, "a", cluster.DefaultOptions())
	host := NewHost(env.loop, env.net, env.dir, store, env.fleet, "app", "job", func(s *Server) Application {
		return newEchoApp()
	})
	mgr.AddListener(host)
	mgr.CreateJob("job", 3)
	env.loop.RunFor(time.Minute)
	if len(host.ServerIDs()) != 3 {
		t.Fatalf("live servers = %d", len(host.ServerIDs()))
	}
	id := host.ServerIDs()[0]
	if !host.ExpireSession(id, 5*time.Second) {
		t.Fatal("ExpireSession on a live server returned false")
	}
	// False-dead: the process is alive but its ephemeral node is gone.
	if len(host.ServerIDs()) != 3 {
		t.Fatalf("live servers after expiry = %d; expiry must not kill the process", len(host.ServerIDs()))
	}
	kids, _ := store.Children("/apps/app/servers")
	if len(kids) != 2 {
		t.Fatalf("liveness nodes right after expiry = %d, want 2", len(kids))
	}
	// After the reconnect delay the server republishes its liveness node.
	env.loop.RunFor(10 * time.Second)
	kids, _ = store.Children("/apps/app/servers")
	if len(kids) != 3 {
		t.Fatalf("liveness nodes after reconnect = %d, want 3", len(kids))
	}
	if !store.Exists(host.paths.ServerNode(id)) {
		t.Fatalf("liveness node for %s missing after reconnect", id)
	}
	if host.ExpireSession("no-such-server", time.Second) {
		t.Fatal("ExpireSession on unknown server returned true")
	}
}

func TestHostLivenessRetriesThroughCoordWriteStall(t *testing.T) {
	env := newEnv()
	store := coord.NewStore()
	mgr := cluster.NewManager(env.loop, env.fleet, "a", cluster.DefaultOptions())
	host := NewHost(env.loop, env.net, env.dir, store, env.fleet, "app", "job", func(s *Server) Application {
		return newEchoApp()
	})
	mgr.AddListener(host)
	// Stall all coordination writes, then start containers: liveness
	// publication must keep retrying instead of crashing.
	store.SetWriteGate(func(op, path string) error { return coord.ErrUnavailable })
	mgr.CreateJob("job", 3)
	env.loop.RunFor(time.Minute)
	if len(host.ServerIDs()) != 3 {
		t.Fatalf("live servers during stall = %d", len(host.ServerIDs()))
	}
	kids, _ := store.Children("/apps/app/servers")
	if len(kids) != 0 {
		t.Fatalf("liveness nodes published through the stall: %v", kids)
	}
	store.SetWriteGate(nil)
	env.loop.RunFor(2 * time.Second)
	kids, _ = store.Children("/apps/app/servers")
	if len(kids) != 3 {
		t.Fatalf("liveness nodes after stall lifted = %d, want 3", len(kids))
	}
}

func TestServeDelayGrayFailure(t *testing.T) {
	env := newEnv()
	s := env.server("s1", "a", newEchoApp())
	s.AddShard("sh1", shard.RolePrimary, 1)

	timed := func() time.Duration {
		start := env.loop.Now()
		var took time.Duration
		got := false
		s.Serve(&Request{Shard: "sh1", Key: "k", Write: true}, func(r Response) {
			if !r.OK {
				t.Fatalf("resp = %+v", r)
			}
			took = env.loop.Now() - start
			got = true
		})
		env.loop.Run()
		if !got {
			t.Fatal("no reply")
		}
		return took
	}

	base := timed()
	s.SetServeDelay(300 * time.Millisecond)
	if d := timed(); d != base+300*time.Millisecond {
		t.Fatalf("gray serve took %v, want base %v + 300ms", d, base)
	}
	s.SetServeDelay(0)
	if d := timed(); d != base {
		t.Fatalf("restored serve took %v, want %v", d, base)
	}
}

// TestStalledRequestOnARemovedServerFails: a request the gray-failure stall
// holds when its server is removed fails as "server-gone" without reaching the
// application, and Remove takes the server's replicas out of the directory's
// lists at once, stall or not.
func TestStalledRequestOnARemovedServerFails(t *testing.T) {
	env := newEnv()
	app := newEchoApp()
	s := env.server("s1", "a", app)
	s.AddShard("sh1", shard.RolePrimary, 1)
	s.SetServeDelay(300 * time.Millisecond)
	var resp *Response
	s.Serve(&Request{Shard: "sh1", Key: "k"}, func(r Response) { resp = &r })
	env.loop.RunFor(100 * time.Millisecond)
	env.dir.Remove("s1")
	if hs := env.dir.holders[env.dir.ShardNum("sh1")]; len(hs) != 0 {
		t.Fatalf("the removed server still has %d entries in the shard's list", len(hs))
	}
	env.loop.Run()
	if resp == nil || resp.OK || resp.Err != "server-gone" || resp.Server != "s1" {
		t.Fatalf("the stalled request got %+v, want a server-gone failure from s1", resp)
	}
	if app.received != nil {
		t.Fatal("the removed server's application handled the stalled request")
	}
}
