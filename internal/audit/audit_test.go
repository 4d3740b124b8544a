package audit

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"shardmanager/internal/appserver"
	"shardmanager/internal/metrics"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

type fakeApp struct{}

func (fakeApp) AddShard(shard.ID, shard.Role) any           { return nil }
func (fakeApp) DropShard(shard.ID)                          {}
func (fakeApp) ChangeRole(shard.ID, shard.Role, shard.Role) {}
func (fakeApp) HandleRequest(*appserver.Request, any) (any, error) {
	return "ok", nil
}

// rig wires two real app servers into a directory watched by an auditor.
type rig struct {
	loop *sim.Loop
	dir  *appserver.Directory
	a    *Auditor
	srvA *appserver.Server
	srvB *appserver.Server
}

func newRig(t *testing.T, opts Options) *rig {
	t.Helper()
	loop := sim.NewLoop(1)
	if opts.App == "" {
		opts.App = "kv"
	}
	dir := appserver.NewDirectory()
	a := New(loop, opts)
	a.WatchDirectory(dir)
	mk := func(id shard.ServerID) *appserver.Server {
		srv := appserver.NewServer(loop, nil, dir, func(*appserver.Server) appserver.Application { return fakeApp{} }, opts.App, id, "rgn-a")
		dir.Register(srv)
		return srv
	}
	return &rig{loop: loop, dir: dir, a: a, srvA: mk("srv-a"), srvB: mk("srv-b")}
}

func TestOnePrimaryViolation(t *testing.T) {
	r := newRig(t, Options{})
	r.srvA.AddShard("s1", shard.RolePrimary, 1)
	if n := r.a.ViolationCount(); n != 0 {
		t.Fatalf("single primary flagged: %d violations", n)
	}
	r.srvB.AddShard("s1", shard.RolePrimary, 1)
	vs := r.a.Violations()
	if len(vs) != 1 || vs[0].Invariant != InvOnePrimary {
		t.Fatalf("want one one-primary violation, got %+v", vs)
	}
	if got := joinServers(vs[0].Servers); got != "srv-a,srv-b" {
		t.Fatalf("violation servers = %q", got)
	}
	// Still inside the same episode: no second violation.
	r.srvB.AddShard("s1", shard.RolePrimary, 1)
	if n := len(r.a.Violations()); n != 1 {
		t.Fatalf("dedup failed: %d violations", n)
	}
	// End the episode, then re-enter it: a fresh violation fires.
	if err := r.srvA.ChangeRole("s1", shard.RolePrimary, shard.RoleSecondary, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.srvA.ChangeRole("s1", shard.RoleSecondary, shard.RolePrimary, 1); err != nil {
		t.Fatal(err)
	}
	if n := len(r.a.Violations()); n != 2 {
		t.Fatalf("re-entered episode: want 2 violations, got %d", n)
	}
}

func TestWriteOwnerViolation(t *testing.T) {
	r := newRig(t, Options{})
	r.srvA.AddShard("s1", shard.RolePrimary, 1)
	r.srvB.AddShard("s1", shard.RolePrimary, 1) // fires one-primary
	var resp appserver.Response
	r.srvA.Serve(&appserver.Request{Shard: "s1", Write: true, Op: "set"},
		func(rs appserver.Response) { resp = rs })
	if !resp.OK {
		t.Fatalf("write rejected: %+v", resp)
	}
	var wo int
	for _, v := range r.a.Violations() {
		if v.Invariant == InvWriteOwner {
			wo++
			if len(v.Timeline) == 0 {
				t.Fatal("violation carries no timeline")
			}
		}
	}
	if wo != 1 {
		t.Fatalf("want 1 write-owner violation, got %d", wo)
	}
	// Second write in the same episode is deduped but still checked.
	r.srvA.Serve(&appserver.Request{Shard: "s1", Write: true, Op: "set"},
		func(appserver.Response) {})
	if got := r.a.Checks()[InvWriteOwner]; got != 2 {
		t.Fatalf("write-owner checks = %d, want 2", got)
	}
	if got := r.a.violCounts[InvWriteOwner]; got != 1 {
		t.Fatalf("write-owner violations = %d, want 1", got)
	}
}

func TestServeDuringPrepareDrop(t *testing.T) {
	loop := sim.NewLoop(1)
	a := New(loop, Options{App: "kv"})
	obs := a.directoryObserver()
	// The real appserver never handles locally while forwarding; drive the
	// hook directly to prove the auditor would catch a regression.
	obs.Handled("srv-a", "s1", false, false, appserver.PhaseForwarding)
	vs := a.Violations()
	if len(vs) != 1 || vs[0].Invariant != InvServePrepare {
		t.Fatalf("want one serve-during-prepare-drop violation, got %+v", vs)
	}
	obs.Handled("srv-a", "s1", false, false, appserver.PhaseForwarding)
	if len(a.Violations()) != 1 {
		t.Fatalf("dedup failed")
	}
	// A replica transition resets the flag.
	obs.ReplicaChanged("srv-a", "s1", shard.RoleSecondary, appserver.PhaseForwarding, "srv-b")
	obs.Handled("srv-a", "s1", false, false, appserver.PhaseForwarding)
	if len(a.Violations()) != 2 {
		t.Fatalf("want fresh violation after replica transition, got %d", len(a.Violations()))
	}
}

// mapV is the publication that sets shard s to as in version v.
func mapV(v int64, s shard.ID, as ...shard.Assignment) *shard.Delta {
	d := shard.NewDelta("kv").Reset("kv", v-1, v, 0)
	d.Set(s, as)
	return d
}

func TestStaleRoutingRemovedServer(t *testing.T) {
	loop := sim.NewLoop(1)
	a := New(loop, Options{App: "kv"})
	obs := a.clientObserver()
	a.onMap(mapV(1, "s1", shard.Assignment{Server: "srv-a", Role: shard.RolePrimary}))
	a.onMap(mapV(2, "s1", shard.Assignment{Server: "srv-b", Role: shard.RolePrimary}))
	// Within the bound: tombstone forwarding makes this legitimate.
	loop.AfterL(30*time.Second, 0, func() {
		obs(routing.Result{OK: true, Server: "srv-a", Shard: "s1", MapVersion: 1})
	})
	// Past the bound: the map has long converged, srv-a must be out.
	loop.AfterL(50*time.Second, 0, func() {
		obs(routing.Result{OK: true, Server: "srv-a", Shard: "s1", MapVersion: 1})
	})
	loop.Run()
	vs := a.Violations()
	if len(vs) != 1 || vs[0].Invariant != InvStaleRouting {
		t.Fatalf("want one stale-routing violation, got %+v", vs)
	}
	if vs[0].At != 50*time.Second {
		t.Fatalf("violation at %s, want 50s", vs[0].At)
	}
	if got := a.Checks()[InvStaleRouting]; got != 2 {
		t.Fatalf("stale-routing checks = %d, want 2", got)
	}
}

func TestStaleRoutingNotOwner(t *testing.T) {
	loop := sim.NewLoop(1)
	a := New(loop, Options{App: "kv"})
	obs := a.clientObserver()
	a.onMap(mapV(1, "s1", shard.Assignment{Server: "srv-a", Role: shard.RolePrimary}))
	// Shortly after publication a not-owner is ordinary propagation lag.
	loop.AfterL(10*time.Second, 0, func() {
		obs(routing.Result{Err: "not-owner", RejectedBy: "srv-b", Shard: "s1", MapVersion: 1})
	})
	loop.AfterL(60*time.Second, 0, func() {
		obs(routing.Result{Err: "not-owner", RejectedBy: "srv-b", Shard: "s1", MapVersion: 1})
		// Same stale episode: deduped.
		obs(routing.Result{Err: "not-owner", RejectedBy: "srv-b", Shard: "s1", MapVersion: 1})
	})
	loop.Run()
	vs := a.Violations()
	if len(vs) != 1 || vs[0].Invariant != InvStaleRouting {
		t.Fatalf("want one stale-routing violation, got %+v", vs)
	}
	// A fresh publication clears the episode.
	a.onMap(mapV(2, "s1", shard.Assignment{Server: "srv-b", Role: shard.RolePrimary}))
	obs(routing.Result{Err: "not-owner", RejectedBy: "srv-b", Shard: "s1", MapVersion: 2})
	if len(a.Violations()) != 1 {
		t.Fatalf("not-owner right after publish flagged")
	}
}

func TestMetricsCounters(t *testing.T) {
	loop := sim.NewLoop(1)
	reg := metrics.NewRegistry()
	loop.SetMetrics(reg)
	a := New(loop, Options{App: "kv"})
	obs := a.directoryObserver()
	obs.ReplicaChanged("srv-a", "s1", shard.RolePrimary, appserver.PhaseActive, "")
	obs.ReplicaChanged("srv-b", "s1", shard.RolePrimary, appserver.PhaseActive, "")
	if got := reg.Counter("audit_checks_total", "invariant", InvOnePrimary).Value(); got != 2 {
		t.Fatalf("audit_checks_total{one-primary} = %d, want 2", got)
	}
	if got := reg.Counter("audit_violations_total", "invariant", InvOnePrimary).Value(); got != 1 {
		t.Fatalf("audit_violations_total{one-primary} = %d, want 1", got)
	}
	// Untouched invariants still expose zero-valued cells.
	if got := reg.Counter("audit_violations_total", "invariant", InvStaleRouting).Value(); got != 0 {
		t.Fatalf("audit_violations_total{stale-routing} = %d, want 0", got)
	}
}

// scenario drives a fixed mixed-violation sequence used by the determinism
// and golden tests.
func scenario() *Auditor {
	loop := sim.NewLoop(7)
	a := New(loop, Options{App: "kv"})
	a.timelineCap = 16
	dobs := a.directoryObserver()
	cobs := a.clientObserver()
	a.onMap(mapV(1, "s1",
		shard.Assignment{Server: "srv-a", Role: shard.RolePrimary},
		shard.Assignment{Server: "srv-b", Role: shard.RoleSecondary}))
	dobs.ReplicaChanged("srv-a", "s1", shard.RolePrimary, appserver.PhaseActive, "")
	dobs.ReplicaChanged("srv-b", "s1", shard.RoleSecondary, appserver.PhaseActive, "")
	loop.AfterL(5*time.Second, 0, func() {
		a.onMap(mapV(2, "s1",
			shard.Assignment{Server: "srv-b", Role: shard.RolePrimary}))
		dobs.ReplicaChanged("srv-b", "s1", shard.RolePrimary, appserver.PhaseActive, "")
	})
	loop.AfterL(8*time.Second, 0, func() {
		// srv-a never demoted: dual active primaries.
		dobs.Handled("srv-b", "s1", true, false, appserver.PhaseActive)
	})
	loop.AfterL(55*time.Second, 0, func() {
		cobs(routing.Result{OK: true, Server: "srv-a", Shard: "s1", MapVersion: 1})
	})
	loop.Run()
	return a
}

func TestReportDeterminism(t *testing.T) {
	var texts, jsons [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		a := scenario()
		a.WriteText(&texts[i])
		if err := json.NewEncoder(&jsons[i]).Encode(a.Report()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(texts[0].Bytes(), texts[1].Bytes()) {
		t.Fatalf("text reports differ:\n--- run 1\n%s\n--- run 2\n%s", texts[0].String(), texts[1].String())
	}
	if !bytes.Equal(jsons[0].Bytes(), jsons[1].Bytes()) {
		t.Fatalf("json reports differ")
	}
}

func TestReportGolden(t *testing.T) {
	a := scenario()
	var buf bytes.Buffer
	a.WriteText(&buf)
	buf.WriteString("--- timeline ---\n")
	a.TimelineText("s1", &buf)
	path := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("report drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

func TestTimelineBounded(t *testing.T) {
	loop := sim.NewLoop(1)
	a := New(loop, Options{App: "kv"})
	a.timelineCap = 8
	obs := a.directoryObserver()
	for i := 0; i < 50; i++ {
		role := shard.RoleSecondary
		if i%2 == 0 {
			role = shard.RolePrimary
		}
		obs.ReplicaChanged("srv-a", "s1", role, appserver.PhaseActive, "")
	}
	tl := a.Timeline("s1")
	if len(tl) != 8 {
		t.Fatalf("timeline length = %d, want 8", len(tl))
	}
	if !strings.Contains(tl[len(tl)-1].Detail, "srv-a") {
		t.Fatalf("last event = %+v", tl[len(tl)-1])
	}
}
