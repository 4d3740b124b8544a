package faults_test

import (
	"errors"
	"testing"
	"time"

	"shardmanager/internal/appserver"
	"shardmanager/internal/coord"
	"shardmanager/internal/discovery"
	"shardmanager/internal/faults"
	"shardmanager/internal/routing"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

type okApp struct{}

func (okApp) AddShard(shard.ID, shard.Role) any           { return nil }
func (okApp) DropShard(shard.ID)                          {}
func (okApp) ChangeRole(shard.ID, shard.Role, shard.Role) {}
func (okApp) HandleRequest(req *appserver.Request, _ any) (any, error) {
	return "v:" + req.Key, nil
}

// world is a hand-wired two-region deployment: one server in "far" holding
// shard s1, one client in "near" reading it across a 60ms link.
type world struct {
	loop   *sim.Loop
	fleet  *topology.Fleet
	net    *rpcnet.Network
	client *routing.Client
	env    *faults.Env
}

func newWorld(t testing.TB) *world {
	t.Helper()
	fleet := topology.Build(topology.Spec{
		Regions:           []topology.RegionID{"near", "far"},
		MachinesPerRegion: 2,
		Latency: map[[2]topology.RegionID]time.Duration{
			{"near", "far"}: 60 * time.Millisecond,
		},
	})
	fleet.SetLatency("near", "near", time.Millisecond)
	fleet.SetLatency("far", "far", time.Millisecond)
	loop := sim.NewLoop(7)
	net := rpcnet.NewNetwork(loop, fleet)
	dir := appserver.NewDirectory()
	disc := discovery.NewService(loop, discovery.FixedDelay(100*time.Millisecond))
	srv := appserver.NewServer(loop, net, dir, func(*appserver.Server) appserver.Application { return okApp{} }, "app", "far-srv", "far")
	dir.Register(srv)
	net.Register("far-srv", "far")
	srv.AddShard("s1", shard.RoleSecondary, 1)
	ks, err := shard.NewKeyspace([]shard.ID{"s1"}, []string{""})
	if err != nil {
		t.Fatal(err)
	}
	m := &shard.Map{App: "app", Entries: map[shard.ID][]shard.Assignment{}}
	m.Version, m.Gen = 1, 1
	m.Entries = map[shard.ID][]shard.Assignment{
		"s1": {{Server: "far-srv", Role: shard.RoleSecondary}},
	}
	disc.Publish(m.Diff(nil, nil))
	client := routing.NewClient(loop, net, dir, disc, fleet, "app", ks, "near", routing.DefaultOptions())
	loop.RunFor(2 * time.Second) // map propagation
	return &world{
		loop:   loop,
		fleet:  fleet,
		net:    net,
		client: client,
		env:    &faults.Env{Loop: loop, Fleet: fleet, Net: net},
	}
}

func (w *world) read(t testing.TB) routing.Result {
	t.Helper()
	var res routing.Result
	got := false
	w.client.Do("k", false, "op", nil, func(r routing.Result) { res = r; got = true })
	w.loop.RunFor(time.Minute)
	if !got {
		t.Fatal("no result")
	}
	return res
}

// onPlateau reports whether a read took the healthy round trip: two 60 ms
// hops, each stretched by up to the fabric's 10% jitter.
func onPlateau(d time.Duration) bool { return d >= 120*time.Millisecond && d <= 132*time.Millisecond }

func TestPartitionHealRestoresLatencyPlateau(t *testing.T) {
	w := newWorld(t)
	base := w.read(t)
	if !base.OK || !onPlateau(base.Latency) {
		t.Fatalf("pre-fault read off the plateau: %+v", base)
	}

	part := faults.Partition("near", "far")
	part.Apply(w.env)
	during := w.read(t)
	if during.OK {
		t.Fatalf("read succeeded across a full partition: %+v", during)
	}

	part.Revert(w.env)
	healed := w.read(t)
	if !healed.OK {
		t.Fatalf("post-heal read failed: %+v", healed)
	}
	if !onPlateau(healed.Latency) {
		t.Fatalf("healed latency %v off the pre-fault plateau (pre-fault read: %v)", healed.Latency, base.Latency)
	}
}

func TestScheduledLatencyFaultInflatesAndReverts(t *testing.T) {
	w := newWorld(t)
	base := w.read(t)
	if !base.OK || !onPlateau(base.Latency) {
		t.Fatalf("pre-fault read off the plateau: %+v", base)
	}

	inj := faults.NewInjector(w.env)
	start := w.loop.Now()
	inj.Schedule(faults.NewScenario().
		Add(start+10*time.Second, 20*time.Second, faults.LatencyScale("near", "far", 5)))

	var during, after routing.Result
	w.loop.AtL(start+15*time.Second, 0, func() {
		w.client.Do("k", false, "op", nil, func(r routing.Result) { during = r })
	})
	w.loop.AtL(start+45*time.Second, 0, func() {
		w.client.Do("k", false, "op", nil, func(r routing.Result) { after = r })
	})
	w.loop.RunFor(time.Minute)

	if !during.OK || !after.OK {
		t.Fatalf("during = %+v, after = %+v", during, after)
	}
	if during.Latency <= 4*base.Latency {
		t.Fatalf("latency under x5 inflation = %v; want > 4x the %v plateau", during.Latency, base.Latency)
	}
	if !onPlateau(after.Latency) {
		t.Fatalf("post-revert latency %v off the pre-fault plateau (pre-fault read: %v)", after.Latency, base.Latency)
	}
	if inj.Injected != 1 || inj.Reverted != 1 {
		t.Fatalf("injected/reverted = %d/%d, want 1/1", inj.Injected, inj.Reverted)
	}
}

func TestOneWayPartitionIsAsymmetric(t *testing.T) {
	w := newWorld(t)
	faults.PartitionOneWay("near", "far").Apply(w.env)
	if !w.net.Partitioned("near", "far") {
		t.Fatal("near->far should be partitioned")
	}
	if w.net.Partitioned("far", "near") {
		t.Fatal("far->near should be open under a one-way partition")
	}
}

func TestCoordStallGatesWritesUntilReverted(t *testing.T) {
	store := coord.NewStore()
	loop := sim.NewLoop(1)
	env := &faults.Env{Loop: loop, Store: store}

	stall := faults.CoordStall()
	stall.Apply(env)
	if err := store.Create("/x", nil, nil); !errors.Is(err, coord.ErrUnavailable) {
		t.Fatalf("Create under stall = %v, want ErrUnavailable", err)
	}
	if _, _, err := store.Get("/"); err != nil {
		t.Fatalf("reads must survive a write stall: %v", err)
	}
	stall.Revert(env)
	if err := store.Create("/x", nil, nil); err != nil {
		t.Fatalf("Create after revert = %v", err)
	}
}
