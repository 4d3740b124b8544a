package routing

import (
	"testing"
	"time"

	"shardmanager/internal/appserver"
	"shardmanager/internal/discovery"
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

type env struct {
	loop  *sim.Loop
	fleet *topology.Fleet
	net   *rpcnet.Network
	dir   *appserver.Directory
	disc  *discovery.Service
	ks    *shard.Keyspace
}

func newEnv(t testing.TB) *env {
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
	ks, err := shard.NewKeyspace([]shard.ID{"s1", "s2"}, []string{"", "m"})
	if err != nil {
		t.Fatal(err)
	}
	return &env{
		loop:  loop,
		fleet: fleet,
		net:   net,
		dir:   appserver.NewDirectory(),
		disc:  discovery.NewService(loop, discovery.FixedDelay(100*time.Millisecond)),
		ks:    ks,
	}
}

func (e *env) addServer(id shard.ServerID, region topology.RegionID) *appserver.Server {
	return e.addServerApp(id, region, okApp{})
}

func (e *env) addServerApp(id shard.ServerID, region topology.RegionID, app appserver.Application) *appserver.Server {
	s := appserver.NewServer(e.loop, e.net, e.dir, func(*appserver.Server) appserver.Application { return app }, "app", id, region)
	e.dir.Register(s)
	e.net.Register(rpcnet.Endpoint(id), region)
	return s
}

func (e *env) killServer(id shard.ServerID) {
	e.dir.Remove(id)
	e.net.Unregister(rpcnet.Endpoint(id))
}

func (e *env) publish(version int64, entries map[shard.ID][]shard.Assignment) {
	m := &shard.Map{App: "app", Entries: map[shard.ID][]shard.Assignment{}}
	m.Version, m.Gen = version, version
	m.Entries = entries
	e.disc.Publish(m.Diff(nil, nil))
}

func (e *env) client(region topology.RegionID) *Client {
	return NewClient(e.loop, e.net, e.dir, e.disc, e.fleet, "app", e.ks, region, DefaultOptions())
}

func do(t testing.TB, e *env, c *Client, key string, write bool) Result {
	t.Helper()
	var res Result
	got := false
	c.Do(key, write, "op", nil, func(r Result) { res = r; got = true })
	e.loop.RunFor(time.Minute)
	if !got {
		t.Fatal("no result")
	}
	return res
}

func TestRouteWriteToPrimary(t *testing.T) {
	e := newEnv(t)
	p := e.addServer("p", "near")
	sec := e.addServer("sec", "near")
	p.AddShard("s1", shard.RolePrimary, 1)
	sec.AddShard("s1", shard.RoleSecondary, 1)
	e.publish(1, map[shard.ID][]shard.Assignment{
		"s1": {{Server: "sec", Role: shard.RoleSecondary}, {Server: "p", Role: shard.RolePrimary}},
	})
	c := e.client("near")
	e.loop.RunFor(time.Second) // map propagation
	res := do(t, e, c, "abc", true)
	if !res.OK || res.Server != "p" || res.Payload != "v:abc" {
		t.Fatalf("res = %+v", res)
	}
	if res.Shard != "s1" {
		t.Fatalf("shard = %s", res.Shard)
	}
}

func TestRouteReadPrefersLocalReplica(t *testing.T) {
	e := newEnv(t)
	nearSrv := e.addServer("near-srv", "near")
	farSrv := e.addServer("far-srv", "far")
	nearSrv.AddShard("s1", shard.RoleSecondary, 1)
	farSrv.AddShard("s1", shard.RoleSecondary, 1)
	e.publish(1, map[shard.ID][]shard.Assignment{
		"s1": {{Server: "far-srv", Role: shard.RoleSecondary}, {Server: "near-srv", Role: shard.RoleSecondary}},
	})
	c := e.client("near")
	e.loop.RunFor(time.Second)
	for i := 0; i < 5; i++ {
		res := do(t, e, c, "abc", false)
		if !res.OK || res.Server != "near-srv" {
			t.Fatalf("res = %+v, want near-srv", res)
		}
		if res.Latency > 10*time.Millisecond {
			t.Fatalf("local read latency = %v", res.Latency)
		}
	}
}

func TestReadFailsOverToRemoteReplica(t *testing.T) {
	e := newEnv(t)
	nearSrv := e.addServer("near-srv", "near")
	farSrv := e.addServer("far-srv", "far")
	nearSrv.AddShard("s1", shard.RoleSecondary, 1)
	farSrv.AddShard("s1", shard.RoleSecondary, 1)
	e.publish(1, map[shard.ID][]shard.Assignment{
		"s1": {{Server: "near-srv", Role: shard.RoleSecondary}, {Server: "far-srv", Role: shard.RoleSecondary}},
	})
	c := e.client("near")
	e.loop.RunFor(time.Second)
	e.killServer("near-srv")
	res := do(t, e, c, "abc", false)
	if !res.OK || res.Server != "far-srv" {
		t.Fatalf("res = %+v, want far-srv", res)
	}
	if res.Attempts < 2 {
		t.Fatalf("attempts = %d, want retry", res.Attempts)
	}
	if res.Latency < 120*time.Millisecond {
		t.Fatalf("remote latency = %v, want >= 2x60ms", res.Latency)
	}
}

// TestUnreachableServerGoesLastUntilNewerMap: a read that found the near
// replica unreachable marks it suspect, so the client's later reads under the
// same map go straight to the far replica; a newer map listing the server
// again buys it one more probe. A suspect that is a read's only replica, or a
// write's primary, is still sent to.
func TestUnreachableServerGoesLastUntilNewerMap(t *testing.T) {
	e := newEnv(t)
	e.addServer("near-srv", "near").AddShard("s1", shard.RoleSecondary, 1)
	e.addServer("far-srv", "far").AddShard("s1", shard.RoleSecondary, 1)
	entries := map[shard.ID][]shard.Assignment{
		"s1": {{Server: "near-srv", Role: shard.RoleSecondary}, {Server: "far-srv", Role: shard.RoleSecondary}},
		"s2": {{Server: "near-srv", Role: shard.RolePrimary}},
	}
	e.publish(1, entries)
	c := NewClient(e.loop, e.net, e.dir, e.disc, e.fleet, "app", e.ks, "near", Options{MaxAttempts: 3})
	e.loop.RunFor(time.Second)
	e.killServer("near-srv")

	sent := e.net.Messages
	for i := 0; i < 20; i++ {
		res := do(t, e, c, "abc", false)
		want := 1
		if i == 0 {
			want = 2
		}
		if !res.OK || res.Server != "far-srv" || res.Attempts != want {
			t.Fatalf("read %d under v1: %+v, want far-srv in %d attempts", i, res, want)
		}
	}
	if got := e.net.Messages - sent; got != 21 {
		t.Fatalf("20 reads under v1 sent %d messages, want 21: one probe of near-srv, then far-srv only", got)
	}

	// "zebra" is in s2, whose only replica and primary is the suspect.
	for _, write := range []bool{false, true} {
		sent = e.net.Messages
		res := do(t, e, c, "zebra", write)
		if res.Err != "unreachable" || res.RejectedBy != "near-srv" || e.net.Messages-sent != 2 {
			t.Fatalf("write=%v to the suspect's only replica: %+v after %d messages, want unreachable from near-srv after 2",
				write, res, e.net.Messages-sent)
		}
	}

	e.publish(2, entries)
	e.loop.RunFor(time.Second)
	if c.MapVersion() != 2 {
		t.Fatalf("map version = %d, want 2", c.MapVersion())
	}
	for i, want := range []int{2, 1} {
		if res := do(t, e, c, "abc", false); !res.OK || res.Server != "far-srv" || res.Attempts != want {
			t.Fatalf("read %d under v2: %+v, want far-srv in %d attempts", i, res, want)
		}
	}
}

func TestNoMapFailsAfterRetries(t *testing.T) {
	e := newEnv(t)
	c := e.client("near")
	res := do(t, e, c, "abc", false)
	if res.OK || res.Err != "no-replica" {
		t.Fatalf("res = %+v", res)
	}
	if res.Attempts != DefaultOptions().MaxAttempts {
		t.Fatalf("attempts = %d", res.Attempts)
	}
}

func TestStaleMapRetriesAndRecovers(t *testing.T) {
	e := newEnv(t)
	old := e.addServer("old", "near")
	newer := e.addServer("new", "near")
	old.AddShard("s1", shard.RolePrimary, 1)
	e.publish(1, map[shard.ID][]shard.Assignment{
		"s1": {{Server: "old", Role: shard.RolePrimary}},
	})
	c := e.client("near")
	e.loop.RunFor(time.Second)
	// Non-graceful move: old drops, new adds, map updated. The client
	// still has v1 when it first sends; retry after map refresh works.
	old.DropShard("s1")
	newer.AddShard("s1", shard.RolePrimary, 1)
	e.publish(2, map[shard.ID][]shard.Assignment{
		"s1": {{Server: "new", Role: shard.RolePrimary}},
	})
	res := do(t, e, c, "abc", true)
	if !res.OK || res.Server != "new" {
		t.Fatalf("res = %+v", res)
	}
	if c.MapVersion() != 2 {
		t.Fatalf("map version = %d", c.MapVersion())
	}
}

func TestWriteToSecondaryOnlyMapFails(t *testing.T) {
	e := newEnv(t)
	srv := e.addServer("srv", "near")
	srv.AddShard("s1", shard.RoleSecondary, 1)
	e.publish(1, map[shard.ID][]shard.Assignment{
		"s1": {{Server: "srv", Role: shard.RoleSecondary}},
	})
	c := e.client("near")
	e.loop.RunFor(time.Second)
	res := do(t, e, c, "abc", true)
	if res.OK {
		t.Fatalf("write succeeded with no primary: %+v", res)
	}
}

func TestHasMapAndUpdates(t *testing.T) {
	e := newEnv(t)
	c := e.client("near")
	if c.MapVersion() != 0 {
		t.Fatal("client should start without a map")
	}
	e.publish(3, map[shard.ID][]shard.Assignment{})
	e.loop.RunFor(time.Second)
	if c.MapVersion() != 3 || c.MapUpdates != 1 {
		t.Fatalf("map state: v=%d updates=%d", c.MapVersion(), c.MapUpdates)
	}
}

func TestKeyRoutesToCorrectShard(t *testing.T) {
	e := newEnv(t)
	a := e.addServer("a", "near")
	b := e.addServer("b", "near")
	a.AddShard("s1", shard.RolePrimary, 1)
	b.AddShard("s2", shard.RolePrimary, 1)
	e.publish(1, map[shard.ID][]shard.Assignment{
		"s1": {{Server: "a", Role: shard.RolePrimary}},
		"s2": {{Server: "b", Role: shard.RolePrimary}},
	})
	c := e.client("near")
	e.loop.RunFor(time.Second)
	if res := do(t, e, c, "apple", true); res.Server != "a" {
		t.Fatalf("apple routed to %s", res.Server)
	}
	if res := do(t, e, c, "zebra", true); res.Server != "b" {
		t.Fatalf("zebra routed to %s", res.Server)
	}
}
