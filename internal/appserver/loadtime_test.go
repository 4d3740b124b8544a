package appserver

import (
	"testing"
	"time"

	"shardmanager/internal/shard"
)

// These tests cover the shard state-load window (Server.LoadTime): a cold
// AddShard cannot serve until the load completes, while the graceful
// prepare path hides the load entirely.

func TestColdAddRejectsUntilLoaded(t *testing.T) {
	env := newEnv()
	s := env.server("s1", "a", newEchoApp())
	s.LoadTime = 5 * time.Second
	s.AddShard("sh1", shard.RolePrimary, 1)

	if s.HoldsActive("sh1") {
		t.Fatal("active immediately despite LoadTime")
	}
	resp := serve(t, env, s, &Request{Shard: "sh1", Write: true})
	if resp.OK || resp.Err != "loading" {
		t.Fatalf("resp during load = %+v", resp)
	}
	env.loop.RunFor(6 * time.Second)
	if !s.HoldsActive("sh1") {
		t.Fatal("not active after load window")
	}
	resp = serve(t, env, s, &Request{Shard: "sh1", Key: "k", Write: true})
	if !resp.OK {
		t.Fatalf("resp after load = %+v", resp)
	}
}

func TestPrepareThenAddActivatesInstantly(t *testing.T) {
	env := newEnv()
	s := env.server("s1", "a", newEchoApp())
	s.LoadTime = 5 * time.Second
	s.PrepareAddShard("sh1", "old", shard.RolePrimary, 1)
	env.loop.RunFor(6 * time.Second) // load completes during prepare
	// add_shard after a completed prepare is instant (§4.3 step 3).
	s.AddShard("sh1", shard.RolePrimary, 1)
	if !s.HoldsActive("sh1") {
		t.Fatal("prepared replica not active immediately after AddShard")
	}
}

func TestAddDuringPrepareLoadActivatesWhenLoaded(t *testing.T) {
	env := newEnv()
	s := env.server("s1", "a", newEchoApp())
	s.LoadTime = 5 * time.Second
	s.PrepareAddShard("sh1", "old", shard.RolePrimary, 1)
	env.loop.RunFor(time.Second)
	s.AddShard("sh1", shard.RolePrimary, 1) // arrives mid-load
	if s.HoldsActive("sh1") {
		t.Fatal("active before load completed")
	}
	env.loop.RunFor(5 * time.Second)
	if !s.HoldsActive("sh1") {
		t.Fatal("not active after load completed")
	}
}

func TestPreparedReplicaServesForwardedAfterLoad(t *testing.T) {
	env := newEnv()
	s := env.server("s1", "a", newEchoApp())
	s.LoadTime = 2 * time.Second
	s.PrepareAddShard("sh1", "old", shard.RolePrimary, 1)
	// During the load even forwarded requests are rejected...
	resp := serve(t, env, s, &Request{Shard: "sh1", Write: true, Forwarded: true})
	if resp.OK {
		t.Fatal("served forwarded request while loading")
	}
	env.loop.RunFor(3 * time.Second)
	// ...after it, forwarded requests are served, direct ones are not.
	resp = serve(t, env, s, &Request{Shard: "sh1", Key: "k", Write: true, Forwarded: true})
	if !resp.OK {
		t.Fatalf("forwarded after load = %+v", resp)
	}
	resp = serve(t, env, s, &Request{Shard: "sh1", Write: true})
	if resp.OK || resp.Err != "preparing" {
		t.Fatalf("direct during prepare = %+v", resp)
	}
}

func TestDropDuringLoadCancelsActivation(t *testing.T) {
	env := newEnv()
	app := newEchoApp()
	s := env.server("s1", "a", app)
	s.LoadTime = 5 * time.Second
	s.AddShard("sh1", shard.RolePrimary, 1)
	env.loop.RunFor(time.Second)
	s.DropShard("sh1")
	env.loop.RunFor(10 * time.Second)
	if len(s.Shards()) != 0 {
		t.Fatal("dropped shard reappeared after load timer")
	}
	resp := serve(t, env, s, &Request{Shard: "sh1"})
	if resp.OK {
		t.Fatal("dropped shard serving")
	}
}

func TestReAddDuringLoadUsesFreshGeneration(t *testing.T) {
	env := newEnv()
	s := env.server("s1", "a", newEchoApp())
	s.LoadTime = 5 * time.Second
	s.AddShard("sh1", shard.RolePrimary, 1)
	env.loop.RunFor(time.Second)
	s.DropShard("sh1")
	s.AddShard("sh1", shard.RolePrimary, 1) // second incarnation
	// The first load timer (t=5s) must not activate the second
	// incarnation early; only the second timer (t=6s) may.
	env.loop.RunFor(4*time.Second + 500*time.Millisecond) // t=5.5s
	if s.HoldsActive("sh1") {
		t.Fatal("stale load timer activated the new incarnation")
	}
	env.loop.RunFor(time.Second) // t=6.5s
	if !s.HoldsActive("sh1") {
		t.Fatal("second incarnation never activated")
	}
}

func TestZeroLoadTimeIsInstant(t *testing.T) {
	env := newEnv()
	s := env.server("s1", "a", newEchoApp())
	s.AddShard("sh1", shard.RoleSecondary, 1)
	if !s.HoldsActive("sh1") {
		t.Fatal("zero LoadTime should activate immediately")
	}
}
