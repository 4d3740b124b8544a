package appserver

import (
	"testing"
	"time"

	"shardmanager/internal/cluster"
	"shardmanager/internal/coord"
	"shardmanager/internal/shard"
)

// fencedHost builds a one-container host world and returns the host, its
// coordination store, and the single live server holding sh1 as primary.
func fencedHost(t *testing.T) (*testEnv, *Host, *coord.Store, *Server) {
	t.Helper()
	env := newEnv()
	store := coord.NewStore()
	mgr := cluster.NewManager(env.loop, env.fleet, "a", cluster.DefaultOptions())
	host := NewHost(env.loop, env.net, env.dir, store, env.fleet, "app", "job", func(s *Server) Application {
		return newEchoApp()
	})
	mgr.AddListener(host)
	mgr.CreateJob("job", 1)
	env.loop.RunFor(time.Minute)
	id := host.ServerIDs()[0]
	srv := host.Server(id)
	if srv == nil {
		t.Fatal("server not started")
	}
	srv.AddShard("sh1", shard.RolePrimary, 1)
	return env, host, store, srv
}

// TestFenceOnSessionExpiryBeforeFailoverGrace is the lease-expiry half of
// the dual-primary fix: a primary whose coordination session expires must
// self-fence within FenceDelay — below the orchestrator's promote hold and
// so below every failover grace, by a compile-time assertion in
// internal/orchestrator — so by the time a successor can be promoted, the
// false-dead server has provably stopped serving.
func TestFenceOnSessionExpiryBeforeFailoverGrace(t *testing.T) {
	env, host, _, srv := fencedHost(t)
	id := srv.ID

	resp := serve(t, env, srv, &Request{Shard: "sh1", Key: "k", Write: true})
	if !resp.OK {
		t.Fatalf("write before expiry rejected: %+v", resp)
	}

	// Expire the session; the process stays alive (false-dead) and would
	// keep serving forever without self-fencing.
	if !host.ExpireSession(id, time.Minute) {
		t.Fatal("ExpireSession returned false")
	}
	if srv.fenced {
		t.Fatal("server fenced instantly; the fence must wait FenceDelay")
	}
	env.loop.RunFor(FenceDelay + 100*time.Millisecond)
	if !srv.fenced {
		t.Fatalf("server not fenced %v after session expiry", FenceDelay)
	}
	resp = serve(t, env, srv, &Request{Shard: "sh1", Key: "k", Write: true})
	if resp.OK || resp.Err != "fenced" {
		t.Fatalf("write on fenced primary = %+v, want fenced rejection", resp)
	}
}

// TestSyncAssignmentLiftsFence proves only an authoritative sync unfences:
// the orchestrator reconciles the rejoined server's replica set at a fresh
// generation, after which the primary serves again.
func TestSyncAssignmentLiftsFence(t *testing.T) {
	env, host, store, srv := fencedHost(t)
	host.ExpireSession(srv.ID, time.Minute)
	env.loop.RunFor(FenceDelay + 100*time.Millisecond)
	if !srv.fenced {
		t.Fatal("server not fenced after expiry")
	}

	// A grant from before the fence (stale generation) must not unfence or
	// apply: the lease it rode on is already lost.
	if err := srv.ChangeRole("sh1", shard.RolePrimary, shard.RoleSecondary, srv.fenceGen); err == nil {
		t.Fatal("stale role grant accepted on fenced server")
	}

	gen := store.NextEpoch()
	srv.SyncAssignment(map[shard.ID]shard.Role{"sh1": shard.RolePrimary}, nil, gen)
	if srv.fenced {
		t.Fatal("authoritative sync did not lift the fence")
	}
	resp := serve(t, env, srv, &Request{Shard: "sh1", Key: "k", Write: true})
	if !resp.OK {
		t.Fatalf("write after sync rejected: %+v", resp)
	}
}

// TestReconnectedSessionDisarmsStaleFence pins the fence-arming race: the
// fence timer of an expired session must not fire after the server already
// reconnected with a fresh session (the new lease is live; fencing it would
// be a spurious outage).
func TestReconnectedSessionDisarmsStaleFence(t *testing.T) {
	env, host, _, srv := fencedHost(t)
	// Reconnect after 1s, well inside the 2s fence delay.
	host.ExpireSession(srv.ID, time.Second)
	env.loop.RunFor(FenceDelay + time.Second)
	if srv.fenced {
		t.Fatal("fence fired for a session that already reconnected")
	}
	resp := serve(t, env, srv, &Request{Shard: "sh1", Key: "k", Write: true})
	if !resp.OK {
		t.Fatalf("write after reconnect rejected: %+v", resp)
	}
}

// A rejoin sync is built from the orchestrator's view at its generation, and
// a grant the orchestrator issues after it can reach the server first. The
// sync must not undo it: a replica granted at a newer generation is neither
// dropped nor re-roled by an older sync, and a replica dropped after such a
// grant is not added back. Each step's generation is the order the
// orchestrator drew them in; the server sees them out of that order.

// TestOlderSyncKeepsNewerAddShard: add_shard at gen 11 lands before a sync
// built at gen 10 without the shard; the replica stays active.
func TestOlderSyncKeepsNewerAddShard(t *testing.T) {
	env := newEnv()
	srv := env.server("s1", "a", newEchoApp())
	srv.AddShard("sh1", shard.RoleSecondary, 11)
	srv.SyncAssignment(map[shard.ID]shard.Role{}, nil, 10)
	if !srv.HoldsActive("sh1") {
		t.Fatal("a sync at gen 10 dropped the replica granted at gen 11")
	}
	// A sync newer than the grant still corrects the server.
	srv.SyncAssignment(map[shard.ID]shard.Role{}, nil, 12)
	if srv.HoldsActive("sh1") {
		t.Fatal("a sync at gen 12 kept a replica its view does not list")
	}
}

// TestOlderSyncKeepsNewerChangeRole: change_role at gen 11 lands before a sync
// built at gen 10 that still names the old role; the new role stays.
func TestOlderSyncKeepsNewerChangeRole(t *testing.T) {
	env := newEnv()
	srv := env.server("s1", "a", newEchoApp())
	srv.AddShard("sh1", shard.RoleSecondary, 5)
	if err := srv.ChangeRole("sh1", shard.RoleSecondary, shard.RolePrimary, 11); err != nil {
		t.Fatal(err)
	}
	srv.SyncAssignment(map[shard.ID]shard.Role{"sh1": shard.RoleSecondary}, nil, 10)
	if role := srv.Shards()["sh1"]; role != shard.RolePrimary {
		t.Fatalf("a sync at gen 10 re-roled the replica granted primary at gen 11 to %v", role)
	}
}

// TestOlderSyncDoesNotReAddDroppedReplica: the converse. A replica granted at
// gen 11 and then dropped must not come back from a sync built at gen 10 that
// still lists it, nor one a sync at gen 13 dropped from a sync at gen 12; a
// replica whose last grant is older than the sync does come back.
func TestOlderSyncDoesNotReAddDroppedReplica(t *testing.T) {
	env := newEnv()
	srv := env.server("s1", "a", newEchoApp())
	srv.AddShard("sh1", shard.RoleSecondary, 11)
	srv.DropShard("sh1")
	srv.SyncAssignment(map[shard.ID]shard.Role{"sh1": shard.RoleSecondary}, nil, 10)
	if _, ok := srv.Shards()["sh1"]; ok {
		t.Fatal("a sync at gen 10 added back the replica dropped after its gen-11 grant")
	}
	srv.AddShard("sh2", shard.RoleSecondary, 3)
	srv.DropShard("sh2")
	srv.SyncAssignment(map[shard.ID]shard.Role{"sh2": shard.RoleSecondary}, nil, 10)
	if !srv.HoldsActive("sh2") {
		t.Fatal("a sync at gen 10 did not restore a replica last granted at gen 3")
	}
	// A sync's own drop is a decision at its generation too.
	srv.SyncAssignment(map[shard.ID]shard.Role{"sh2": shard.RoleSecondary}, nil, 12)
	srv.AddShard("sh3", shard.RoleSecondary, 11)
	srv.SyncAssignment(map[shard.ID]shard.Role{"sh2": shard.RoleSecondary}, nil, 13)
	srv.SyncAssignment(map[shard.ID]shard.Role{"sh2": shard.RoleSecondary, "sh3": shard.RoleSecondary}, nil, 12)
	if _, ok := srv.Shards()["sh3"]; ok {
		t.Fatal("a sync at gen 12 added back the replica a sync at gen 13 dropped")
	}
}
