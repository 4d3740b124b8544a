package routing

import (
	"fmt"
	"testing"
	"time"

	"shardmanager/internal/appserver"
	"shardmanager/internal/discovery"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

func TestForwardedRequestCountsHops(t *testing.T) {
	e := newEnv(t)
	old := e.addServer("old", "near")
	newer := e.addServer("new", "far")
	old.AddShard("s1", shard.RolePrimary, 1)
	newer.PrepareAddShard("s1", "old", shard.RolePrimary, 1)
	old.PrepareDropShard("s1", "new", shard.RolePrimary)
	e.publish(1, map[shard.ID][]shard.Assignment{
		"s1": {{Server: "old", Role: shard.RolePrimary}},
	})
	c := e.client("near")
	e.loop.RunFor(time.Second)
	res := do(t, e, c, "abc", true)
	if !res.OK || res.Hops != 1 || res.Server != "new" {
		t.Fatalf("res = %+v", res)
	}
	// The forwarding adds cross-region hops: near->old(near)->new(far)
	// ->old(near)->client: at least 2x60ms on top of local RTT.
	if res.Latency < 120*time.Millisecond {
		t.Fatalf("forwarded latency = %v", res.Latency)
	}
}

func TestMaxAttemptsOptionRespected(t *testing.T) {
	e := newEnv(t)
	opts := Options{MaxAttempts: 2}
	c := NewClient(e.loop, e.net, e.dir, e.disc, e.fleet, "app", e.ks, "near", opts)
	res := do(t, e, c, "abc", false)
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
}

func TestDefaultsAppliedForZeroOptions(t *testing.T) {
	e := newEnv(t)
	c := NewClient(e.loop, e.net, e.dir, e.disc, e.fleet, "app", e.ks, "near", Options{})
	res := do(t, e, c, "abc", false)
	if res.Attempts != 4 {
		t.Fatalf("attempts = %d, want default 4", res.Attempts)
	}
}

func TestRetrySucceedsWhenServerRecovers(t *testing.T) {
	e := newEnv(t)
	srv := e.addServer("srv", "near")
	srv.AddShard("s1", shard.RolePrimary, 1)
	e.publish(1, map[shard.ID][]shard.Assignment{
		"s1": {{Server: "srv", Role: shard.RolePrimary}},
	})
	c := e.client("near")
	e.loop.RunFor(time.Second)
	// Take the server down, issue a request, revive the server before
	// the retries run out.
	e.net.Unregister("srv")
	var res Result
	gotIt := false
	c.Do("abc", true, "op", nil, func(r Result) { res = r; gotIt = true })
	e.loop.AfterL(300*time.Millisecond, 0, func() {
		e.net.Register("srv", "near")
	})
	e.loop.RunFor(time.Minute)
	if !gotIt || !res.OK {
		t.Fatalf("res = %+v", res)
	}
	if res.Attempts < 2 {
		t.Fatalf("attempts = %d, want retries", res.Attempts)
	}
}

func TestReadSpreadsAcrossEquidistantReplicas(t *testing.T) {
	e := newEnv(t)
	a := e.addServer("a", "near")
	b := e.addServer("b", "near")
	a.AddShard("s1", shard.RoleSecondary, 1)
	b.AddShard("s1", shard.RoleSecondary, 1)
	e.publish(1, map[shard.ID][]shard.Assignment{
		"s1": {{Server: "a", Role: shard.RoleSecondary}, {Server: "b", Role: shard.RoleSecondary}},
	})
	c := e.client("near")
	e.loop.RunFor(time.Second)
	counts := map[shard.ServerID]int{}
	for i := 0; i < 60; i++ {
		res := do(t, e, c, "abc", false)
		counts[res.Server]++
	}
	if counts["a"] == 0 || counts["b"] == 0 {
		t.Fatalf("reads not spread: %v", counts)
	}
}

func TestServerGoneFromDirectoryFails(t *testing.T) {
	e := newEnv(t)
	srv := e.addServer("srv", "near")
	srv.AddShard("s1", shard.RolePrimary, 1)
	e.publish(1, map[shard.ID][]shard.Assignment{
		"s1": {{Server: "srv", Role: shard.RolePrimary}},
	})
	c := e.client("near")
	e.loop.RunFor(time.Second)
	// Reachable on the network but missing from the directory (process
	// replaced): the client sees server-gone and retries to failure.
	e.dir.Remove("srv")
	res := do(t, e, c, "abc", true)
	if res.OK {
		t.Fatalf("res = %+v", res)
	}
}

// BenchmarkClientRequestRoundTrip drives the request path alone — Do, the
// request leg, Serve, the reply leg, done — one request at a time on an
// otherwise idle loop. allocs/op includes the benchmark's own done closure
// and okApp's payload; TestRequestPathAllocationFree is the gate with both
// taken out. The two-shard world keeps every lookup in cache; the
// 3k-shards-120-servers world is steady_serving's shape — a range keyspace
// like experiments.KeyspaceFor, three replicas, one per region — with the key
// drawn at random for each request, so that what a request has to find (the
// shard of the key, its replicas, their endpoints, servers and replica
// records) is as cold as it is in a deployment.
func BenchmarkClientRequestRoundTrip(b *testing.B) {
	e := newEnv(b)
	e.addServer("srv", "near").AddShard("s1", shard.RolePrimary, 1)
	e.dir.Lookup("srv").AddShard("s2", shard.RolePrimary, 1)
	e.addServer("sec1", "near").AddShard("s1", shard.RoleSecondary, 1)
	e.addServer("sec2", "near").AddShard("s1", shard.RoleSecondary, 1)
	e.publish(1, map[shard.ID][]shard.Assignment{
		"s1": {{Server: "srv", Role: shard.RolePrimary}, {Server: "sec1", Role: shard.RoleSecondary}, {Server: "sec2", Role: shard.RoleSecondary}},
		"s2": {{Server: "srv", Role: shard.RolePrimary}},
	})
	c := e.client("near")
	e.loop.RunFor(time.Second)
	roundTrip := func(b *testing.B, c *Client, loop *sim.Loop, write bool, key func() string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ok := false
			c.Do(key(), write, "op", nil, func(r Result) { ok = r.OK })
			loop.RunFor(time.Second)
			if !ok {
				b.Fatal("request failed")
			}
		}
	}
	b.Run("write-1-replica", func(b *testing.B) { roundTrip(b, c, e.loop, true, func() string { return "xyz" }) })
	b.Run("read-3-replicas", func(b *testing.B) { roundTrip(b, c, e.loop, false, func() string { return "abc" }) })

	big, keys := newSteadyWorld(b)
	bc := NewClient(big.loop, big.net, big.dir, big.disc, big.fleet, "app", big.ks, "prn", DefaultOptions())
	big.loop.RunFor(time.Second)
	in := sim.NewRNG(5)
	randomKey := func() string { return keys[in.Intn(len(keys))] }
	b.Run("world=3k-shards-120-servers/write", func(b *testing.B) { roundTrip(b, bc, big.loop, true, randomKey) })
	b.Run("world=3k-shards-120-servers/read", func(b *testing.B) { roundTrip(b, bc, big.loop, false, randomKey) })
}

// newSteadyWorld builds bench's steady_serving deployment by hand: 3,000
// range shards "sNNNNN", 40 servers in each of three regions, every shard with
// one replica per region and its primary rotating over them. It returns one
// key per shard.
func newSteadyWorld(t testing.TB) (*env, []string) {
	const shards, perRegion = 3000, 40
	regions := []topology.RegionID{"frc", "prn", "odn"}
	fleet := topology.Build(topology.Spec{
		Regions: regions, MachinesPerRegion: perRegion,
		Latency: map[[2]topology.RegionID]time.Duration{
			{"frc", "prn"}: 35 * time.Millisecond, {"frc", "odn"}: 45 * time.Millisecond, {"prn", "odn"}: 80 * time.Millisecond,
		},
	})
	loop := sim.NewLoop(7)
	e := &env{loop: loop, fleet: fleet, net: rpcnet.NewNetwork(loop, fleet), dir: appserver.NewDirectory(),
		disc: discovery.NewService(loop, discovery.FixedDelay(100*time.Millisecond))}
	servers := make([][]*appserver.Server, len(regions))
	for r, region := range regions {
		for i := 0; i < perRegion; i++ {
			servers[r] = append(servers[r], e.addServer(shard.ServerID(fmt.Sprintf("%s/srv%02d", region, i)), region))
		}
	}
	ids, starts, keys := make([]shard.ID, shards), make([]string, shards), make([]string, shards)
	entries := make(map[shard.ID][]shard.Assignment, shards)
	for i := range ids {
		ids[i] = shard.ID(fmt.Sprintf("s%05d", i))
		if i > 0 {
			starts[i] = string(ids[i])
		}
		keys[i] = string(ids[i]) + "/key"
		for r := range regions {
			srv, role := servers[r][(i+7*r)%perRegion], shard.RoleSecondary
			if r == i%len(regions) {
				role = shard.RolePrimary
			}
			srv.AddShard(ids[i], role, 1)
			entries[ids[i]] = append(entries[ids[i]], shard.Assignment{Server: srv.ID, Role: role})
		}
	}
	ks, err := shard.NewKeyspace(ids, starts)
	if err != nil {
		t.Fatal(err)
	}
	e.ks = ks
	e.publish(1, entries)
	return e, keys
}

// backoff is the un-jittered wait before retry k (k = 1 is the first retry).
func backoff(k int) time.Duration {
	return min(retryBase<<(k-1), retryCap)
}

func TestRetryBackoffIsExponentialAndCapped(t *testing.T) {
	e := newEnv(t)
	// No map ever arrives, so every attempt fails instantly with no-replica
	// and the request's total latency is exactly the sum of retry waits.
	const attempts = 8 // 200ms, 400ms, ... 3.2s, then capped at 5s twice
	c := NewClient(e.loop, e.net, e.dir, e.disc, e.fleet, "app", e.ks, "near", Options{MaxAttempts: attempts})
	var sum time.Duration
	for k := 1; k < attempts; k++ {
		d, got := backoff(k), c.retryDelay(k)
		if got < d || got > d+d/5 {
			t.Errorf("wait before retry %d = %v, want within [%v, %v]", k, got, d, d+d/5)
		}
		sum += d
	}
	if backoff(attempts-2) != retryCap || backoff(attempts-3) >= retryCap {
		t.Fatalf("%d attempts do not reach the cap twice", attempts)
	}
	res := do(t, e, c, "abc", false)
	if res.OK || res.Attempts != attempts {
		t.Fatalf("res = %+v", res)
	}
	if res.Latency < sum || res.Latency > sum+sum/5 {
		t.Fatalf("total retry latency = %v, want within [%v, %v]", res.Latency, sum, sum+sum/5)
	}
}

func TestRetryJitterBoundedAndDeterministic(t *testing.T) {
	run := func() time.Duration {
		e := newEnv(t)
		c := NewClient(e.loop, e.net, e.dir, e.disc, e.fleet, "app", e.ks, "near", DefaultOptions())
		return do(t, e, c, "abc", false).Latency
	}
	lat := run()
	base := backoff(1) + backoff(2) + backoff(3)
	if lat <= base || lat > base+base/5 {
		t.Fatalf("jittered retry latency %v outside (%v, %v]", lat, base, base+base/5)
	}
	if again := run(); again != lat {
		t.Fatalf("same seed gave different retry schedules: %v vs %v", lat, again)
	}
}
