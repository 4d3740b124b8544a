package routing

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"shardmanager/internal/appserver"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// TestEveryTerminalPathCompletesOnce drives a request down each way one can
// end and checks that done ran exactly once per Do, with the Result (and the
// number of messages sent) the closure-based client of the commit before the
// pooled call record produced for the same scenario: the want columns were
// recorded from it.
func TestEveryTerminalPathCompletesOnce(t *testing.T) {
	primary := func(srv shard.ServerID) []shard.Assignment {
		return []shard.Assignment{{Server: srv, Role: shard.RolePrimary}}
	}
	ok := func(server shard.ServerID, latency time.Duration) Result {
		return Result{OK: true, Payload: "v:abc", Latency: latency, Attempts: 1,
			Server: server, Shard: "s1", MapVersion: 1}
	}
	failed := func(err string, by shard.ServerID, attempts int, latency time.Duration) Result {
		return Result{Err: err, Latency: latency, Attempts: attempts,
			Shard: "s1", RejectedBy: by, MapVersion: 1}
	}
	rows := []struct {
		name string
		// servers builds the world; s1's replicas are then published as
		// version 1 and delivered to a client in "near"; after changes the
		// world behind the client's back.
		servers  func(e *env)
		replicas []shard.Assignment
		after    func(e *env)
		// attempts overrides MaxAttempts (0 = the default 4). A request with
		// one candidate sends nothing on every second attempt (ROADMAP
		// finding 2(f)), so the failing rows use 3 to end on the real error.
		attempts int
		read     bool
		// follow is how many further requests done issues synchronously, one
		// per completion; between runs before each of them.
		follow  int
		between func(e *env)
		// early creates the client before version 1 is published.
		early    bool
		want     []Result
		messages int64
	}{
		{
			name:     "success",
			servers:  func(e *env) { e.addServer("p", "near").AddShard("s1", shard.RolePrimary, 1) },
			replicas: primary("p"),
			want:     []Result{ok("p", 2*time.Millisecond)},
			messages: 1,
		},
		{
			name: "not-owner, refresh, retry, success",
			servers: func(e *env) {
				e.addServer("old", "near").AddShard("s1", shard.RolePrimary, 1)
				e.addServer("new", "near")
			},
			replicas: primary("old"),
			after: func(e *env) {
				e.dir.Lookup("old").DropShard("s1")
				e.dir.Lookup("new").AddShard("s1", shard.RolePrimary, 1)
				e.publish(2, map[shard.ID][]shard.Assignment{"s1": primary("new")})
			},
			want:     []Result{{OK: true, Payload: "v:abc", Latency: 208769456, Attempts: 2, Server: "new", Shard: "s1", MapVersion: 2}},
			messages: 2,
		},
		{
			name:     "server killed after the map arrived, default attempts",
			servers:  func(e *env) { e.addServer("srv", "near").AddShard("s1", shard.RolePrimary, 1) },
			replicas: primary("srv"),
			after:    func(e *env) { e.killServer("srv") },
			want:     []Result{failed("no-replica", "", 4, 3566166290)},
			messages: 2,
		},
		{
			name:     "server killed after the map arrived",
			servers:  func(e *env) { e.addServer("srv", "near").AddShard("s1", shard.RolePrimary, 1) },
			replicas: primary("srv"),
			after:    func(e *env) { e.killServer("srv") },
			attempts: 3,
			want:     []Result{failed("unreachable", "srv", 3, 2623947949)},
			messages: 2,
		},
		{
			name:     "reply leg lost on a faulted link",
			servers:  func(e *env) { e.addServer("srv", "far").AddShard("s1", shard.RolePrimary, 1) },
			replicas: primary("srv"),
			after:    func(e *env) { e.net.SetLinkFault("far", "near", rpcnet.LinkFault{DropProb: 1}) },
			attempts: 3,
			want:     []Result{failed("reply-lost", "srv", 3, 2743947949)},
			messages: 2,
		},
		{
			name: "forwarding hop",
			servers: func(e *env) {
				e.addServer("old", "near").AddShard("s1", shard.RolePrimary, 1)
				e.addServer("new", "far").PrepareAddShard("s1", "old", shard.RolePrimary, 1)
				e.dir.Lookup("old").PrepareDropShard("s1", "new", shard.RolePrimary)
			},
			replicas: primary("old"),
			want:     []Result{{OK: true, Payload: "v:abc", Latency: 122 * time.Millisecond, Attempts: 1, Hops: 1, Server: "new", Shard: "s1", MapVersion: 1}},
			messages: 3,
		},
		{
			name: "forwarded, then rejected by the deeper server",
			servers: func(e *env) {
				e.addServer("old", "near").AddShard("s1", shard.RolePrimary, 1)
				e.addServer("new", "far")
				e.dir.Lookup("old").PrepareDropShard("s1", "new", shard.RolePrimary)
			},
			replicas: primary("old"),
			attempts: 3,
			want:     []Result{failed("not-owner", "new", 3, 867947949)},
			messages: 6,
		},
		{
			name:     "server gone from the directory",
			servers:  func(e *env) { e.addServer("srv", "near").AddShard("s1", shard.RolePrimary, 1) },
			replicas: primary("srv"),
			after:    func(e *env) { e.dir.Remove("srv") },
			attempts: 3,
			want:     []Result{failed("server-gone", "srv", 3, 625947949)},
			messages: 2,
		},
		{
			name: "gray failure: serve delay",
			servers: func(e *env) {
				srv := e.addServer("srv", "near")
				srv.AddShard("s1", shard.RolePrimary, 1)
				srv.SetServeDelay(300 * time.Millisecond)
			},
			replicas: primary("srv"),
			want:     []Result{ok("srv", 302*time.Millisecond)},
			messages: 1,
		},
		{
			name: "read fails over to the far replica",
			servers: func(e *env) {
				e.addServer("near-srv", "near").AddShard("s1", shard.RoleSecondary, 1)
				e.addServer("far-srv", "far").AddShard("s1", shard.RoleSecondary, 1)
			},
			replicas: []shard.Assignment{
				{Server: "near-srv", Role: shard.RoleSecondary}, {Server: "far-srv", Role: shard.RoleSecondary}},
			after:    func(e *env) { e.killServer("near-srv") },
			read:     true,
			want:     []Result{{OK: true, Payload: "v:abc", Latency: 1324769456, Attempts: 2, Server: "far-srv", Shard: "s1", MapVersion: 1}},
			messages: 2,
		},
		{
			name:     "done issues the next request synchronously",
			servers:  func(e *env) { e.addServer("p", "near").AddShard("s1", shard.RolePrimary, 1) },
			replicas: primary("p"),
			follow:   2,
			want:     []Result{ok("p", 2*time.Millisecond), ok("p", 2*time.Millisecond), ok("p", 2*time.Millisecond)},
			messages: 3,
		},
		// The rows below hold what the client keeps per name across requests:
		// their want columns were recorded from the by-name client of the
		// commit before the handles.
		{
			name:     "server restarted under the same ID, in another region, between two requests",
			servers:  func(e *env) { e.addServer("srv", "near").AddShard("s1", shard.RolePrimary, 1) },
			replicas: primary("srv"),
			follow:   1,
			between: func(e *env) {
				e.killServer("srv")
				e.addServerApp("srv", "far", tagApp{tag: "restarted:"}).AddShard("s1", shard.RolePrimary, 1)
			},
			want: []Result{ok("srv", 2*time.Millisecond),
				{OK: true, Payload: "restarted:abc", Latency: 120 * time.Millisecond, Attempts: 1, Server: "srv", Shard: "s1", MapVersion: 1}},
			messages: 2,
		},
		{
			name:    "endpoint first seen unregistered, then registered",
			servers: func(e *env) { e.addServer("far-srv", "far").AddShard("s1", shard.RoleSecondary, 1) },
			replicas: []shard.Assignment{
				{Server: "ghost", Role: shard.RoleSecondary}, {Server: "far-srv", Role: shard.RoleSecondary}},
			read:   true,
			follow: 1,
			between: func(e *env) {
				e.addServer("ghost", "near").AddShard("s1", shard.RoleSecondary, 1)
				e.publish(2, map[shard.ID][]shard.Assignment{"s1": {
					{Server: "ghost", Role: shard.RoleSecondary}, {Server: "far-srv", Role: shard.RoleSecondary}}})
				e.loop.RunFor(time.Second)
			},
			// Unregistered, "ghost" is a default WAN hop away (40ms, closer
			// than far-srv's 60ms): picked, unreachable, retried on far-srv.
			// Registered in "near" it is 1ms away, and once a newer map lifts
			// its suspicion it serves.
			want: []Result{
				{OK: true, Payload: "v:abc", Latency: 1324769456, Attempts: 2, Server: "far-srv", Shard: "s1", MapVersion: 1},
				{OK: true, Payload: "v:abc", Latency: 2 * time.Millisecond, Attempts: 1, Server: "ghost", Shard: "s1", MapVersion: 2}},
			messages: 3,
		},
		{
			name:    "endpoint registered after it was found unreachable, same map",
			servers: func(e *env) { e.addServer("far-srv", "far").AddShard("s1", shard.RoleSecondary, 1) },
			replicas: []shard.Assignment{
				{Server: "ghost", Role: shard.RoleSecondary}, {Server: "far-srv", Role: shard.RoleSecondary}},
			read:   true,
			follow: 1,
			between: func(e *env) {
				e.addServer("ghost", "near").AddShard("s1", shard.RoleSecondary, 1)
			},
			// Still under version 1, "ghost" is suspect: the second read goes
			// straight to far-srv. Recorded from the client that keeps the
			// mark; the by-name client sent it to "ghost".
			want: []Result{
				{OK: true, Payload: "v:abc", Latency: 1324769456, Attempts: 2, Server: "far-srv", Shard: "s1", MapVersion: 1},
				{OK: true, Payload: "v:abc", Latency: 120 * time.Millisecond, Attempts: 1, Server: "far-srv", Shard: "s1", MapVersion: 1}},
			messages: 3,
		},
		{
			name:     "client created before the first publish",
			servers:  func(e *env) { e.addServer("p", "near").AddShard("s1", shard.RolePrimary, 1) },
			replicas: primary("p"),
			early:    true,
			want:     []Result{ok("p", 2*time.Millisecond)},
			messages: 1,
		},
		{
			name: "request record reused after a forward",
			servers: func(e *env) {
				e.addServer("old", "near").AddShard("s1", shard.RolePrimary, 1)
				e.addServer("new", "far").PrepareAddShard("s1", "old", shard.RolePrimary, 1)
				e.dir.Lookup("old").PrepareDropShard("s1", "new", shard.RolePrimary)
			},
			replicas: primary("old"),
			follow:   1,
			// The hand-off completes between the two: the second request, on
			// the first one's record, is served where it lands.
			between: func(e *env) {
				e.dir.Lookup("old").DropShard("s1")
				e.dir.Lookup("new").AddShard("s1", shard.RolePrimary, 1)
				e.publish(2, map[shard.ID][]shard.Assignment{"s1": primary("new")})
				e.loop.RunFor(time.Second)
			},
			want: []Result{
				{OK: true, Payload: "v:abc", Latency: 122 * time.Millisecond, Attempts: 1, Hops: 1, Server: "new", Shard: "s1", MapVersion: 1},
				{OK: true, Payload: "v:abc", Latency: 120 * time.Millisecond, Attempts: 1, Server: "new", Shard: "s1", MapVersion: 2}},
			messages: 4,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := newEnv(t)
			row.servers(e)
			opts := DefaultOptions()
			if row.attempts > 0 {
				opts.MaxAttempts = row.attempts
			}
			var c *Client
			if row.early {
				c = NewClient(e.loop, e.net, e.dir, e.disc, e.fleet, "app", e.ks, "near", opts)
			}
			e.publish(1, map[shard.ID][]shard.Assignment{"s1": row.replicas})
			if !row.early {
				c = NewClient(e.loop, e.net, e.dir, e.disc, e.fleet, "app", e.ks, "near", opts)
			}
			e.loop.RunFor(time.Second)
			if row.after != nil {
				row.after(e)
			}
			var got []Result
			issued := 1
			var done func(Result)
			done = func(r Result) {
				got = append(got, r)
				if issued <= row.follow {
					issued++
					if row.between != nil {
						row.between(e)
					}
					c.Do("abc", !row.read, "op", nil, done)
				}
			}
			c.Do("abc", !row.read, "op", nil, done)
			e.loop.RunFor(time.Minute)
			if len(got) != len(row.want) {
				t.Fatalf("done ran %d times for %d requests: %+v", len(got), len(row.want), got)
			}
			// The want latencies were recorded on a network without jitter;
			// the fabric's stretches each hop by up to 10%.
			for i := range got {
				g, w := got[i], row.want[i]
				stretched := g.Latency >= w.Latency && g.Latency <= w.Latency+w.Latency/10
				g.Latency = w.Latency
				if g != w || !stretched {
					t.Errorf("request %d:\n got %+v\nwant %+v (latency up to 10%% more)", i, got[i], row.want[i])
				}
			}
			if e.net.Messages != row.messages {
				t.Errorf("messages delivered = %d, want %d", e.net.Messages, row.messages)
			}
			// One request at a time, and finish recycles before done runs,
			// so even the follow-up requests made one record do.
			if c.freeCalls == nil || c.freeCalls.next != nil || c.freeCalls.live {
				t.Errorf("free-list after the run = %+v, want exactly one idle record", c.freeCalls)
			}
		})
	}
}

// pickServerReference is pickServer as it was before the one-pass rewrite,
// with the suspect key added: collect the untried replicas, sort.Slice them
// by (suspect, latency, tie), take the first.
func pickServerReference(c *Client, s shard.ID, write bool, tried, suspect map[shard.ServerID]bool) (shard.ServerID, bool) {
	replicas := c.view.Replicas(s)
	if len(replicas) == 0 {
		return "", false
	}
	if write {
		for _, a := range replicas {
			if a.Role == shard.RolePrimary {
				if tried[a.Server] {
					return "", false
				}
				return a.Server, true
			}
		}
		return "", false
	}
	type cand struct {
		srv     shard.ServerID
		suspect bool
		lat     time.Duration
		tie     uint64
	}
	cands := make([]cand, 0, len(replicas))
	for _, a := range replicas {
		if tried[a.Server] {
			continue
		}
		lat := c.fleet.LatencyAt(c.region, c.fleet.RegionIndex(c.net.Region(rpcnet.Endpoint(a.Server))))
		cands = append(cands, cand{srv: a.Server, suspect: suspect[a.Server], lat: lat, tie: c.rng.Uint64()})
	}
	if len(cands) == 0 {
		return "", false
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].suspect != cands[j].suspect {
			return !cands[i].suspect
		}
		if cands[i].lat != cands[j].lat {
			return cands[i].lat < cands[j].lat
		}
		return cands[i].tie < cands[j].tie
	})
	return cands[0].srv, true
}

// TestPickServerMatchesSortingReference: over random replica sets (several
// servers per region, so latencies tie), roles, tried sets and suspect marks,
// the one-pass pickServer returns the reference's server and leaves the
// client's RNG where the reference leaves it — same draws, same order.
func TestPickServerMatchesSortingReference(t *testing.T) {
	e := newEnv(t)
	var servers []shard.ServerID
	for i := 0; i < 8; i++ {
		id := shard.ServerID(fmt.Sprintf("srv%d", i))
		e.addServer(id, []topology.RegionID{"near", "far"}[i%2])
		servers = append(servers, id)
	}
	c := e.client("near")
	in := sim.NewRNG(42)
	for version := int64(1); version <= 400; version++ {
		var replicas []shard.Assignment
		for _, i := range in.Perm(len(servers))[:in.Intn(7)] {
			role := shard.RoleSecondary
			if in.Intn(4) == 0 {
				role = shard.RolePrimary
			}
			replicas = append(replicas, shard.Assignment{Server: servers[i], Role: role})
		}
		e.publish(version, map[shard.ID][]shard.Assignment{"s1": replicas})
		e.loop.RunFor(time.Second)
		if c.MapVersion() != version {
			t.Fatalf("client at version %d, want %d", c.MapVersion(), version)
		}
		for round := 0; round < 4; round++ {
			var tried []shard.ServerID
			triedSet := map[shard.ServerID]bool{}
			for _, id := range servers {
				if in.Intn(3) == 0 {
					tried, triedSet[id] = append(tried, id), true
				}
			}
			write := in.Intn(3) == 0
			// pickServer takes what the request path has resolved: the shard's
			// cell and the tried servers' numbers. A tried server that is not
			// among the replicas has no bearing on either implementation.
			// Each replica's server carries a random mark: never, under the
			// previous generation (expired), or under the current one.
			var triedNums []uint32
			suspectSet := map[shard.ServerID]bool{}
			for _, r := range c.view.Replicas("s1") {
				if triedSet[r.Server] {
					triedNums = append(triedNums, r.Num)
				}
				c.resolve(r)
				mark := []int64{0, version - 1, version}[in.Intn(3)]
				c.servers[r.Num].suspect = mark
				suspectSet[r.Server] = mark == version
			}
			before := *c.rng
			wantSrv, wantOK := pickServerReference(c, "s1", write, triedSet, suspectSet)
			after := *c.rng
			*c.rng = before
			got, gotOK := c.pickServer(c.cells[e.ks.Locate("abc")], write, triedNums)
			if gotSrv := got.Server; gotSrv != wantSrv || gotOK != wantOK || *c.rng != after {
				t.Fatalf("version %d replicas %v tried %v suspect %v write %v: got (%q, %v), reference (%q, %v); same RNG state: %v",
					version, replicas, tried, suspectSet, write, got.Server, gotOK, wantSrv, wantOK, *c.rng == after)
			}
		}
	}
}

// TestCloserKeepsTheFirstOnAFullTie forces what the client's RNG cannot
// produce (splitmix64 never repeats a value within one scan): candidates
// equal in suspicion, latency and tie-break. Keeping the minimum under closer
// picks the candidate the reference's sort.Slice put first — the earliest —
// for the up to 12 candidates on which sort.Slice is a stable insertion sort.
func TestCloserKeepsTheFirstOnAFullTie(t *testing.T) {
	type cand struct {
		idx int
		rank
	}
	in := sim.NewRNG(7)
	for trial := 0; trial < 5000; trial++ {
		cands := make([]cand, 1+in.Intn(12))
		best := 0
		for i := range cands {
			cands[i] = cand{idx: i, rank: rank{suspect: in.Intn(2) == 0, lat: time.Duration(in.Intn(2)), tie: uint64(in.Intn(3))}}
			if cands[i].closer(cands[best].rank) {
				best = i
			}
		}
		sorted := append([]cand(nil), cands...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].suspect != sorted[j].suspect {
				return !sorted[i].suspect
			}
			if sorted[i].lat != sorted[j].lat {
				return sorted[i].lat < sorted[j].lat
			}
			return sorted[i].tie < sorted[j].tie
		})
		if sorted[0].idx != best {
			t.Fatalf("candidates %v: one pass keeps #%d, sort.Slice puts #%d first", cands, best, sorted[0].idx)
		}
	}
}

// tagApp answers with its tag, so that a Result says which incarnation of a
// server produced it.
type tagApp struct {
	okApp
	tag string
}

func (a tagApp) HandleRequest(req *appserver.Request, _ any) (any, error) {
	return a.tag + req.Key, nil
}

// quietApp serves without allocating, so the allocation gates below count
// only what routing, rpcnet and appserver do.
type quietApp struct{ okApp }

func (quietApp) HandleRequest(*appserver.Request, any) (any, error) { return nil, nil }

// TestRequestPathAllocationFree: after warm-up a request allocates nothing
// between Client.Do and the caller's done — the call record, rpcnet's
// envelopes and the kernel's events are all pooled, and every callback is
// static. The caller's done is built once, outside the measured function.
func TestRequestPathAllocationFree(t *testing.T) {
	e := newEnv(t)
	for _, s := range []struct {
		id     shard.ServerID
		region topology.RegionID
	}{{"a", "near"}, {"b", "near"}, {"c", "far"}, {"stale", "near"}} {
		e.addServerApp(s.id, s.region, quietApp{})
	}
	e.dir.Lookup("a").AddShard("s1", shard.RolePrimary, 1)
	e.dir.Lookup("b").AddShard("s1", shard.RoleSecondary, 1)
	e.dir.Lookup("c").AddShard("s1", shard.RoleSecondary, 1)
	// s2's map lists "stale", the closest replica, which never got the shard:
	// every read of s2 is rejected once ("not-owner") and retried on "c".
	e.dir.Lookup("c").AddShard("s2", shard.RoleSecondary, 1)
	e.publish(1, map[shard.ID][]shard.Assignment{
		"s1": {{Server: "a", Role: shard.RolePrimary}, {Server: "b", Role: shard.RoleSecondary}, {Server: "c", Role: shard.RoleSecondary}},
		"s2": {{Server: "stale", Role: shard.RoleSecondary}, {Server: "c", Role: shard.RoleSecondary}},
	})
	c := e.client("near")
	e.loop.RunFor(time.Second)

	for _, tc := range []struct {
		name     string
		key      string
		write    bool
		attempts int
	}{
		{"3-replica any-replica read", "abc", false, 1},
		{"primary write", "abc", true, 1},
		{"read rejected once and retried", "xyz", false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var last Result
			completed := 0
			done := func(r Result) { last = r; completed++ }
			run := func() {
				for i := 0; i < 10; i++ {
					c.Do(tc.key, tc.write, "op", nil, done)
				}
				e.loop.RunFor(5 * time.Second)
			}
			run() // warm the record, envelope and event free-lists
			completed = 0
			allocs := testing.AllocsPerRun(100, run)
			if allocs != 0 {
				t.Errorf("%.2f allocs per 10 requests, want 0", allocs)
			}
			if completed != 10*101 || !last.OK || last.Attempts != tc.attempts {
				t.Fatalf("completed %d of %d, last = %+v, want OK in %d attempts", completed, 10*101, last, tc.attempts)
			}
		})
	}
}
