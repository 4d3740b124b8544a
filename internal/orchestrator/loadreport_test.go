package orchestrator

import (
	"fmt"
	"maps"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/coord"
	"shardmanager/internal/discovery"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// fullReport is the report a server sent before load reports carried only
// what changed, kept as their reference: a walk of every replica the server
// holds, whatever its phase, asking the application for each, and keeping
// the values of o's metrics.
func fullReport(o *Orchestrator, srv *appserver.Server, app appserver.Application) map[shard.ID][]float64 {
	out := make(map[shard.ID][]float64)
	for id := range srv.Shards() {
		load := topology.Capacity{}
		if lr, ok := app.(appserver.LoadReporter); ok {
			lr.ShardLoad(id, load)
		} else {
			load[topology.ResourceShardCount] = 1
		}
		out[id] = vector(o, load)
	}
	return out
}

// vector is load's values of o's metrics, in the policy's order.
func vector(o *Orchestrator, load topology.Capacity) []float64 {
	out := make([]float64, len(o.cfg.Policy.Metrics))
	for k, r := range o.cfg.Policy.Metrics {
		out[k] = load[r]
	}
	return out
}

// balancing adds r to the metrics cfg's policy balances on, with room for a
// thousand on every server: a report carries only the policy's metrics, so a
// test of the marks that keep a metric fresh must balance on it.
func balancing(cfg Config, r topology.Resource) Config {
	cfg.Policy.Metrics = append(slices.Clip(cfg.Policy.Metrics), r)
	cfg.ServerCapacity = maps.Clone(cfg.ServerCapacity)
	cfg.ServerCapacity[r] = 1000
	return cfg
}

// heldFrom is what the orchestrator holds of st's reports, by shard.
func heldFrom(o *Orchestrator, st *serverState) map[shard.ID][]float64 {
	out := make(map[shard.ID][]float64)
	for _, ss := range o.shards {
		if l := ss.reported(st, len(o.cfg.Policy.Metrics)); l != nil {
			out[ss.cfg.ID] = l
		}
	}
	return out
}

// loadCheck runs a world collection by collection beside ref, the loads the
// full walk would have delivered: after every collection, each server the
// round reached has its walk written over its ref entries, which are never
// deleted. Every load the orchestrator holds for a server must equal the
// server's ref entry for the shard, and every replica the placement lists on
// a server the round reached, and which the server holds, must have its load
// held: the placement dropping a replica drops its load, and shardLoad reads
// only the replicas listed.
//
// The walk is taken once the round's reports are in, so the round must be
// quiet: the steps run 4.5 s before a collection, and a replica transition
// inside the collection fails the test rather than passing it by accident.
type loadCheck struct {
	t    *testing.T
	w    *world
	apps map[shard.ServerID]appserver.Application // each server's running instance
	ref  map[shard.ServerID]map[shard.ID][]float64
	// lastChange is the time of the last replica transition on any server.
	lastChange time.Duration
	// cut is a region the test has cut off from the orchestrator's: the
	// round's calls to it are dropped.
	cut topology.RegionID
}

func newLoadCheck(t *testing.T, regions []topology.RegionID, servers int, cfg Config,
	factory func(*appserver.Server) appserver.Application) *loadCheck {
	// Allocations off the collection ticks: the containers come up at 30 s,
	// when a 30 s allocation tick would place them inside a collection.
	cfg.AllocInterval = 33 * time.Second
	c := &loadCheck{t: t, apps: map[shard.ServerID]appserver.Application{},
		ref: map[shard.ServerID]map[shard.ID][]float64{}}
	c.w = buildWorldOf(t, regions, servers, cfg, func(s *appserver.Server) appserver.Application {
		app := factory(s)
		c.apps[s.ID] = app
		return app
	})
	changed := func() { c.lastChange = c.w.loop.Now() }
	c.w.dir.AddObserver(appserver.Observer{
		ReplicaChanged: func(shard.ServerID, shard.ID, shard.Role, appserver.Phase, shard.ServerID) { changed() },
		ReplicaDropped: func(shard.ServerID, shard.ID, bool) { changed() },
		ServerRemoved:  func(shard.ServerID) { changed() },
	})
	return c
}

// round runs do (when not nil) 4.5 s before the next collection, then the
// collection, and checks what the orchestrator holds against ref.
func (c *loadCheck) round(what string, do func()) {
	c.t.Helper()
	w, o := c.w, c.w.orch
	at := (w.loop.Now()/loadInterval + 1) * loadInterval
	w.loop.RunUntil(at - 4500*time.Millisecond)
	if do != nil {
		do()
	}
	w.loop.RunUntil(at + 100*time.Millisecond) // every report of the round is in
	if c.lastChange > at {
		c.t.Fatalf("%s: a replica changed at %v, inside the collection at %v: move the step", what, c.lastChange, at)
	}
	for _, st := range o.byID {
		ref := c.ref[st.id]
		if ref == nil {
			ref = map[shard.ID][]float64{}
			c.ref[st.id] = ref
		}
		var walk map[shard.ID][]float64
		if srv := w.dir.Lookup(st.id); st.alive && srv != nil && w.net.Region(rpcnet.Endpoint(st.id)) != c.cut {
			walk = fullReport(o, srv, c.apps[st.id])
			maps.Copy(ref, walk)
		}
		held := heldFrom(o, st)
		for id, load := range held {
			if want, ok := ref[id]; !ok || !slices.Equal(load, want) {
				c.t.Fatalf("%s: after the collection at %v the orchestrator holds for %s of %s %v, the full walk delivered %v (reported: %v)",
					what, at, id, st.id, load, want, ok)
			}
		}
		for _, e := range st.shards {
			if _, ok := held[e.Shard]; !ok && walk[e.Shard] != nil {
				c.t.Fatalf("%s: after the collection at %v the orchestrator holds no load for %s on %s, which the placement lists",
					what, at, e.Shard, st.id)
			}
		}
	}
}

// rounds runs n collections with nothing done before them.
func (c *loadCheck) rounds(what string, n int) {
	c.t.Helper()
	for i := 0; i < n; i++ {
		c.round(what, nil)
	}
}

// stale counts the servers whose held loads differ from their walk now.
func (c *loadCheck) stale() int {
	n := 0
	for _, st := range c.w.orch.byID {
		srv := c.w.dir.Lookup(st.id)
		if srv == nil {
			continue
		}
		held := heldFrom(c.w.orch, st)
		for id, load := range fullReport(c.w.orch, srv, c.apps[st.id]) {
			if !slices.Equal(held[id], load) {
				n++
				break
			}
		}
	}
	return n
}

// serve hands one request to the shard's primary, as routing would.
func (c *loadCheck) serve(id shard.ID, op string, payload any) {
	c.t.Helper()
	prim, ok := c.w.orch.AssignmentSnapshot().Primary(id)
	if !ok {
		c.t.Fatalf("%s has no primary", id)
	}
	var resp appserver.Response
	c.w.dir.Lookup(prim).Serve(&appserver.Request{Shard: id, Write: true, Op: op, Payload: payload},
		func(r appserver.Response) { resp = r })
	if !resp.OK {
		c.t.Fatalf("%s %s on %s: %+v", op, id, prim, resp)
	}
}

// TestLoadReportsMatchFullScan: collected loads are what a full walk of every
// replica on every server would have delivered, through every path that
// changes a load — a KV put that adds a key and one that overwrites it, a
// KVBacking.Put outside any request, SetShardLoad, a queue enqueue and
// dequeue while a §4.3 move has its target preparing and its source
// forwarding — and through a rolling-upgrade restart, collection RPCs dropped
// by a partition, and an application that reports no load.
func TestLoadReportsMatchFullScan(t *testing.T) {
	t.Run("kvstore", func(t *testing.T) {
		// The puts change the KV store's storage load.
		cfg := balancing(baseConfig(shard.PrimarySecondary, 12, 2), topology.ResourceStorage)
		cfg.FailoverGrace = 5 * time.Minute // a restart is downtime, not a failover
		backing := apps.NewKVBacking()
		c := newLoadCheck(t, []topology.RegionID{"r1", "r2"}, 3, cfg, func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, backing)
		})
		c.rounds("initial placement", 12)
		assertConverged(t, c.w, 2)
		put := apps.KVPut{Value: "v"}
		c.round("a put that adds a key", func() { c.serve("s000", apps.KVOpPut, put) })
		c.round("a put that overwrites it", func() { c.serve("s000", apps.KVOpPut, put) })
		c.round("KVBacking.Put outside any request", func() { backing.Put("s001", "k", "v") })
		c.round("SetShardLoad on one holder", func() {
			c.apps[c.w.orch.AssignmentSnapshot().Replicas("s002")[0].Server].(*apps.KVStore).SetShardLoad("s002",
				topology.Capacity{topology.ResourceCPU: 5, topology.ResourceShardCount: 1})
		})

		failed := c.w.orch.FailedRPCs.Value()
		c.round("r2 cut off", func() {
			c.w.net.SetLinkFault("r1", "r2", rpcnet.LinkFault{DropProb: 1})
			c.cut = "r2"
			c.serve("s003", apps.KVOpPut, put)
			backing.Put("s004", "k", "v")
		})
		if c.stale() == 0 {
			t.Fatal("the partition left no server's loads stale: it proves nothing")
		}
		c.rounds("r2 still cut off", 1)
		if c.w.orch.FailedRPCs.Value() == failed {
			t.Fatal("the partition failed no call")
		}
		c.round("partition healed", func() {
			c.w.net.ClearLinkFault("r1", "r2")
			c.cut = ""
		})

		// Loads set on r1's instances die with them: each restarted server
		// reports its new instance's defaults.
		c.round("loads set on r1, then a rolling upgrade", func() {
			for _, st := range c.w.orch.byID {
				if c.w.net.Region(rpcnet.Endpoint(st.id)) != "r1" {
					continue
				}
				kv := c.apps[st.id].(*apps.KVStore)
				for _, e := range st.shards {
					kv.SetShardLoad(e.Shard, topology.Capacity{topology.ResourceCPU: 3, topology.ResourceShardCount: 1})
				}
			}
			c.w.managers["r1"].RollingUpgrade("app-job-r1", 1, "upgrade", nil)
		})
		c.rounds("rolling upgrade", 30)
		if c.stale() != 0 {
			t.Fatal("loads still stale after the upgrade")
		}
		for _, st := range c.w.orch.byID {
			if !st.alive {
				t.Fatalf("%s did not come back", st.id)
			}
		}
	})

	t.Run("queue", func(t *testing.T) {
		backing := apps.NewQueueBacking()
		queues := map[shard.ServerID]*apps.Queue{}
		c := newLoadCheck(t, []topology.RegionID{"r1"}, 3, balancing(baseConfig(shard.PrimaryOnly, 6, 1), "queue_depth"),
			func(s *appserver.Server) appserver.Application {
				q := apps.NewQueue(s, backing)
				queues[s.ID] = q
				return q
			})
		c.rounds("initial placement", 12)
		assertConverged(t, c.w, 1)
		const x = shard.ID("s000")
		src, _ := c.w.orch.AssignmentSnapshot().Primary(x)
		dst := c.w.orch.byID[0].id
		if dst == src {
			dst = c.w.orch.byID[1].id
		}
		srcSrv, dstSrv := c.w.dir.Lookup(src), c.w.dir.Lookup(dst)
		// The source's application serves what the library lets through and
		// owns the shard until drop_shard, so it is where the queue moves. A
		// queue's state is the shard's queue in the backing, the same for
		// every replica and every AddShard, so asking for it changes nothing.
		direct := func(op string) {
			state := queues[src].AddShard(x, shard.RolePrimary)
			if _, err := queues[src].HandleRequest(&appserver.Request{Shard: x, ShardNum: c.w.dir.ShardNum(x), Op: op, Payload: "m"}, state); err != nil {
				t.Fatal(err)
			}
		}
		c.round("target prepares, source enqueues", func() {
			dstSrv.PrepareAddShard(x, src, shard.RolePrimary, c.w.store.NextEpoch())
			c.serve(x, apps.QueueOpEnqueue, "m")
			c.serve(x, apps.QueueOpEnqueue, "m")
		})
		c.round("a dequeue beside the preparing target", func() { c.serve(x, apps.QueueOpDequeue, nil) })
		c.round("source forwards, enqueue", func() {
			srcSrv.PrepareDropShard(x, dst, shard.RolePrimary)
			direct(apps.QueueOpEnqueue)
		})
		c.round("a dequeue while the source forwards", func() { direct(apps.QueueOpDequeue) })
		if got := backing.Len(x); got != 1 {
			t.Fatalf("%s holds %d items, want 1", x, got)
		}
		c.round("the target takes over and dequeues", func() {
			dstSrv.AddShard(x, shard.RolePrimary, c.w.store.NextEpoch())
			srcSrv.DropShard(x)
			state := queues[dst].AddShard(x, shard.RolePrimary)
			if _, err := queues[dst].HandleRequest(&appserver.Request{Shard: x, ShardNum: c.w.dir.ShardNum(x), Op: apps.QueueOpDequeue}, state); err != nil {
				t.Fatal(err)
			}
		})
		c.rounds("settled", 2)
	})

	t.Run("no LoadReporter", func(t *testing.T) {
		c := newLoadCheck(t, []topology.RegionID{"r1"}, 4, baseConfig(shard.PrimaryOnly, 8, 1),
			func(*appserver.Server) appserver.Application { return newCountApp() })
		c.rounds("initial placement", 12)
		drained := c.w.orch.byID[0].id
		c.round("drain", func() { c.w.orch.Drain(drained, nil) })
		c.rounds("drained", 3)
		if n := c.w.orch.ShardsOnServer(drained); n != 0 {
			t.Fatalf("the drained server holds %d replicas", n)
		}
	})
}

// benchCollection builds an orchestrator (not started) and forty live servers
// in one region holding shards×2 KV replicas, none of which has reported yet.
func benchCollection(b testing.TB, shards int) (*Orchestrator, *appserver.Server) {
	const servers = 40
	cfg := baseConfig(shard.SecondaryOnly, shards, 2)
	cfg.HomeRegion = "r1"
	fleet := topology.Build(topology.Spec{Regions: []topology.RegionID{"r1"}, MachinesPerRegion: servers})
	loop := sim.NewLoop(1)
	store := coord.NewStore()
	net := rpcnet.NewNetwork(loop, fleet)
	dir := appserver.NewDirectory()
	o := New(loop, store, discovery.NewService(loop, nil), net, dir, fleet, cfg, 1)
	sess := store.NewSession()
	backing := apps.NewKVBacking()
	var srvs []*appserver.Server
	for i, m := range fleet.MachinesInRegion("r1") {
		id := shard.ServerID(fmt.Sprintf("srv%04d", i))
		if err := store.CreateAll(o.paths.ServerNode(id), []byte(m.ID), sess); err != nil {
			b.Fatal(err)
		}
		srv := appserver.NewServer(loop, net, dir, func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, backing)
		}, cfg.App, id, "r1")
		dir.Register(srv)
		net.Register(rpcnet.Endpoint(id), "r1")
		srvs = append(srvs, srv)
	}
	o.syncMembership()
	for i, id := range o.order {
		srvs[2*i%servers].AddShard(id, shard.RoleSecondary, 1)
		srvs[(2*i+1)%servers].AddShard(id, shard.RoleSecondary, 1)
	}
	return o, srvs[0]
}

// collect runs one collection round: every server is called, reports, and its
// report is applied.
func collect(o *Orchestrator) {
	o.collectLoads()
	o.loop.RunFor(time.Second)
}

// allocsOnce counts the allocations of one call of f. testing.AllocsPerRun
// calls f once before it counts, so it cannot count a first of anything. The
// collector is held off during the call: a cycle started inside the count
// would add the runtime's own allocations to f's.
func allocsOnce(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestCollectionAllocationsDoNotGrowWithReplicas: the first collection round,
// in which every replica is new, and a later one in which every shard was
// marked, so that every server reports every replica, each allocate per
// server, not per replica: the loads are held in room New made, and a report
// is values, not a map per replica. Each round makes the same number of
// allocations at 40k replicas as at 4k. Allocation counts repeat exactly, so
// the gate is deterministic.
func TestCollectionAllocationsDoNotGrowWithReplicas(t *testing.T) {
	first, marked := map[int]uint64{}, map[int]float64{}
	for _, replicas := range []int{4000, 40000} {
		o, marker := benchCollection(t, replicas/2)
		first[replicas] = allocsOnce(func() { collect(o) })
		marked[replicas] = testing.AllocsPerRun(5, func() {
			for _, id := range o.order {
				marker.LoadChanged(marker.ShardNum(id))
			}
			collect(o)
		})
	}
	if first[40000] != first[4000] {
		t.Errorf("the first round allocates %d times at 40k replicas, %d at 4k", first[40000], first[4000])
	}
	if marked[40000] != marked[4000] {
		t.Errorf("a round with every replica marked allocates %.0f times at 40k replicas, %.0f at 4k", marked[40000], marked[4000])
	}
	t.Logf("allocations per round at 4k and 40k replicas: %d in the first, %.0f with every replica marked", first[4000], marked[4000])
}

// TestCollectionRoundsAfterTheFirstAllocateNothing: once every server has
// reported once, a collection round allocates nothing, whether no shard, 1%
// of them or all were marked before it: the callbacks are bound on the
// server's state, and a report is written into the buffers the server keeps,
// which the first round sized for every replica it holds.
func TestCollectionRoundsAfterTheFirstAllocateNothing(t *testing.T) {
	for _, replicas := range []int{4000, 40000} {
		o, marker := benchCollection(t, replicas/2)
		collect(o)
		for _, pct := range []int{0, 1, 100} {
			marked := o.order[:len(o.order)*pct/100]
			if n := testing.AllocsPerRun(5, func() {
				for _, id := range marked {
					marker.LoadChanged(marker.ShardNum(id))
				}
				collect(o)
			}); n != 0 {
				t.Errorf("a round with %d%% of %d replicas marked allocates %.0f times, want 0", pct, replicas, n)
			}
		}
	}
}

// BenchmarkCollectLoads drives one load-collection round alone: every server
// is called, reports, and its report is applied. Forty servers hold 4k or 40k
// replicas. In the first round every replica is new and reports; after it, the
// shards marked before the round — none, 1% or all — report again, and a
// round with none marked asks no application anything. The first round
// allocates per server and not per replica, the same at both sizes (248:
// each server's scratch map and report buffers, and the pooled records of the
// forty calls in flight), and a later round allocates nothing. The room the loads are held in is made by New, so the first
// round's B/op is the servers' report buffers alone.
func BenchmarkCollectLoads(b *testing.B) {
	for _, replicas := range []int{4000, 40000} {
		b.Run(fmt.Sprintf("replicas=%dk/first", replicas/1000), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				o, _ := benchCollection(b, replicas/2)
				b.StartTimer()
				collect(o)
			}
		})
		for _, pct := range []int{0, 1, 100} {
			b.Run(fmt.Sprintf("replicas=%dk/marked=%d%%", replicas/1000, pct), func(b *testing.B) {
				o, marker := benchCollection(b, replicas/2)
				collect(o)
				marked := o.order[:len(o.order)*pct/100]
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					for _, id := range marked {
						marker.LoadChanged(marker.ShardNum(id))
					}
					collect(o)
				}
			})
		}
	}
}

// serverLoadApp is countApp reporting, for every shard, the CPU load the test
// set for its server.
type serverLoadApp struct {
	*countApp
	cpu *float64
}

func (a serverLoadApp) ShardLoad(_ shard.ID, into topology.Capacity) {
	into[topology.ResourceCPU] = *a.cpu
	into[topology.ResourceShardCount] = 1
}

// TestHeldLoadsGoWithTheirReplicas: a load is held for as long as the
// placement lists its replica. After a move the source holds no load for the
// shard, and a replica moved back to a server it left reads the other
// replica's load, or with no other replica the default, until its first
// report, not the report it made before it left.
func TestHeldLoadsGoWithTheirReplicas(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			cfg := baseConfig(shard.SecondaryOnly, 4, replicas)
			cfg.AllocInterval = time.Hour // no allocation but the one the test runs
			cpu := map[shard.ServerID]*float64{}
			w := buildWorldOf(t, []topology.RegionID{"r1"}, 4, cfg, func(s *appserver.Server) appserver.Application {
				v := float64(len(cpu) + 2)
				cpu[s.ID] = &v
				return serverLoadApp{newCountApp(), &v}
			})
			o := w.orch
			ss := o.shards["s000"]
			m := len(o.cfg.Policy.Metrics)
			load := func() float64 { return o.ShardLoadValue("s000", topology.ResourceCPU) }
			// move starts a move of s000 just after a collection and returns
			// once it has committed, and after that once it has finished.
			move := func(from, to shard.ServerID) (finish func()) {
				t.Helper()
				w.loop.RunUntil((w.loop.Now()/loadInterval+1)*loadInterval + 500*time.Millisecond)
				o.executeDiff(&allocator.Result{Moves: []allocator.ReplicaMove{{Shard: "s000", From: from, To: to}}})
				for ss.find(to) == -1 {
					w.loop.RunFor(10 * time.Millisecond)
					if ss.mig == nil {
						t.Fatalf("the move of s000 from %s to %s did not commit", from, to)
					}
				}
				return func() {
					for ss.mig != nil {
						w.loop.RunFor(100 * time.Millisecond)
					}
				}
			}

			w.loop.RunFor(35 * time.Second) // the containers are up
			o.allocate(allocator.Periodic)
			w.loop.RunFor(time.Minute)
			assertConverged(t, w, replicas)
			from := ss.replicas[replicas-1].Server
			var to shard.ServerID
			for _, st := range o.byID {
				if to == "" && ss.find(st.id) == -1 {
					to = st.id
				}
			}
			if got := load(); got != *cpu[from] {
				t.Fatalf("s000's load %v, want %s's report %v", got, from, *cpu[from])
			}
			move(from, to)()
			if l := ss.reported(o.servers[from], m); l != nil {
				t.Fatalf("after moving s000 off %s the orchestrator holds its report %v", from, l)
			}
			w.loop.RunFor(loadInterval)
			if got := load(); got != *cpu[to] {
				t.Fatalf("s000's load %v after the move, want %s's report %v", got, to, *cpu[to])
			}

			*cpu[from] = 100
			finish := move(to, from)
			want := 1.0 // the default
			if replicas > 1 {
				want = *cpu[ss.replicas[0].Server]
			}
			if got := load(); got != want {
				t.Fatalf("s000's load %v right after it moved back to %s, want %v", got, from, want)
			}
			finish()
			if l := ss.reported(o.servers[to], m); l != nil {
				t.Fatalf("after moving s000 off %s the orchestrator holds its report %v", to, l)
			}
			w.loop.RunFor(loadInterval)
			if got := load(); got != 100 {
				t.Fatalf("s000's load %v a collection after it moved back to %s, want its report 100", got, from)
			}
		})
	}
}

// TestMetricsOutsideThePolicyStayOnTheServer: a queue reports its depth, which
// the policy does not balance on. No report carries it, so the orchestrator
// never holds it, and a report of a queue's shards allocates what a report of
// as many shards of an application reporting only the policy's metrics does.
func TestMetricsOutsideThePolicyStayOnTheServer(t *testing.T) {
	backing := apps.NewQueueBacking()
	w := buildWorldOf(t, []topology.RegionID{"r1"}, 3, baseConfig(shard.PrimaryOnly, 6, 1),
		func(s *appserver.Server) appserver.Application { return apps.NewQueue(s, backing) })
	o := w.orch
	w.loop.RunFor(time.Minute)
	assertConverged(t, w, 1)
	prim, _ := o.AssignmentSnapshot().Primary("s000")
	srv := w.dir.Lookup(prim)
	for range 3 {
		srv.Serve(&appserver.Request{Shard: "s000", Write: true, Op: apps.QueueOpEnqueue, Payload: "m"},
			func(appserver.Response) {})
	}
	if got := backing.Len("s000"); got != 3 {
		t.Fatalf("s000 holds %d items, want 3", got)
	}
	w.loop.RunFor(loadInterval)
	m := len(o.cfg.Policy.Metrics)
	for _, id := range o.order {
		if l := o.shardLoad(o.shards[id]); len(l) != m {
			t.Fatalf("%s: the orchestrator holds %v, want %d values", id, l, m)
		}
	}
	if got := o.ShardLoadValue("s000", "queue_depth"); got != 0 {
		t.Fatalf("the orchestrator reads a queue depth of %v", got)
	}
	srv.LoadChanged(srv.ShardNum("s000"))
	rep := srv.LoadReport()
	if len(rep) != 1 || len(rep[0].Load) != m {
		t.Fatalf("a report of s000 carries %v, want one entry of %d values", rep, m)
	}

	// The same shards on two servers outside the world, one running a queue
	// and one a stream processor, which reports the policy's metrics alone.
	ask := func(app func(*appserver.Server) appserver.Application) float64 {
		s := appserver.NewServer(w.loop, w.net, w.dir, app, o.cfg.App, "lone", "r1")
		for _, id := range o.order {
			s.AddShard(id, shard.RolePrimary, 1)
		}
		return testing.AllocsPerRun(10, func() {
			for _, id := range o.order {
				s.LoadChanged(s.ShardNum(id))
			}
			if rep := s.LoadReport(); len(rep) != len(o.order) {
				t.Fatalf("a report of every shard has %d entries", len(rep))
			}
		})
	}
	queue := ask(func(s *appserver.Server) appserver.Application { return apps.NewQueue(s, backing) })
	stream := ask(func(s *appserver.Server) appserver.Application { return apps.NewStreamProcessor(apps.NewDataBus()) })
	if queue != stream {
		t.Fatalf("a report of a queue's shards allocates %v times, of a stream processor's %v", queue, stream)
	}
}

// TestMembershipSyncAllocationsDoNotGrowWithServers: a membership event that
// changes nothing reads no live server's node: it allocates the same at 300
// live servers as at 30.
func TestMembershipSyncAllocationsDoNotGrowWithServers(t *testing.T) {
	allocs := map[int]float64{}
	for _, servers := range []int{30, 300} {
		w := buildWorld(t, []topology.RegionID{"r1"}, servers, baseConfig(shard.SecondaryOnly, 4, 1))
		w.loop.RunFor(time.Minute)
		if n := len(w.orch.byID); n != servers {
			t.Fatalf("%d servers joined, want %d", n, servers)
		}
		allocs[servers] = testing.AllocsPerRun(10, w.orch.syncMembership)
		for _, st := range w.orch.byID {
			if !st.alive {
				t.Fatalf("%s died in a sync that changed nothing", st.id)
			}
		}
	}
	if allocs[300] != allocs[30] {
		t.Fatalf("a membership sync allocates %.0f times at 300 live servers, %.0f at 30", allocs[300], allocs[30])
	}
	t.Logf("allocations per membership sync: %.0f at 30 and 300 live servers", allocs[30])
}
