package orchestrator

import (
	"fmt"
	"maps"
	"reflect"
	"testing"
	"time"

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
// holds, whatever its phase, asking the application for each.
func fullReport(srv *appserver.Server, app appserver.Application) map[shard.ID]topology.Capacity {
	out := make(map[shard.ID]topology.Capacity)
	for id := range srv.Shards() {
		load := topology.Capacity{}
		if lr, ok := app.(appserver.LoadReporter); ok {
			lr.ShardLoad(id, load)
		} else {
			load[topology.ResourceShardCount] = 1
		}
		out[id] = load
	}
	return out
}

// loadCheck runs a world collection by collection beside ref, the loads the
// full walk would have delivered: after every collection, each server the
// round reached has its walk written over its ref entries (held loads are
// never deleted, so neither are these), and what the orchestrator holds for
// every server must deep-equal its ref.
//
// The walk is taken once the round's reports are in, so the round must be
// quiet: the steps run 4.5 s before a collection, and a replica transition
// inside the collection fails the test rather than passing it by accident.
type loadCheck struct {
	t    *testing.T
	w    *world
	apps map[shard.ServerID]appserver.Application // each server's running instance
	ref  map[shard.ServerID]map[shard.ID]topology.Capacity
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
		ref: map[shard.ServerID]map[shard.ID]topology.Capacity{}}
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
// collection, and compares what the orchestrator holds with ref.
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
			ref = map[shard.ID]topology.Capacity{}
			c.ref[st.id] = ref
		}
		if srv := w.dir.Lookup(st.id); st.alive && srv != nil && w.net.Region(rpcnet.Endpoint(st.id)) != c.cut {
			maps.Copy(ref, fullReport(srv, c.apps[st.id]))
		}
		if !reflect.DeepEqual(st.load, ref) {
			c.t.Fatalf("%s: after the collection at %v the orchestrator holds for %s\n %v\nthe full walk delivered\n %v",
				what, at, st.id, st.load, ref)
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
		for id, load := range fullReport(srv, c.apps[st.id]) {
			if !reflect.DeepEqual(st.load[id], load) {
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
		cfg := baseConfig(shard.PrimarySecondary, 12, 2)
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
		c := newLoadCheck(t, []topology.RegionID{"r1"}, 3, baseConfig(shard.PrimaryOnly, 6, 1),
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
		// owns the shard until drop_shard, so it is where the queue moves.
		direct := func(op string) {
			if _, err := queues[src].HandleRequest(&appserver.Request{Shard: x, Op: op, Payload: "m"}); err != nil {
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
			if _, err := queues[dst].HandleRequest(&appserver.Request{Shard: x, Op: apps.QueueOpDequeue}); err != nil {
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
// in one region holding shards×2 KV replicas, after one collection round that
// took every replica's first report.
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
		srv := appserver.NewServer(loop, net, dir, apps.NewKVStore(nil, backing), cfg.App, id, "r1")
		dir.Register(srv)
		net.Register(rpcnet.Endpoint(id), "r1")
		srvs = append(srvs, srv)
	}
	o.syncMembership()
	for i, id := range o.order {
		srvs[2*i%servers].AddShard(id, shard.RoleSecondary, 1)
		srvs[(2*i+1)%servers].AddShard(id, shard.RoleSecondary, 1)
	}
	o.collectLoads()
	loop.RunFor(time.Second)
	return o, srvs[0]
}

// TestCollectionAllocationsDoNotGrowWithReplicas: a collection round in which
// every shard was marked, so that every server reports every replica, copies
// each load into maps its holders made at the first round: it allocates per
// server, not per replica, and makes the same number of allocations at 40k
// replicas as at 4k. Allocation counts repeat exactly, so the gate is
// deterministic.
func TestCollectionAllocationsDoNotGrowWithReplicas(t *testing.T) {
	allocs := map[int]float64{}
	for _, replicas := range []int{4000, 40000} {
		o, marker := benchCollection(t, replicas/2)
		allocs[replicas] = testing.AllocsPerRun(5, func() {
			for _, id := range o.order {
				marker.LoadChanged(id)
			}
			o.collectLoads()
			o.loop.RunFor(time.Second)
		})
	}
	if allocs[40000] != allocs[4000] {
		t.Fatalf("a round with every replica marked allocates %.0f times at 40k replicas, %.0f at 4k", allocs[40000], allocs[4000])
	}
	t.Logf("allocations per round with every replica marked: %.0f at 4k and 40k replicas", allocs[4000])
}

// BenchmarkCollectLoads drives one load-collection round alone: every server
// is called, reports, and its report is applied. Forty servers hold 4k or 40k
// replicas, of which the shards marked before the round — none, 1% or all —
// report again; a round with none marked asks no application anything, and
// every round makes the same allocations at both sizes (120 with none marked,
// 160 with 1% or all: per server, not per replica).
func BenchmarkCollectLoads(b *testing.B) {
	for _, replicas := range []int{4000, 40000} {
		for _, pct := range []int{0, 1, 100} {
			b.Run(fmt.Sprintf("replicas=%dk/marked=%d%%", replicas/1000, pct), func(b *testing.B) {
				o, marker := benchCollection(b, replicas/2)
				marked := o.order[:len(o.order)*pct/100]
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					for _, id := range marked {
						marker.LoadChanged(id)
					}
					o.collectLoads()
					o.loop.RunFor(time.Second)
				}
			})
		}
	}
}
