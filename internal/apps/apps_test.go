package apps

import (
	"fmt"
	"testing"

	"shardmanager/internal/appserver"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// shards numbers shards for applications driven by hand, as the servers of
// one directory do.
type shards struct{ dir *appserver.Directory }

func newShards() shards { return shards{appserver.NewDirectory()} }

// on builds an application for a server of d's directory: the server numbers
// the shards the application is given.
func on[A appserver.Application](d shards, build func(*appserver.Server) A) A {
	var app A
	appserver.NewServer(sim.NewLoop(1), nil, d.dir, func(s *appserver.Server) appserver.Application {
		app = build(s)
		return app
	}, "app", "srv", "r1")
	return app
}

// req is a request for shard id as Serve hands it to the application, with
// the shard's number filled in.
func (d shards) req(id shard.ID, op, key string, payload any) *appserver.Request {
	return &appserver.Request{Shard: id, ShardNum: d.dir.ShardNum(id), Op: op, Key: key, Payload: payload}
}

func TestKVStorePutGetScan(t *testing.T) {
	d := newShards()
	backing := NewKVBacking()
	kv := on(d, func(s *appserver.Server) *KVStore { return NewKVStore(s, backing) })
	kv.AddShard("s1", shard.RolePrimary)

	if _, err := kv.HandleRequest(d.req("s1", KVOpPut, "user:1", KVPut{Value: "alice"})); err != nil {
		t.Fatal(err)
	}
	kv.HandleRequest(d.req("s1", KVOpPut, "user:2", KVPut{Value: "bob"}))
	kv.HandleRequest(d.req("s1", KVOpPut, "item:9", KVPut{Value: "x"}))

	v, err := kv.HandleRequest(d.req("s1", KVOpGet, "user:1", nil))
	if err != nil || v != "alice" {
		t.Fatalf("get = %v err=%v", v, err)
	}
	// Prefix scan needs key locality (§3.1).
	scan, err := kv.HandleRequest(d.req("s1", KVOpScan, "user:", nil))
	if err != nil {
		t.Fatal(err)
	}
	keys := scan.([]string)
	if len(keys) != 2 || keys[0] != "user:1" || keys[1] != "user:2" {
		t.Fatalf("scan = %v", keys)
	}
}

func TestKVStoreErrors(t *testing.T) {
	d := newShards()
	kv := on(d, func(s *appserver.Server) *KVStore { return NewKVStore(s, NewKVBacking()) })
	if _, err := kv.HandleRequest(d.req("nope", KVOpGet, "", nil)); err == nil {
		t.Fatal("unowned shard accepted")
	}
	kv.AddShard("s1", shard.RolePrimary)
	if _, err := kv.HandleRequest(d.req("s1", KVOpGet, "missing", nil)); err == nil {
		t.Fatal("missing key returned no error")
	}
	if _, err := kv.HandleRequest(d.req("s1", KVOpPut, "k", 42)); err == nil {
		t.Fatal("bad payload accepted")
	}
	if _, err := kv.HandleRequest(d.req("s1", "bogus", "", nil)); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestKVStoreSurvivesMigration(t *testing.T) {
	d := newShards()
	// Two replicas over the same backing: writes through the old owner
	// are visible to the new one — the property graceful migration
	// relies on.
	backing := NewKVBacking()
	a := on(d, func(s *appserver.Server) *KVStore { return NewKVStore(s, backing) })
	b := on(d, func(s *appserver.Server) *KVStore { return NewKVStore(s, backing) })
	a.AddShard("s1", shard.RolePrimary)
	a.HandleRequest(d.req("s1", KVOpPut, "k", KVPut{Value: "v"}))
	a.DropShard("s1")
	b.AddShard("s1", shard.RolePrimary)
	v, err := b.HandleRequest(d.req("s1", KVOpGet, "k", nil))
	if err != nil || v != "v" {
		t.Fatalf("migrated read = %v err=%v", v, err)
	}
}

// shardLoad is what the application reports for the shard, into a map of
// the caller's, as a server asks for it.
func shardLoad(lr appserver.LoadReporter, s shard.ID) topology.Capacity {
	into := topology.Capacity{}
	lr.ShardLoad(s, into)
	return into
}

func TestKVStoreLoadReport(t *testing.T) {
	d := newShards()
	kv := on(d, func(s *appserver.Server) *KVStore { return NewKVStore(s, NewKVBacking()) })
	kv.AddShard("s1", shard.RolePrimary)
	kv.HandleRequest(d.req("s1", KVOpPut, "k", KVPut{Value: "v"}))
	if got := shardLoad(kv, "s1").Get(topology.ResourceStorage); got != 1 {
		t.Fatalf("storage load = %v", got)
	}
	kv.SetShardLoad("s1", topology.Capacity{topology.ResourceCPU: 42})
	if got := shardLoad(kv, "s1").Get(topology.ResourceCPU); got != 42 {
		t.Fatalf("override load = %v", got)
	}
}

// TestKVGetAllocatesNothing: a get hands out the value as it was boxed when
// written, so serving a read allocates nothing.
func TestKVGetAllocatesNothing(t *testing.T) {
	d := newShards()
	kv := on(d, func(s *appserver.Server) *KVStore { return NewKVStore(s, NewKVBacking()) })
	kv.AddShard("s1", shard.RolePrimary)
	kv.HandleRequest(d.req("s1", KVOpPut, "k", KVPut{Value: "v"}))
	get := d.req("s1", KVOpGet, "k", nil)
	allocs := testing.AllocsPerRun(100, func() {
		if v, err := kv.HandleRequest(get); err != nil || v != "v" {
			t.Fatalf("get = %v err=%v", v, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a get allocated %v times", allocs)
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	d := newShards()
	backing := NewQueueBacking()
	q := on(d, func(s *appserver.Server) *Queue { return NewQueue(s, backing) })
	q.AddShard("s1", shard.RolePrimary)
	for _, m := range []string{"a", "b", "c"} {
		if _, err := q.HandleRequest(d.req("s1", QueueOpEnqueue, "", m)); err != nil {
			t.Fatal(err)
		}
	}
	depth, _ := q.HandleRequest(d.req("s1", QueueOpDepth, "", nil))
	if depth != 3 {
		t.Fatalf("depth = %v", depth)
	}
	for _, want := range []string{"a", "b", "c"} {
		got, err := q.HandleRequest(d.req("s1", QueueOpDequeue, "", nil))
		if err != nil || got != want {
			t.Fatalf("dequeue = %v err=%v, want %s", got, err, want)
		}
	}
	// Empty dequeue is not an error (in-order delivery just waits).
	got, err := q.HandleRequest(d.req("s1", QueueOpDequeue, "", nil))
	if err != nil || got != "" {
		t.Fatalf("empty dequeue = %v err=%v", got, err)
	}
	if backing.Enqueued != 3 {
		t.Fatalf("enqueued = %d", backing.Enqueued)
	}
}

// TestQueueBackingMatchesASlice: interleaved pushes and pops over blocks of
// queueBlockLen items, emptying a queue and refilling it, deliver in the order
// a plain slice does, with the same depth after every operation.
func TestQueueBackingMatchesASlice(t *testing.T) {
	b := NewQueueBacking()
	q := b.queue("s1")
	var ref []string
	n := 0
	push := func(k int) {
		for range k {
			item := fmt.Sprint(n)
			n++
			b.push(q, item)
			ref = append(ref, item)
		}
	}
	pop := func(k int) {
		for range k {
			got, ok := b.pop(q)
			if len(ref) == 0 {
				if ok || got != "" {
					t.Fatalf("an empty queue popped %q", got)
				}
				continue
			}
			if !ok || got != ref[0] {
				t.Fatalf("popped %q, %v; want %q", got, ok, ref[0])
			}
			ref = ref[1:]
		}
	}
	for round, op := range []struct{ push, pop int }{
		{1, 1}, {3, 5}, // empty, and popped past empty
		{queueBlockLen, 0}, {1, queueBlockLen}, // one block full, then one item into the next
		{3 * queueBlockLen, queueBlockLen + 3}, {5, 7},
		{0, 3 * queueBlockLen}, // read out to empty across blocks
		{queueBlockLen - 1, 2}, {queueBlockLen + 2, queueBlockLen + 20},
		{2 * queueBlockLen, 1}, {0, 2 * queueBlockLen},
	} {
		push(op.push)
		pop(op.pop)
		if got := b.Len("s1"); got != len(ref) {
			t.Fatalf("round %d: depth %d, want %d", round, got, len(ref))
		}
	}
	if b.Len("s2") != 0 {
		t.Fatal("a shard never pushed to has items")
	}
	if int(b.Enqueued) != n {
		t.Fatalf("enqueued = %d, want %d", b.Enqueued, n)
	}
}

func TestQueueSurvivesOwnerChange(t *testing.T) {
	d := newShards()
	backing := NewQueueBacking()
	a := on(d, func(s *appserver.Server) *Queue { return NewQueue(s, backing) })
	b := on(d, func(s *appserver.Server) *Queue { return NewQueue(s, backing) })
	a.AddShard("s1", shard.RolePrimary)
	a.HandleRequest(d.req("s1", QueueOpEnqueue, "", "m1"))
	a.HandleRequest(d.req("s1", QueueOpEnqueue, "", "m2"))
	a.DropShard("s1")
	b.AddShard("s1", shard.RolePrimary)
	got, err := b.HandleRequest(d.req("s1", QueueOpDequeue, "", nil))
	if err != nil || got != "m1" {
		t.Fatalf("in-order delivery broken across owners: %v err=%v", got, err)
	}
}

func TestQueueErrors(t *testing.T) {
	d := newShards()
	q := on(d, func(s *appserver.Server) *Queue { return NewQueue(s, NewQueueBacking()) })
	if _, err := q.HandleRequest(d.req("nope", QueueOpDequeue, "", nil)); err == nil {
		t.Fatal("unowned shard accepted")
	}
	q.AddShard("s1", shard.RolePrimary)
	if _, err := q.HandleRequest(d.req("s1", QueueOpEnqueue, "", 3)); err == nil {
		t.Fatal("bad payload accepted")
	}
	if _, err := q.HandleRequest(d.req("s1", "bogus", "", nil)); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestQueueLoadReportsDepth(t *testing.T) {
	d := newShards()
	q := on(d, func(s *appserver.Server) *Queue { return NewQueue(s, NewQueueBacking()) })
	q.AddShard("s1", shard.RolePrimary)
	q.HandleRequest(d.req("s1", QueueOpEnqueue, "", "x"))
	if got := shardLoad(q, "s1").Get("queue_depth"); got != 1 {
		t.Fatalf("queue_depth = %v", got)
	}
}

func TestStreamProcessorMaterializesFromBus(t *testing.T) {
	d := newShards()
	bus := NewDataBus()
	bus.Publish(BusEvent{Shard: "s1", Key: "ad1", Count: 3})
	bus.Publish(BusEvent{Shard: "s1", Key: "ad1", Count: 2})
	bus.Publish(BusEvent{Shard: "s1", Key: "ad2", Count: 1})

	p := on(d, func(s *appserver.Server) *StreamProcessor { return NewStreamProcessor(s, bus) })
	p.AddShard("s1", shard.RolePrimary)
	got, err := p.HandleRequest(d.req("s1", StreamOpQuery, "ad1", nil))
	if err != nil || got != int64(5) {
		t.Fatalf("query = %v err=%v", got, err)
	}
	// New events are consumed on poke/query.
	bus.Publish(BusEvent{Shard: "s1", Key: "ad1", Count: 10})
	got, _ = p.HandleRequest(d.req("s1", StreamOpQuery, "ad1", nil))
	if got != int64(15) {
		t.Fatalf("query after publish = %v", got)
	}
}

func TestStreamProcessorRebuildOnMigration(t *testing.T) {
	d := newShards()
	bus := NewDataBus()
	bus.Publish(BusEvent{Shard: "s1", Key: "k", Count: 7})
	a := on(d, func(s *appserver.Server) *StreamProcessor { return NewStreamProcessor(s, bus) })
	b := on(d, func(s *appserver.Server) *StreamProcessor { return NewStreamProcessor(s, bus) })
	a.AddShard("s1", shard.RolePrimary)
	a.DropShard("s1")
	// The new owner rebuilds the materialized view from the bus.
	b.AddShard("s1", shard.RolePrimary)
	got, err := b.HandleRequest(d.req("s1", StreamOpQuery, "k", nil))
	if err != nil || got != int64(7) {
		t.Fatalf("rebuilt query = %v err=%v", got, err)
	}
}

func TestStreamProcessorErrors(t *testing.T) {
	d := newShards()
	p := on(d, func(s *appserver.Server) *StreamProcessor { return NewStreamProcessor(s, NewDataBus()) })
	if _, err := p.HandleRequest(d.req("nope", StreamOpQuery, "", nil)); err == nil {
		t.Fatal("unowned shard accepted")
	}
	p.AddShard("s1", shard.RolePrimary)
	if _, err := p.HandleRequest(d.req("s1", "bogus", "", nil)); err == nil {
		t.Fatal("unknown op accepted")
	}
}
