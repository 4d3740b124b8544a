package apps

import (
	"fmt"
	"testing"

	"shardmanager/internal/appserver"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

func TestKVStorePutGetScan(t *testing.T) {
	backing := NewKVBacking()
	kv := NewKVStore(nil, backing)
	kv.AddShard("s1", shard.RolePrimary)

	if _, err := kv.HandleRequest(&appserver.Request{Shard: "s1", Op: KVOpPut, Key: "user:1", Payload: KVPut{Value: "alice"}}); err != nil {
		t.Fatal(err)
	}
	kv.HandleRequest(&appserver.Request{Shard: "s1", Op: KVOpPut, Key: "user:2", Payload: KVPut{Value: "bob"}})
	kv.HandleRequest(&appserver.Request{Shard: "s1", Op: KVOpPut, Key: "item:9", Payload: KVPut{Value: "x"}})

	v, err := kv.HandleRequest(&appserver.Request{Shard: "s1", Op: KVOpGet, Key: "user:1"})
	if err != nil || v != "alice" {
		t.Fatalf("get = %v err=%v", v, err)
	}
	// Prefix scan needs key locality (§3.1).
	scan, err := kv.HandleRequest(&appserver.Request{Shard: "s1", Op: KVOpScan, Key: "user:"})
	if err != nil {
		t.Fatal(err)
	}
	keys := scan.([]string)
	if len(keys) != 2 || keys[0] != "user:1" || keys[1] != "user:2" {
		t.Fatalf("scan = %v", keys)
	}
}

func TestKVStoreErrors(t *testing.T) {
	kv := NewKVStore(nil, NewKVBacking())
	if _, err := kv.HandleRequest(&appserver.Request{Shard: "nope", Op: KVOpGet}); err == nil {
		t.Fatal("unowned shard accepted")
	}
	kv.AddShard("s1", shard.RolePrimary)
	if _, err := kv.HandleRequest(&appserver.Request{Shard: "s1", Op: KVOpGet, Key: "missing"}); err == nil {
		t.Fatal("missing key returned no error")
	}
	if _, err := kv.HandleRequest(&appserver.Request{Shard: "s1", Op: KVOpPut, Key: "k", Payload: 42}); err == nil {
		t.Fatal("bad payload accepted")
	}
	if _, err := kv.HandleRequest(&appserver.Request{Shard: "s1", Op: "bogus"}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestKVStoreSurvivesMigration(t *testing.T) {
	// Two replicas over the same backing: writes through the old owner
	// are visible to the new one — the property graceful migration
	// relies on.
	backing := NewKVBacking()
	a := NewKVStore(nil, backing)
	b := NewKVStore(nil, backing)
	a.AddShard("s1", shard.RolePrimary)
	a.HandleRequest(&appserver.Request{Shard: "s1", Op: KVOpPut, Key: "k", Payload: KVPut{Value: "v"}})
	a.DropShard("s1")
	b.AddShard("s1", shard.RolePrimary)
	v, err := b.HandleRequest(&appserver.Request{Shard: "s1", Op: KVOpGet, Key: "k"})
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
	kv := NewKVStore(nil, NewKVBacking())
	kv.AddShard("s1", shard.RolePrimary)
	kv.HandleRequest(&appserver.Request{Shard: "s1", Op: KVOpPut, Key: "k", Payload: KVPut{Value: "v"}})
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
	kv := NewKVStore(nil, NewKVBacking())
	kv.AddShard("s1", shard.RolePrimary)
	kv.HandleRequest(&appserver.Request{Shard: "s1", Op: KVOpPut, Key: "k", Payload: KVPut{Value: "v"}})
	get := &appserver.Request{Shard: "s1", Op: KVOpGet, Key: "k"}
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
	backing := NewQueueBacking()
	q := NewQueue(nil, backing)
	q.AddShard("s1", shard.RolePrimary)
	for _, m := range []string{"a", "b", "c"} {
		if _, err := q.HandleRequest(&appserver.Request{Shard: "s1", Op: QueueOpEnqueue, Payload: m}); err != nil {
			t.Fatal(err)
		}
	}
	depth, _ := q.HandleRequest(&appserver.Request{Shard: "s1", Op: QueueOpDepth})
	if depth != 3 {
		t.Fatalf("depth = %v", depth)
	}
	for _, want := range []string{"a", "b", "c"} {
		got, err := q.HandleRequest(&appserver.Request{Shard: "s1", Op: QueueOpDequeue})
		if err != nil || got != want {
			t.Fatalf("dequeue = %v err=%v, want %s", got, err, want)
		}
	}
	// Empty dequeue is not an error (in-order delivery just waits).
	got, err := q.HandleRequest(&appserver.Request{Shard: "s1", Op: QueueOpDequeue})
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
	var ref []string
	n := 0
	push := func(k int) {
		for range k {
			item := fmt.Sprint(n)
			n++
			b.push("s1", item)
			ref = append(ref, item)
		}
	}
	pop := func(k int) {
		for range k {
			got, ok := b.pop("s1")
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
	backing := NewQueueBacking()
	a := NewQueue(nil, backing)
	b := NewQueue(nil, backing)
	a.AddShard("s1", shard.RolePrimary)
	a.HandleRequest(&appserver.Request{Shard: "s1", Op: QueueOpEnqueue, Payload: "m1"})
	a.HandleRequest(&appserver.Request{Shard: "s1", Op: QueueOpEnqueue, Payload: "m2"})
	a.DropShard("s1")
	b.AddShard("s1", shard.RolePrimary)
	got, err := b.HandleRequest(&appserver.Request{Shard: "s1", Op: QueueOpDequeue})
	if err != nil || got != "m1" {
		t.Fatalf("in-order delivery broken across owners: %v err=%v", got, err)
	}
}

func TestQueueErrors(t *testing.T) {
	q := NewQueue(nil, NewQueueBacking())
	if _, err := q.HandleRequest(&appserver.Request{Shard: "nope", Op: QueueOpDequeue}); err == nil {
		t.Fatal("unowned shard accepted")
	}
	q.AddShard("s1", shard.RolePrimary)
	if _, err := q.HandleRequest(&appserver.Request{Shard: "s1", Op: QueueOpEnqueue, Payload: 3}); err == nil {
		t.Fatal("bad payload accepted")
	}
	if _, err := q.HandleRequest(&appserver.Request{Shard: "s1", Op: "bogus"}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestQueueLoadReportsDepth(t *testing.T) {
	q := NewQueue(nil, NewQueueBacking())
	q.AddShard("s1", shard.RolePrimary)
	q.HandleRequest(&appserver.Request{Shard: "s1", Op: QueueOpEnqueue, Payload: "x"})
	if got := shardLoad(q, "s1").Get("queue_depth"); got != 1 {
		t.Fatalf("queue_depth = %v", got)
	}
}

func TestStreamProcessorMaterializesFromBus(t *testing.T) {
	bus := NewDataBus()
	bus.Publish(BusEvent{Shard: "s1", Key: "ad1", Count: 3})
	bus.Publish(BusEvent{Shard: "s1", Key: "ad1", Count: 2})
	bus.Publish(BusEvent{Shard: "s1", Key: "ad2", Count: 1})

	p := NewStreamProcessor(bus)
	p.AddShard("s1", shard.RolePrimary)
	got, err := p.HandleRequest(&appserver.Request{Shard: "s1", Op: StreamOpQuery, Key: "ad1"})
	if err != nil || got != int64(5) {
		t.Fatalf("query = %v err=%v", got, err)
	}
	// New events are consumed on poke/query.
	bus.Publish(BusEvent{Shard: "s1", Key: "ad1", Count: 10})
	got, _ = p.HandleRequest(&appserver.Request{Shard: "s1", Op: StreamOpQuery, Key: "ad1"})
	if got != int64(15) {
		t.Fatalf("query after publish = %v", got)
	}
}

func TestStreamProcessorRebuildOnMigration(t *testing.T) {
	bus := NewDataBus()
	bus.Publish(BusEvent{Shard: "s1", Key: "k", Count: 7})
	a := NewStreamProcessor(bus)
	b := NewStreamProcessor(bus)
	a.AddShard("s1", shard.RolePrimary)
	a.DropShard("s1")
	// The new owner rebuilds the materialized view from the bus.
	b.AddShard("s1", shard.RolePrimary)
	got, err := b.HandleRequest(&appserver.Request{Shard: "s1", Op: StreamOpQuery, Key: "k"})
	if err != nil || got != int64(7) {
		t.Fatalf("rebuilt query = %v err=%v", got, err)
	}
}

func TestStreamProcessorErrors(t *testing.T) {
	p := NewStreamProcessor(NewDataBus())
	if _, err := p.HandleRequest(&appserver.Request{Shard: "nope", Op: StreamOpQuery}); err == nil {
		t.Fatal("unowned shard accepted")
	}
	p.AddShard("s1", shard.RolePrimary)
	if _, err := p.HandleRequest(&appserver.Request{Shard: "s1", Op: "bogus"}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestDataBusReadFrom(t *testing.T) {
	bus := NewDataBus()
	for i := 0; i < 5; i++ {
		bus.Publish(BusEvent{Shard: "s1", Key: "k", Count: int64(i)})
	}
	if got := len(bus.ReadFrom("s1", 3)); got != 2 {
		t.Fatalf("ReadFrom(3) = %d events", got)
	}
	if got := bus.ReadFrom("s1", 99); got != nil {
		t.Fatalf("ReadFrom past end = %v", got)
	}
}
