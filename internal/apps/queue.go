package apps

import (
	"errors"
	"fmt"
	"sync"

	"shardmanager/internal/appserver"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// Queue is a FOQS-like sharded priority-queue server (§1.2, [47]): a
// primary-only application where each shard is an independent queue
// guaranteeing in-order delivery — the instant-messaging queue service of
// Fig 18. Queue contents live in a shared backing store (the external
// database of data-persistency option 2, §2.4) so an in-place restart or a
// migrated primary resumes exactly where the old one stopped.
type Queue struct {
	server *appserver.Server
	// backing holds every shard's queue; a shard's state on the server is
	// its queue.
	backing *QueueBacking
}

// QueueBacking is the durable queue state shared by an application's
// servers.
type QueueBacking struct {
	mu     sync.Mutex
	queues map[shard.ID]*shardQueue
	// Enqueued counts enqueues.
	Enqueued int64
}

// queueBlockLen is how many items a block of a shard queue holds.
const queueBlockLen = 16

// A queueBlock is a run of a shard queue's items and the link to the next.
type queueBlock struct {
	items [queueBlockLen]string
	next  *queueBlock
}

// A shardQueue is one shard's FIFO, a list of blocks, so that a push never
// copies the items before it: the items are head.items[first:] through
// tail.items[:end], n of them. A pop clears its slot and drops the head block
// once it is read out; an emptied queue keeps its one block for the next push.
type shardQueue struct {
	head, tail *queueBlock
	first, end int
	n          int
}

// NewQueueBacking returns an empty backing store.
func NewQueueBacking() *QueueBacking {
	return &QueueBacking{queues: make(map[shard.ID]*shardQueue)}
}

// queue returns shard s's queue, making it on first use; the queue, once
// made, is the shard's for good. Its first block waits for its first push:
// a server is given every shard it holds at start-up, and most are not
// written to for a while.
func (b *QueueBacking) queue(s shard.ID) *shardQueue {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.queues[s]
	if q == nil {
		q = &shardQueue{}
		b.queues[s] = q
	}
	return q
}

// push appends an item to a shard's queue.
func (b *QueueBacking) push(q *shardQueue, item string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if q.tail == nil {
		q.head = &queueBlock{}
		q.tail = q.head
	}
	tail := q.tail
	if q.end == queueBlockLen {
		tail.next = &queueBlock{}
		tail, q.end = tail.next, 0
		q.tail = tail
	}
	tail.items[q.end] = item
	q.end++
	q.n++
	b.Enqueued++
}

// pop removes the head of a shard's queue.
func (b *QueueBacking) pop(q *shardQueue) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if q.n == 0 {
		return "", false
	}
	item := q.head.items[q.first]
	q.head.items[q.first] = ""
	q.first++
	q.n--
	switch {
	case q.n == 0: // the head is the tail
		q.first, q.end = 0, 0
	case q.first == queueBlockLen:
		q.head, q.first = q.head.next, 0
	}
	return item, true
}

// Len returns a shard queue's depth.
func (b *QueueBacking) Len(s shard.ID) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if q := b.queues[s]; q != nil {
		return q.n
	}
	return 0
}

// NewQueue builds the application instance for one server, which numbers
// the shards it is given.
func NewQueue(server *appserver.Server, backing *QueueBacking) *Queue {
	return &Queue{server: server, backing: backing}
}

// AddShard implements appserver.Application: the shard's state is its queue.
func (q *Queue) AddShard(s shard.ID, _ shard.Role) any { return q.backing.queue(s) }

// DropShard implements appserver.Application: the queue stays in the backing.
func (q *Queue) DropShard(shard.ID) {}

// ChangeRole implements appserver.Application (primary-only: no-op).
func (q *Queue) ChangeRole(shard.ID, shard.Role, shard.Role) {}

// ShardLoad implements appserver.LoadReporter: queue depth as the synthetic
// metric ("single synthetic" LB, §2.2.4). Every enqueue and dequeue marks it.
func (q *Queue) ShardLoad(s shard.ID, into topology.Capacity) {
	into[topology.ResourceShardCount] = 1
	into["queue_depth"] = float64(q.backing.Len(s))
}

// Queue operation names.
const (
	QueueOpEnqueue = "enqueue"
	QueueOpDequeue = "dequeue"
	QueueOpDepth   = "depth"
)

// HandleRequest implements appserver.Application.
func (q *Queue) HandleRequest(req *appserver.Request, state any) (any, error) {
	sq, _ := state.(*shardQueue)
	if sq == nil {
		return nil, fmt.Errorf("queue: shard %s not owned", req.Shard)
	}
	switch req.Op {
	case QueueOpEnqueue:
		item, ok := req.Payload.(string)
		if !ok {
			return nil, errors.New("queue: bad enqueue payload")
		}
		q.backing.push(sq, item)
		q.server.LoadChanged(req.ShardNum)
		return "ok", nil
	case QueueOpDequeue:
		item, ok := q.backing.pop(sq)
		if !ok {
			return "", nil // empty queue is not an error
		}
		q.server.LoadChanged(req.ShardNum)
		return item, nil
	case QueueOpDepth:
		q.backing.mu.Lock()
		defer q.backing.mu.Unlock()
		return sq.n, nil
	default:
		return nil, fmt.Errorf("queue: unknown op %q", req.Op)
	}
}
