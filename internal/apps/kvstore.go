// Package apps contains functional example applications built on the SM
// programming model, mirroring the application classes the paper reports
// (§2.5): a ZippyDB-like replicated key-value store (primary-secondary,
// persistent state), a FOQS-like priority queue (primary-only), and an
// AdEvents-like stream processor (primary-only soft state fed by an
// external data bus). The experiments and runnable examples use these as
// their workloads.
package apps

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"shardmanager/internal/appserver"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// KVStore is a ZippyDB-like sharded key-value store server (§2.5): each
// shard has a primary handling writes and secondaries serving reads.
// Replication is modeled through a shared per-shard backing store (standing
// in for the Paxos log + SST files): all replicas of a shard read and write
// the same shard state, so a migrated or promoted replica sees the data.
// What the simulation exercises is the control plane — ownership, roles,
// forwarding, failover — not the consensus protocol itself.
type KVStore struct {
	server *appserver.Server
	// backing is shared by all replicas of the application (the
	// "durable" store); keyed by shard then key.
	backing *KVBacking
	// owned tracks the shards this replica currently serves, by the number
	// requests carry (Request.ShardNum), each with the backing's map for the
	// shard (guarded by the backing's mutex), so that a request finds its
	// data without hashing the shard's name.
	owned map[appserver.ShardNum]map[string]any
	// loads holds the synthetic load SetShardLoad last set for a shard, as
	// its resources and their values.
	loads map[shard.ID][]resourceLoad
}

// resourceLoad is one resource's value in a shard's synthetic load.
type resourceLoad struct {
	r topology.Resource
	v float64
}

// KVBacking is the durable shard state shared by an application's replicas.
type KVBacking struct {
	mu sync.Mutex
	// data holds each shard's values, every one a string boxed once when it
	// is written, so that a get hands it out without allocating.
	data map[shard.ID]map[string]any
	// server is the first server a store was built for on the backing: a write
	// that adds a key marks the shard's load through it, and the mark reaches
	// every server of its directory, which holds all of the application's.
	// Nil until a store is built, and then no write is marked.
	server *appserver.Server
}

// NewKVBacking returns an empty backing store.
func NewKVBacking() *KVBacking {
	return &KVBacking{data: make(map[shard.ID]map[string]any)}
}

// shard returns the shard's map, making it on first use; the map, once
// made, is the shard's for good. The caller holds b.mu.
func (b *KVBacking) shard(s shard.ID) map[string]any {
	m := b.data[s]
	if m == nil {
		m = make(map[string]any)
		b.data[s] = m
	}
	return m
}

// Put commits a write to a shard.
func (b *KVBacking) Put(s shard.ID, key, value string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.put(b.shard(s), key, value) && b.server != nil {
		b.server.LoadChanged(b.server.ShardNum(s))
	}
}

// put writes to data, a shard's map, and reports whether the key is new: a
// new key grows the shard's storage load, which the caller marks.
func (b *KVBacking) put(data map[string]any, key, value string) bool {
	keys := len(data)
	data[key] = value
	return len(data) != keys
}

// scan returns the sorted keys in a shard's map with the given prefix — the
// prefix-scan operation that requires key locality (§3.1, the Laser example).
// The caller holds the backing's mutex.
func scan(data map[string]any, prefix string) []string {
	var out []string
	for k := range data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Keys returns the number of keys in a shard.
func (b *KVBacking) Keys(s shard.ID) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.data[s])
}

// NewKVStore builds the application instance for one server, which numbers
// the shards it is given.
func NewKVStore(server *appserver.Server, backing *KVBacking) *KVStore {
	if backing.server == nil {
		backing.server = server
	}
	return &KVStore{
		server:  server,
		backing: backing,
		owned:   make(map[appserver.ShardNum]map[string]any),
		loads:   make(map[shard.ID][]resourceLoad),
	}
}

// SetShardLoad sets the synthetic load reported for a shard. The store copies
// the values, reusing the shard's slice once it has one of the size: what
// ShardLoad reports must not change under the caller's edits.
func (k *KVStore) SetShardLoad(s shard.ID, load topology.Capacity) {
	held := k.loads[s][:0]
	for r, v := range load {
		held = append(held, resourceLoad{r, v})
	}
	k.loads[s] = held
	k.server.LoadChanged(k.server.ShardNum(s))
}

// AddShard implements appserver.Application.
func (k *KVStore) AddShard(s shard.ID, _ shard.Role) {
	k.backing.mu.Lock()
	defer k.backing.mu.Unlock()
	k.owned[k.server.ShardNum(s)] = k.backing.shard(s)
}

// DropShard implements appserver.Application.
func (k *KVStore) DropShard(s shard.ID) { delete(k.owned, k.server.ShardNum(s)) }

// ChangeRole implements appserver.Application.
func (k *KVStore) ChangeRole(s shard.ID, _, to shard.Role) { k.AddShard(s, to) }

// ShardLoad implements appserver.LoadReporter. SetShardLoad and a write that
// adds a key mark it.
func (k *KVStore) ShardLoad(s shard.ID, into topology.Capacity) {
	if held, ok := k.loads[s]; ok {
		for _, l := range held {
			into[l.r] = l.v
		}
		return
	}
	into[topology.ResourceShardCount] = 1
	into[topology.ResourceCPU] = 1
	into[topology.ResourceStorage] = float64(k.backing.Keys(s))
}

// KV operation names.
const (
	KVOpPut  = "put"
	KVOpGet  = "get"
	KVOpScan = "scan"
)

// KVPut is the payload of a put.
type KVPut struct {
	Value string
}

// HandleRequest implements appserver.Application.
func (k *KVStore) HandleRequest(req *appserver.Request) (any, error) {
	data, ok := k.owned[req.ShardNum]
	if !ok {
		return nil, fmt.Errorf("kvstore: shard %s not owned", req.Shard)
	}
	b := k.backing
	switch req.Op {
	case KVOpPut:
		p, ok := req.Payload.(KVPut)
		if !ok {
			return nil, errors.New("kvstore: bad put payload")
		}
		b.mu.Lock()
		added := b.put(data, req.Key, p.Value)
		b.mu.Unlock()
		if added {
			k.server.LoadChanged(req.ShardNum)
		}
		return "ok", nil
	case KVOpGet:
		b.mu.Lock()
		v, ok := data[req.Key]
		b.mu.Unlock()
		if !ok {
			return nil, errors.New("kvstore: not found")
		}
		return v, nil
	case KVOpScan:
		b.mu.Lock()
		defer b.mu.Unlock()
		return scan(data, req.Key), nil
	default:
		return nil, fmt.Errorf("kvstore: unknown op %q", req.Op)
	}
}
