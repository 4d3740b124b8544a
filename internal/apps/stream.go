package apps

import (
	"fmt"
	"sync"

	"shardmanager/internal/appserver"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// StreamProcessor is an AdEvents-like stream-processing application (§2.5):
// a primary-only app using standard materialized state (data-persistency
// option 3, §2.4). Each shard consumes a partition of an external data bus
// (a Kafka-like log), maintains per-key aggregates on "local SSD", and on
// total state loss rebuilds by replaying the bus from the shard's last
// checkpoint.
type StreamProcessor struct {
	bus *DataBus
	mu  sync.Mutex
	// state is this replica's materialized view: shard -> key -> count.
	state map[shard.ID]map[string]int64
	// cursor is the bus offset each owned shard has consumed through.
	cursor map[shard.ID]int
	owned  map[shard.ID]bool
}

// BusEvent is one record on the data bus.
type BusEvent struct {
	Shard shard.ID
	Key   string
	Count int64
}

// DataBus is a Kafka-like per-shard event log: producers append, shard
// owners replay from a checkpoint. It stands in for the "off-the-shelf
// external tools such as a Kafka-like data bus" of §2.4.
type DataBus struct {
	mu   sync.Mutex
	logs map[shard.ID][]BusEvent
}

// NewDataBus returns an empty bus.
func NewDataBus() *DataBus {
	return &DataBus{logs: make(map[shard.ID][]BusEvent)}
}

// Publish appends an event to its shard's log.
func (b *DataBus) Publish(ev BusEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.logs[ev.Shard] = append(b.logs[ev.Shard], ev)
}

// ReadFrom returns the events of a shard's log starting at offset.
func (b *DataBus) ReadFrom(s shard.ID, offset int) []BusEvent {
	b.mu.Lock()
	defer b.mu.Unlock()
	log := b.logs[s]
	if offset >= len(log) {
		return nil
	}
	out := make([]BusEvent, len(log)-offset)
	copy(out, log[offset:])
	return out
}

// NewStreamProcessor builds the application instance for one server.
func NewStreamProcessor(bus *DataBus) *StreamProcessor {
	return &StreamProcessor{
		bus:    bus,
		state:  make(map[shard.ID]map[string]int64),
		cursor: make(map[shard.ID]int),
		owned:  make(map[shard.ID]bool),
	}
}

// AddShard implements appserver.Application: taking ownership rebuilds the
// shard's materialized state by replaying the bus (option 3's recovery
// path).
func (p *StreamProcessor) AddShard(s shard.ID, _ shard.Role) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.owned[s] = true
	p.state[s] = make(map[string]int64)
	p.cursor[s] = 0
	p.consumeLocked(s)
}

// DropShard implements appserver.Application: the materialized state is
// discarded; the bus remains the source of truth.
func (p *StreamProcessor) DropShard(s shard.ID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.owned, s)
	delete(p.state, s)
	delete(p.cursor, s)
}

// ChangeRole implements appserver.Application (primary-only: no-op).
func (p *StreamProcessor) ChangeRole(shard.ID, shard.Role, shard.Role) {}

// ShardLoad implements appserver.LoadReporter with a constant, which needs no
// mark.
func (p *StreamProcessor) ShardLoad(_ shard.ID, into topology.Capacity) {
	into[topology.ResourceShardCount] = 1
	into[topology.ResourceCPU] = 1
}

// consumeLocked advances the shard's cursor through the bus.
func (p *StreamProcessor) consumeLocked(s shard.ID) {
	for _, ev := range p.bus.ReadFrom(s, p.cursor[s]) {
		p.state[s][ev.Key] += ev.Count
		p.cursor[s]++
	}
}

// Stream operation names.
const (
	// StreamOpQuery reads the aggregate for a key.
	StreamOpQuery = "query"
	// StreamOpPoke makes the owner consume new bus events (the
	// experiments call this in lieu of a background consumer timer).
	StreamOpPoke = "poke"
)

// HandleRequest implements appserver.Application.
func (p *StreamProcessor) HandleRequest(req *appserver.Request) (any, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.owned[req.Shard] {
		return nil, fmt.Errorf("stream: shard %s not owned", req.Shard)
	}
	switch req.Op {
	case StreamOpPoke:
		p.consumeLocked(req.Shard)
		return p.cursor[req.Shard], nil
	case StreamOpQuery:
		p.consumeLocked(req.Shard)
		return p.state[req.Shard][req.Key], nil
	default:
		return nil, fmt.Errorf("stream: unknown op %q", req.Op)
	}
}
