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
	// mu guards the materialized views.
	mu sync.Mutex
}

// streamShard is one owned shard's materialized view, its state on the
// server: its bus log, the offset consumed through and the per-key
// aggregates.
type streamShard struct {
	log    *busLog
	cursor int
	state  map[string]int64
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
	logs map[shard.ID]*busLog
}

// busLog is one shard's log, made on first use and the shard's for good.
type busLog struct {
	events []BusEvent
}

// NewDataBus returns an empty bus.
func NewDataBus() *DataBus {
	return &DataBus{logs: make(map[shard.ID]*busLog)}
}

// log returns shard s's log, making it on first use. The caller holds b.mu.
func (b *DataBus) log(s shard.ID) *busLog {
	l := b.logs[s]
	if l == nil {
		l = &busLog{}
		b.logs[s] = l
	}
	return l
}

// Publish appends an event to its shard's log.
func (b *DataBus) Publish(ev BusEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	l := b.log(ev.Shard)
	l.events = append(l.events, ev)
}

// NewStreamProcessor builds the application instance for one server.
func NewStreamProcessor(bus *DataBus) *StreamProcessor {
	return &StreamProcessor{bus: bus}
}

// AddShard implements appserver.Application: taking ownership rebuilds the
// shard's materialized state by replaying the bus (option 3's recovery
// path).
func (p *StreamProcessor) AddShard(s shard.ID, _ shard.Role) any {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bus.mu.Lock()
	log := p.bus.log(s)
	p.bus.mu.Unlock()
	sh := &streamShard{log: log, state: make(map[string]int64)}
	p.consumeLocked(sh)
	return sh
}

// DropShard implements appserver.Application: the materialized state goes
// with the replica; the bus remains the source of truth.
func (p *StreamProcessor) DropShard(shard.ID) {}

// ChangeRole implements appserver.Application (primary-only: no-op).
func (p *StreamProcessor) ChangeRole(shard.ID, shard.Role, shard.Role) {}

// ShardLoad implements appserver.LoadReporter with a constant, which needs no
// mark.
func (p *StreamProcessor) ShardLoad(_ shard.ID, into topology.Capacity) {
	into[topology.ResourceShardCount] = 1
	into[topology.ResourceCPU] = 1
}

// consumeLocked advances the shard's cursor through its bus log.
func (p *StreamProcessor) consumeLocked(sh *streamShard) {
	p.bus.mu.Lock()
	defer p.bus.mu.Unlock()
	for _, ev := range sh.log.events[sh.cursor:] {
		sh.state[ev.Key] += ev.Count
	}
	sh.cursor = len(sh.log.events)
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
func (p *StreamProcessor) HandleRequest(req *appserver.Request, state any) (any, error) {
	sh, _ := state.(*streamShard)
	if sh == nil {
		return nil, fmt.Errorf("stream: shard %s not owned", req.Shard)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch req.Op {
	case StreamOpPoke:
		p.consumeLocked(sh)
		return sh.cursor, nil
	case StreamOpQuery:
		p.consumeLocked(sh)
		return sh.state[req.Key], nil
	default:
		return nil, fmt.Errorf("stream: unknown op %q", req.Op)
	}
}
