// Package discovery models the service discovery system of §3.2: the
// orchestrator publishes each application's versioned shard map, and the
// system fans it out to all application clients "in a timely manner" through
// a multi-level data-distribution tree. We model the tree as a per-
// subscriber, per-publication propagation delay; what matters to SM is that
// clients act on *eventually consistent, slightly stale* maps, which the
// graceful migration protocol (§4.3) must tolerate without dropping
// requests.
package discovery

import (
	"fmt"
	"time"

	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/trace"
)

// lbDeliver attributes propagation deliveries in the kernel profiler.
var lbDeliver = sim.LabelFor("discovery", "deliver")

// DelayFunc returns the propagation delay for one delivery.
type DelayFunc func(rng *sim.RNG) time.Duration

// FixedDelay returns a DelayFunc with constant delay.
func FixedDelay(d time.Duration) DelayFunc {
	return func(*sim.RNG) time.Duration { return d }
}

// UniformDelay returns a DelayFunc uniform in [lo, hi].
func UniformDelay(lo, hi time.Duration) DelayFunc {
	if hi < lo {
		panic("discovery: UniformDelay hi < lo")
	}
	return func(rng *sim.RNG) time.Duration {
		return lo + time.Duration(rng.Int63()%int64(hi-lo+1))
	}
}

// DefaultDelay approximates a production dissemination tree: most clients
// learn a new map within a second or two.
func DefaultDelay() DelayFunc { return UniformDelay(500*time.Millisecond, 2*time.Second) }

// Replica is one replica as a View reads it: the published assignment plus
// the number this Service gave the replica's server. Server numbers are dense,
// start at 0 and never change or get reused, so a reader can keep whatever it
// resolves about a server (its fabric record, its directory slot) in a slice
// indexed by Num and never look the name up again. A number only indexes:
// replicas are listed in published order and nothing is ever ordered by Num.
type Replica struct {
	shard.Assignment
	Num uint32
}

// revision is one shard's replica list from store sequence since on, until
// the shard's next revision; a nil list means the shard has no entry. A
// published revision is never modified, so a slice read through a View stays
// what it was.
type revision struct {
	since int64
	as    []Replica
}

// Cell is the store's record of one shard ID: the revisions some readable view
// can still see, oldest first, the last one being the shard's state in the
// latest version. A store makes a cell the first time it meets the ID — in a
// publish, or in Cells before anything was published — and never removes or
// replaces it (a sweep empties it), so a reader that resolves a shard ID once
// may keep the pointer and read every later View of the same app through it.
type Cell struct {
	st   *appState
	id   shard.ID
	revs []revision
}

// View is a by-value cursor on one version of an app's shard map: Version
// and Gen name it, At and Replicas read it in place and Map materialises it.
// Nothing is copied to make one. A View stays readable while a live
// subscription of its app is at or below it — the subscription it was
// delivered to, or, for one taken with Latest, any subscription that has not
// yet been delivered something newer; reading one the store has reclaimed
// panics. The zero View is "nothing published": it has no replicas and a nil
// Map.
type View struct {
	Version int64
	Gen     int64

	st  *appState
	seq int64 // position in the app's publish sequence; revisions are keyed by it
}

// After reports whether v supersedes u: by fencing generation, the total
// order shared with sessions and grants. Every view supersedes the zero View,
// which supersedes nothing.
func (v View) After(u View) bool {
	if v.st == nil {
		return false
	}
	return u.st == nil || v.Gen > u.Gen
}

// readable panics when v lies below the reclaimed floor: the revisions it
// would read may be gone, and the next newer ones are not what it saw.
func (v View) readable() {
	if v.seq < v.st.floor {
		panic(fmt.Sprintf("discovery: view v%d of %s read after its revisions were reclaimed (no live subscription at or below it)",
			v.Version, v.st.app))
	}
}

// at returns the replicas the cell holds for sequence seq: the newest revision
// made at or before it.
func (c *Cell) at(seq int64) []Replica {
	for i := len(c.revs) - 1; i >= 0; i-- {
		if c.revs[i].since <= seq {
			return c.revs[i].as
		}
	}
	return nil
}

// At returns the replicas the cell's shard has in this version (nil if it has
// none). The slice is the store's own: read it, do not modify it. A cell of
// another app's store is a caller's bug and panics.
func (v View) At(c *Cell) []Replica {
	if v.st == nil {
		return nil
	}
	if c.st != v.st {
		panic(fmt.Sprintf("discovery: view of %s read through %s's cell for %s", v.st.app, c.st.app, c.id))
	}
	v.readable()
	return c.at(v.seq)
}

// Replicas is At by shard ID, for a caller that has not resolved the cell.
func (v View) Replicas(id shard.ID) []Replica {
	if v.st == nil {
		return nil
	}
	v.readable()
	if c := v.st.cells[id]; c != nil {
		return c.at(v.seq)
	}
	return nil
}

// Map materialises this version as a caller-owned shard.Map — O(shards), for
// control-plane reads and tests, not for the delivery path.
func (v View) Map() *shard.Map {
	if v.st == nil {
		return nil
	}
	v.readable()
	m := &shard.Map{App: v.st.app, Version: v.Version, Gen: v.Gen,
		Entries: make(map[shard.ID][]shard.Assignment, v.st.live)}
	for id, c := range v.st.cells {
		if rs := c.at(v.seq); rs != nil {
			as := make([]shard.Assignment, len(rs))
			for i, r := range rs {
				as[i] = r.Assignment
			}
			m.Entries[id] = as
		}
	}
	return m
}

// Subscription is one client's registration for an app's shard maps.
type Subscription struct {
	id int // per-app subscriber index, for trace labels
	fn func(View)
	// rng drives this subscriber's propagation delays. Each subscriber owns
	// a stream forked at Subscribe time: were delays drawn from one shared
	// service RNG, adding or removing any subscriber would shift every other
	// subscriber's delay sequence.
	rng *sim.RNG
	// cursor is the last view delivered. Until the first delivery it is the
	// zero View, which holds every revision: the pending start-up catch-up
	// may hand over any version.
	cursor    View
	cancelled bool
}

// Cancel stops future deliveries and releases the subscription's hold on old
// revisions.
func (s *Subscription) Cancel() { s.cancelled = true }

// appState is one app's versioned store: one cell per shard ID it has met.
type appState struct {
	app   shard.AppID
	cells map[shard.ID]*Cell
	// byKeyspace holds, per keyspace a client routes by, the cell at each
	// position: one table for all the app's clients.
	byKeyspace map[*shard.Keyspace][]*Cell

	seq     int64 // accepted publishes so far; 0 means nothing published
	version int64 // of the latest publish
	gen     int64
	pubAt   time.Duration // simulated time the latest version was published

	live   int   // shards with an entry in the latest version
	stored int   // revisions held in cells
	kept   int   // revisions beyond one per live shard that the last sweep had to keep
	floor  int64 // views below this sequence have been reclaimed

	subs []*Subscription
}

func (st *appState) latest() View {
	return View{Version: st.version, Gen: st.gen, st: st, seq: st.seq}
}

// cell resolves a shard ID, making its (empty) cell on first sight.
func (st *appState) cell(id shard.ID) *Cell {
	c := st.cells[id]
	if c == nil {
		c = &Cell{st: st, id: id}
		st.cells[id] = c
	}
	return c
}

// put records the cell's replicas (nil: no entry) as of the publish being
// applied.
func (st *appState) put(c *Cell, as []Replica) {
	n := len(c.revs)
	had := n > 0 && c.revs[n-1].as != nil
	if as == nil && !had {
		return
	}
	if n > 0 && c.revs[n-1].since == st.seq {
		c.revs[n-1].as = as // staged twice in one delta: the last one wins
	} else {
		c.revs = append(c.revs, revision{since: st.seq, as: as})
		st.stored++
	}
	if had && as == nil {
		st.live--
	} else if !had && as != nil {
		st.live++
	}
}

// sweep reclaims every revision no readable view can see. The floor follows
// the slowest live cursor: a subscriber may be handed any version above its
// cursor, and may have kept the one at it, so per shard the newest revision
// at or below the floor and everything after it stay. A subscriber that has
// been delivered nothing yet holds the floor where it stands. A cell left
// with no revision stays in the store, empty: someone may hold it.
func (st *appState) sweep() {
	floor := st.seq
	for _, sub := range st.subs {
		if !sub.cancelled && sub.cursor.seq < floor {
			floor = sub.cursor.seq
		}
	}
	if floor < st.floor {
		floor = st.floor
	}
	st.floor = floor
	for _, c := range st.cells {
		revs := c.revs
		k := 0
		for k+1 < len(revs) && revs[k+1].since <= floor {
			k++
		}
		if len(revs)-k == 1 && revs[k].as == nil {
			k++ // a removal every readable view has seen
		}
		if k == 0 {
			continue
		}
		st.stored -= k
		if k == len(revs) {
			c.revs = nil
			continue
		}
		n := copy(revs, revs[k:])
		clear(revs[n:])
		c.revs = revs[:n]
	}
	st.kept = st.stored - st.live
}

// Service is the discovery system. One instance serves all applications.
type Service struct {
	loop  *sim.Loop
	rng   *sim.RNG
	delay DelayFunc
	apps  map[shard.AppID]*appState
	// serverNum numbers every server ID a publish has named, in the order
	// first named: Replica.Num.
	serverNum map[shard.ServerID]uint32

	// freeDeliveries recycles the per-delivery records that ride the event
	// loop's arg slot, keeping fan-out allocation-free.
	freeDeliveries *delivery

	// Publications counts accepted Publish calls, for tests and smctl.
	Publications int64

	// observers see every delivery outcome. Unlike Subscribe they consume
	// no RNG draws, so attaching one (healthmon and the auditor do) cannot
	// perturb a seeded run. lag is publish-to-delivery staleness; status is
	// "delivered", "stale" or "cancelled".
	observers []func(app shard.AppID, version int64, lag time.Duration, status string)
}

// AddObserver registers a delivery observer without disturbing ones already
// attached; observers fire in attachment order.
func (s *Service) AddObserver(fn func(app shard.AppID, version int64, lag time.Duration, status string)) {
	if fn == nil {
		panic("discovery: AddObserver(nil)")
	}
	s.observers = append(s.observers, fn)
}

// NewService returns a discovery service using the given delay model (nil
// means DefaultDelay).
func NewService(loop *sim.Loop, delay DelayFunc) *Service {
	if delay == nil {
		delay = DefaultDelay()
	}
	return &Service{
		loop:      loop,
		rng:       loop.RNG().Fork(),
		delay:     delay,
		apps:      make(map[shard.AppID]*appState),
		serverNum: make(map[shard.ServerID]uint32),
	}
}

func (s *Service) state(app shard.AppID) *appState {
	st, ok := s.apps[app]
	if !ok {
		st = &appState{app: app, cells: make(map[shard.ID]*Cell),
			byKeyspace: make(map[*shard.Keyspace][]*Cell)}
		s.apps[app] = st
	}
	return st
}

// Cells returns the app's cell at each position of ks (shard.Keyspace.Locate):
// every shard ID a client of that keyspace can ask about, resolved once. The
// slice is made on the first call for a keyspace and shared by every later
// one; read it, do not modify it.
func (s *Service) Cells(app shard.AppID, ks *shard.Keyspace) []*Cell {
	st := s.state(app)
	cells := st.byKeyspace[ks]
	if cells == nil {
		cells = make([]*Cell, ks.Len())
		for pos := range cells {
			cells[pos] = st.cell(ks.At(pos))
		}
		st.byKeyspace[ks] = cells
	}
	return cells
}

// replicas copies a published assignment list into the store's form, giving
// each server its number.
func (s *Service) replicas(as []shard.Assignment) []Replica {
	out := make([]Replica, len(as))
	for i, a := range as {
		num, ok := s.serverNum[a.Server]
		if !ok {
			num = uint32(len(s.serverNum))
			s.serverNum[a.Server] = num
		}
		out[i] = Replica{Assignment: a, Num: num}
	}
	return out
}

// Publish applies d to the app's store as its next version — O(entries in d),
// whatever the map's size — and schedules delivery of that version to every
// subscriber after an independent propagation delay. A delta with
// FromVersion 0 is a snapshot: the shards it does not list are removed. d is
// copied from; the caller may restage it at once.
//
// Versions are applied in generation order; d must be stamped with a
// generation > 0, as coord's epochs are. A delta that is behind the latest
// generation (e.g. reordered in flight from a superseded control-plane
// incarnation), or that was made against a version other than the latest and
// is not a snapshot, is dropped and counted in
// discovery_stale_publishes_total; its publisher finds Latest is not where it
// left it and resends a snapshot.
func (s *Service) Publish(d *shard.Delta) {
	if d == nil {
		panic("discovery: Publish(nil)")
	}
	if d.Gen <= 0 {
		panic(fmt.Sprintf("discovery: Publish of %s v%d without a generation", d.App, d.ToVersion))
	}
	st := s.state(d.App)
	snapshot := d.FromVersion == 0
	if d.Gen <= st.gen || (!snapshot && (st.seq == 0 || d.FromVersion != st.version)) {
		if mr := s.loop.Metrics(); mr != nil {
			mr.Counter("discovery_stale_publishes_total", "app", string(d.App)).Inc()
		}
		return
	}
	st.seq++
	st.version, st.gen, st.pubAt = d.ToVersion, d.Gen, s.loop.Now()
	for i := range d.Changed {
		e := &d.Changed[i]
		st.put(st.cell(e.Shard), s.replicas(e.Assignments))
	}
	for _, id := range d.Removed {
		if c := st.cells[id]; c != nil {
			st.put(c, nil)
		}
	}
	if snapshot {
		for _, c := range st.cells {
			if n := len(c.revs); n > 0 && c.revs[n-1].since != st.seq {
				st.put(c, nil)
			}
		}
	}
	// Sweep once the revisions added since the last sweep outnumber the live
	// entries: reclamation (one pass over subscribers and shards) is then paid
	// for by the publishes that made the garbage, not by every publish.
	if st.stored-st.live-st.kept > st.live {
		st.sweep()
	}
	s.Publications++
	if mr := s.loop.Metrics(); mr != nil {
		mr.Counter("discovery_publications_total", "app", string(d.App)).Inc()
		mr.Gauge("discovery_map_version", "app", string(d.App)).Set(float64(st.version))
	}
	v := st.latest()
	for _, sub := range st.subs {
		s.deliver(sub, v)
	}
}

// delivery is the pooled state of one scheduled delivery event, recycled when
// it fires. The event hands v to sub.
type delivery struct {
	s     *Service
	sub   *Subscription
	v     View
	pubAt time.Duration
	sp    trace.SpanID
	next  *delivery
}

// deliver schedules the delivery of v to sub: one sampled delay, one event,
// one span. The span stretches from publication to the subscriber callback,
// so map-propagation lag is directly visible, and staleness is measured from
// when the version was published rather than from a later subscribe time.
func (s *Service) deliver(sub *Subscription, v View) {
	d := s.delay(sub.rng)
	var sp trace.SpanID
	if tr := s.loop.Tracer(); tr.Enabled() {
		sp = tr.StartSpan("discovery", "propagate", 0, trace.String("app", string(v.st.app)),
			trace.Int64("version", v.Version), trace.Int("sub", sub.id))
	}
	dv := s.freeDeliveries
	if dv == nil {
		dv = &delivery{s: s}
	} else {
		s.freeDeliveries = dv.next
		dv.next = nil
	}
	dv.sub, dv.v, dv.pubAt, dv.sp = sub, v, v.st.pubAt, sp
	s.loop.PostArgL(d, lbDeliver, fire, dv)
}

// fire runs one delivery event at its propagation instant. The propagate span
// ends after the subscriber callback returns, so a span the callback starts
// nests inside it.
func fire(a any) {
	dv := a.(*delivery)
	s, sub, v, pubAt, sp := dv.s, dv.sub, dv.v, dv.pubAt, dv.sp
	*dv = delivery{s: s, next: s.freeDeliveries}
	s.freeDeliveries = dv

	status := s.apply(sub, v, s.loop.Now()-pubAt)
	if tr := s.loop.Tracer(); tr.Enabled() {
		tr.EndSpan(sp, trace.String("status", status))
	}
}

// apply hands v to sub at its delivery instant: classify the outcome, count
// it, tell the observers, move the cursor, run the subscriber's callback; it
// returns the outcome status. A cancelled subscriber, or one v does not
// supersede (overtaken by a newer delivery), receives nothing. That covers a
// v the store has reclaimed meanwhile: accepted publishes rise in generation,
// so v lies below the cursor that held the floor above it. A cursor may jump
// over any number of versions: the store holds v itself, not the step that
// led to it.
func (s *Service) apply(sub *Subscription, v View, lag time.Duration) string {
	status := "delivered"
	switch {
	case sub.cancelled:
		status = "cancelled"
	case !v.After(sub.cursor):
		status = "stale"
	}
	app := string(v.st.app)
	if mr := s.loop.Metrics(); mr != nil {
		mr.Counter("discovery_deliveries_total",
			"app", app, "status", status).Inc()
		if status == "delivered" {
			mr.Histogram("discovery_propagation_ms", nil, "app", app).
				Observe(float64(lag) / float64(time.Millisecond))
		}
	}
	for _, obs := range s.observers {
		obs(v.st.app, v.Version, lag, status)
	}
	if status == "delivered" {
		sub.cursor = v
		sub.fn(v)
	}
	return status
}

// Subscribe registers fn to receive a View of each version of the app's shard
// map. If a version already exists it is delivered after one propagation
// delay (a client fetching the current state at start-up).
func (s *Service) Subscribe(app shard.AppID, fn func(View)) *Subscription {
	if fn == nil {
		panic("discovery: Subscribe(nil)")
	}
	st := s.state(app)
	sub := &Subscription{id: len(st.subs), fn: fn, rng: s.rng.Fork()}
	st.subs = append(st.subs, sub)
	if st.seq > 0 {
		s.deliver(sub, st.latest())
	}
	return sub
}

// Latest returns the newest published version of app with no delay — the
// authoritative read control-plane components use, and a client's on-demand
// refresh — or the zero View when nothing has been published.
func (s *Service) Latest(app shard.AppID) View {
	st, ok := s.apps[app]
	if !ok || st.seq == 0 {
		return View{}
	}
	return st.latest()
}
