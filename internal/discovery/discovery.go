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

// Subscription is one client's registration for an app's shard maps.
type Subscription struct {
	app shard.AppID
	id  int // per-app subscriber index, for trace labels
	fn  func(*shard.Map)
	// deltaFn, when non-nil, receives in-order incremental updates instead
	// of full snapshots (SubscribeDelta). fn still handles full snapshots:
	// the initial catch-up and any resync after a missed version.
	deltaFn func(*shard.Delta)
	// rng drives this subscriber's propagation delays. Each subscriber owns
	// a stream forked at Subscribe time: were delays drawn from one shared
	// service RNG, adding or removing any subscriber would shift every other
	// subscriber's delay sequence.
	rng       *sim.RNG
	lastSeen  int64
	cancelled bool
}

// Cancel stops future deliveries.
func (s *Subscription) Cancel() { s.cancelled = true }

// subBatch groups consecutive subscribers that share one delivery event per
// publication. Each batch owns a forked RNG for its propagation delays, so
// batch membership changes never perturb other batches' delay streams.
type subBatch struct {
	rng  *sim.RNG
	subs []*Subscription
}

type appState struct {
	current *shard.Map
	pubAt   time.Duration // simulated time current was published
	subs    []*Subscription
	batches []*subBatch // populated only when fanoutBatch > 1
	// inflight is the delta delivered by the most recent PublishDelta,
	// retained until the next publish so in-flight deliveries can read it;
	// it is then handed back to the publisher as a recycled buffer.
	inflight *shard.Delta
}

// Service is the discovery system. One instance serves all applications.
type Service struct {
	loop  *sim.Loop
	rng   *sim.RNG
	delay DelayFunc
	apps  map[shard.AppID]*appState

	// fanoutBatch is the number of subscribers sharing one delivery event
	// (and one sampled propagation delay) per publication. The default of 1
	// is the exact legacy behavior: every subscriber draws its own delay
	// from its own RNG stream. Large-scale experiments raise it so a
	// publish schedules O(subs/batch) events instead of O(subs).
	fanoutBatch int

	// freeDeliveries recycles the per-delivery records that ride the event
	// loop's arg slot, keeping fan-out allocation-free.
	freeDeliveries *delivery

	// Publications counts Publish calls, for tests and smctl.
	Publications int64

	// observers see every delivery outcome. Unlike Subscribe they consume
	// no RNG draws, so attaching one (healthmon and the auditor do) cannot
	// perturb a seeded run. lag is publish-to-delivery staleness; status is
	// "delivered", "stale", "cancelled", or — delta mode only — "resync" (a
	// subscriber that could not chain onto a delta received a full snapshot).
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
		loop:        loop,
		rng:         loop.RNG().Fork(),
		delay:       delay,
		apps:        make(map[shard.AppID]*appState),
		fanoutBatch: 1,
	}
}

// SetFanoutBatch sets how many subscribers share one delivery event per
// publication (n <= 1 restores the exact per-subscriber legacy behavior).
// Batch membership is fixed at Subscribe time, so the batch size must be
// chosen before any subscriber registers.
func (s *Service) SetFanoutBatch(n int) {
	if n < 1 {
		n = 1
	}
	for _, st := range s.apps {
		if len(st.subs) > 0 {
			panic("discovery: SetFanoutBatch after Subscribe")
		}
	}
	s.fanoutBatch = n
}

func (s *Service) state(app shard.AppID) *appState {
	st, ok := s.apps[app]
	if !ok {
		st = &appState{}
		s.apps[app] = st
	}
	return st
}

// Publish stores the map as the app's current version and schedules delivery
// to every subscriber after an independent propagation delay. Maps are
// applied in generation order when stamped (Gen > 0) — a publish whose
// fencing generation is behind the current map's is stale (e.g. reordered in
// flight from a superseded control-plane incarnation) and dropped, counted in
// discovery_stale_publishes_total; unstamped maps fall back to version order.
// The map is cloned; the caller may keep mutating its copy.
func (s *Service) Publish(m *shard.Map) {
	s.publish(m, nil)
}

// PublishScratch is Publish for callers that recycle map storage: the
// snapshot is cloned into scratch (reusing its entry map and assignment
// slices) instead of deep-allocating, and the app's previous current map is
// returned to serve as the caller's next scratch buffer. It is only safe
// when no subscriber retains a delivered map beyond its callback and every
// delivery of the previous map has completed (propagation delay shorter
// than the publish interval); otherwise retained maps would be mutated in
// place. Returns scratch unchanged when the publish is dropped as stale.
func (s *Service) PublishScratch(m, scratch *shard.Map) *shard.Map {
	return s.publish(m, scratch)
}

func (s *Service) publish(m, scratch *shard.Map) *shard.Map {
	if m == nil {
		panic("discovery: Publish(nil)")
	}
	st := s.state(m.App)
	if st.current != nil {
		stale := m.Version <= st.current.Version
		if m.Gen > 0 && st.current.Gen > 0 {
			stale = m.Gen <= st.current.Gen
		}
		if stale {
			if mr := s.loop.Metrics(); mr != nil {
				mr.Counter("discovery_stale_publishes_total", "app", string(m.App)).Inc()
			}
			return scratch
		}
	}
	var prev, snap *shard.Map
	if scratch != nil {
		prev = st.current
		snap = m.CloneInto(scratch)
	} else {
		snap = m.Clone()
	}
	st.current = snap
	st.pubAt = s.loop.Now()
	s.Publications++
	if mr := s.loop.Metrics(); mr != nil {
		mr.Counter("discovery_publications_total", "app", string(m.App)).Inc()
		mr.Gauge("discovery_map_version", "app", string(m.App)).Set(float64(snap.Version))
	}
	s.fanout(st, snap, nil)
	return prev
}

// PublishDelta publishes an incremental update: the delta is applied in
// place to the app's current map — O(changed entries) instead of the
// O(shards) copy a full publish pays — and fanned out to subscribers, who
// chain it onto their own maps (or resync from a full snapshot when they
// can't; see SubscribeDelta). Delivery delays draw from the same
// per-subscriber (or per-batch) RNG streams as full publishes, so a run is
// schedule-identical whichever form the publisher uses.
//
// Ordering follows Publish: a delta whose generation (when stamped, Gen > 0)
// or target version is behind the current map is dropped as stale and
// counted in discovery_stale_publishes_total; a non-stale delta whose
// FromVersion does not match the current map (the publisher diffed against a
// base the service never saw) is dropped and counted in
// discovery_delta_gap_publishes_total — the publisher must fall back to a
// full Publish.
//
// Buffer recycling mirrors PublishScratch: the service retains d until the
// app's next publish and then returns it as the caller's next scratch
// buffer, so the returned delta (nil on the first call, d itself on a drop)
// must not be read — only Reset and refilled. As with PublishScratch this is
// safe only while propagation delays are shorter than the publish interval.
func (s *Service) PublishDelta(d *shard.Delta) *shard.Delta {
	if d == nil {
		panic("discovery: PublishDelta(nil)")
	}
	st := s.state(d.App)
	if st.current == nil {
		panic("discovery: PublishDelta before any full Publish")
	}
	stale := d.ToVersion <= st.current.Version
	if d.Gen > 0 && st.current.Gen > 0 {
		stale = d.Gen <= st.current.Gen
	}
	if stale {
		if mr := s.loop.Metrics(); mr != nil {
			mr.Counter("discovery_stale_publishes_total", "app", string(d.App)).Inc()
		}
		return d
	}
	if st.current.Version != d.FromVersion {
		if mr := s.loop.Metrics(); mr != nil {
			mr.Counter("discovery_delta_gap_publishes_total", "app", string(d.App)).Inc()
		}
		return d
	}
	if err := st.current.ApplyDelta(d); err != nil {
		panic("discovery: " + err.Error())
	}
	st.pubAt = s.loop.Now()
	s.Publications++
	if mr := s.loop.Metrics(); mr != nil {
		mr.Counter("discovery_publications_total", "app", string(d.App)).Inc()
		mr.Counter("discovery_delta_publishes_total", "app", string(d.App)).Inc()
		mr.Gauge("discovery_map_version", "app", string(d.App)).Set(float64(st.current.Version))
	}
	s.fanout(st, nil, d)
	recycled := st.inflight
	st.inflight = d
	return recycled
}

// delivery is the pooled state of one scheduled delivery event, recycled when
// it fires. The event serves one subscriber (sub) or, when sub is nil, every
// subscriber of batch. Exactly one of m (full snapshot) and d (incremental
// delta) is non-nil; st is the owning app's state, consulted at fire time
// when a delta delivery must fall back to a full resync.
type delivery struct {
	s     *Service
	sub   *Subscription
	batch *subBatch
	st    *appState
	m     *shard.Map
	d     *shard.Delta
	pubAt time.Duration
	sp    trace.SpanID
	next  *delivery
}

// pubMeta returns the app and version a publication — a full map m or, when m
// is nil, the delta dlt — brings its receivers to.
func pubMeta(m *shard.Map, dlt *shard.Delta) (shard.AppID, int64) {
	if m != nil {
		return m.App, m.Version
	}
	return dlt.App, dlt.ToVersion
}

// fanout schedules one publication's delivery to every subscriber of st: one
// event per batch when batching, one per subscriber otherwise.
func (s *Service) fanout(st *appState, m *shard.Map, dlt *shard.Delta) {
	if s.fanoutBatch > 1 {
		for _, b := range st.batches {
			s.deliver(nil, b, st, m, dlt)
		}
		return
	}
	for _, sub := range st.subs {
		s.deliver(sub, nil, st, m, dlt)
	}
}

// deliver schedules one delivery event — a full map m, or a delta dlt when m
// is nil — for sub or, when sub is nil, for the whole batch: one sampled
// delay, one event, one span. The span stretches from publication to the
// subscriber callbacks, so map-propagation lag is directly visible, and
// staleness is measured from st.pubAt (when the version was published) rather
// than from a later subscribe time. Full and delta deliveries draw their
// delays from the same per-subscriber (or per-batch) RNG stream, so switching
// a publisher to deltas does not shift anyone's delay sequence.
func (s *Service) deliver(sub *Subscription, batch *subBatch, st *appState, m *shard.Map, dlt *shard.Delta) {
	var rng *sim.RNG
	if sub != nil {
		rng = sub.rng
	} else {
		rng = batch.rng
	}
	d := s.delay(rng)
	var sp trace.SpanID
	if tr := s.loop.Tracer(); tr.Enabled() {
		app, version := pubMeta(m, dlt)
		attrs := append(make([]trace.Attr, 0, 4),
			trace.String("app", string(app)), trace.Int64("version", version))
		if sub != nil {
			attrs = append(attrs, trace.Int("sub", sub.id))
		} else {
			attrs = append(attrs, trace.Int("subs", len(batch.subs)))
		}
		if m == nil {
			attrs = append(attrs, trace.Int("edits", dlt.Len()))
		}
		sp = tr.StartSpan("discovery", "propagate", 0, attrs...)
	}
	dv := s.freeDeliveries
	if dv == nil {
		dv = &delivery{s: s}
	} else {
		s.freeDeliveries = dv.next
		dv.next = nil
	}
	dv.sub, dv.batch, dv.st, dv.m, dv.d, dv.pubAt, dv.sp = sub, batch, st, m, dlt, st.pubAt, sp
	s.loop.PostArgL(d, lbDeliver, fire, dv)
}

// fire runs one delivery event at its propagation instant. The propagate span
// ends after the subscriber callbacks return, in every mode, so a span a
// callback starts nests inside it.
func fire(a any) {
	dv := a.(*delivery)
	s, sub, batch, st, m, dlt, pubAt, sp := dv.s, dv.sub, dv.batch, dv.st, dv.m, dv.d, dv.pubAt, dv.sp
	*dv = delivery{s: s, next: s.freeDeliveries}
	s.freeDeliveries = dv

	lag := s.loop.Now() - pubAt
	tr := s.loop.Tracer()
	if sub != nil {
		status := s.apply(sub, st, m, dlt, lag)
		if tr.Enabled() {
			tr.EndSpan(sp, trace.String("status", status))
		}
		return
	}
	delivered := 0
	for _, sub := range batch.subs {
		if s.apply(sub, st, m, dlt, lag) == "delivered" {
			delivered++
		}
	}
	if tr.Enabled() {
		tr.EndSpan(sp, trace.String("status", "delivered"),
			trace.Int("delivered", delivered))
	}
}

// apply hands one publication — a full map m or, when m is nil, the delta dlt
// — to sub at its delivery instant: classify the outcome, count it, tell the
// observers, run the subscriber's callback; it returns the outcome status. A
// cancelled subscriber, or one already at or past the publication's version
// (overtaken by a newer delivery), receives nothing. A delta applies in order
// through the delta callback when the subscriber's version chains onto it
// (lastSeen == FromVersion); a subscriber that missed a version — or that
// subscribed without a delta callback — resyncs from the app's authoritative
// current map instead (status "resync").
func (s *Service) apply(sub *Subscription, st *appState, m *shard.Map, dlt *shard.Delta, lag time.Duration) string {
	app, version := pubMeta(m, dlt)
	status, snap := "delivered", m // snap stays nil when dlt applies in order
	switch {
	case sub.cancelled:
		status = "cancelled"
	case version <= sub.lastSeen:
		status = "stale"
	case m != nil || (sub.deltaFn != nil && sub.lastSeen == dlt.FromVersion):
		// In order: handed over below, after metrics/observers.
	case st.current.Version > sub.lastSeen:
		status, snap, version = "resync", st.current, st.current.Version
	default:
		status = "stale"
	}
	received := status == "delivered" || status == "resync"
	if mr := s.loop.Metrics(); mr != nil {
		mr.Counter("discovery_deliveries_total",
			"app", string(app), "status", status).Inc()
		if received {
			mr.Histogram("discovery_propagation_ms", nil, "app", string(app)).
				Observe(float64(lag) / float64(time.Millisecond))
		}
	}
	for _, obs := range s.observers {
		obs(app, version, lag, status)
	}
	if received {
		sub.lastSeen = version
		if snap != nil {
			sub.fn(snap)
		} else {
			sub.deltaFn(dlt)
		}
	}
	return status
}

// Subscribe registers fn to receive the app's shard maps. If a map already
// exists it is delivered after one propagation delay (a client fetching the
// current state at start-up).
func (s *Service) Subscribe(app shard.AppID, fn func(*shard.Map)) *Subscription {
	if fn == nil {
		panic("discovery: Subscribe(nil)")
	}
	st := s.state(app)
	sub := &Subscription{app: app, id: len(st.subs), fn: fn, rng: s.rng.Fork()}
	st.subs = append(st.subs, sub)
	if s.fanoutBatch > 1 {
		if nb := len(st.batches); nb == 0 || len(st.batches[nb-1].subs) == s.fanoutBatch {
			st.batches = append(st.batches, &subBatch{rng: s.rng.Fork()})
		}
		b := st.batches[len(st.batches)-1]
		b.subs = append(b.subs, sub)
	}
	if st.current != nil {
		// Start-up catch-up is per-subscriber even in batch mode: the new
		// subscriber fetches the current map on its own stream.
		s.deliver(sub, nil, st, st.current, nil)
	}
	return sub
}

// SubscribeDelta registers a delta-aware subscriber. onDelta receives each
// in-order incremental update (the N→N+1 delta when the subscriber's map is
// at N); onFull receives full snapshots — the start-up catch-up, full-map
// publishes, and a resync whenever the subscriber cannot chain onto a
// delivered delta (observer status "resync"). Both arguments are
// service-owned: apply them inside the callback and do not retain them.
// RNG accounting matches Subscribe exactly, so replacing a Subscribe call
// with SubscribeDelta does not perturb a seeded run.
func (s *Service) SubscribeDelta(app shard.AppID, onFull func(*shard.Map), onDelta func(*shard.Delta)) *Subscription {
	if onFull == nil || onDelta == nil {
		panic("discovery: SubscribeDelta(nil)")
	}
	sub := s.Subscribe(app, onFull)
	sub.deltaFn = onDelta
	return sub
}

// Current returns the latest published map for app (no delay — this is the
// authoritative read used by control-plane components, not clients), or nil.
func (s *Service) Current(app shard.AppID) *shard.Map {
	st, ok := s.apps[app]
	if !ok || st.current == nil {
		return nil
	}
	return st.current.Clone()
}

// CurrentMeta returns the version and generation of app's current map
// without cloning it, or ok=false when nothing has been published. Clients
// use it to decide whether a refresh is worth the copy.
func (s *Service) CurrentMeta(app shard.AppID) (version, gen int64, ok bool) {
	st, found := s.apps[app]
	if !found || st.current == nil {
		return 0, 0, false
	}
	return st.current.Version, st.current.Gen, true
}

// CurrentInto clones the latest published map for app into dst, reusing its
// storage (shard.Map.CloneInto; dst may be nil). Returns the clone, or nil
// when nothing has been published.
func (s *Service) CurrentInto(app shard.AppID, dst *shard.Map) *shard.Map {
	st, ok := s.apps[app]
	if !ok || st.current == nil {
		return nil
	}
	return st.current.CloneInto(dst)
}
