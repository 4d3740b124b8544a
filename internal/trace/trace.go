// Package trace is a zero-dependency, simulated-clock-native tracing
// subsystem for the Shard Manager control plane. The paper's evaluation is
// built on narratives — what happened during a failover, an upgrade window,
// a migration storm (§7–§8) — and aggregate curves cannot answer "why did
// this one migration take 9s". A Tracer records hierarchical spans and
// structured point events against the simulation clock, in bounded rings,
// and exports them as Chrome trace-event JSON (chrome://tracing / Perfetto)
// or a human-readable text timeline.
//
// The trace observes the simulated system — requests, RPCs, migrations,
// publishes — not the simulator: the event loop's dispatches are simprof's,
// and a message's fate belongs to the span of the layer that sent it.
//
// Because every timestamp comes from the deterministic simulation clock and
// every record carries a global insertion sequence, the exported trace of a
// fixed-seed experiment is byte-identical across runs — a trace is as
// reproducible as the experiment it came from.
//
// A nil *Tracer is valid and disabled: every method is a nil-receiver
// no-op, so instrumented code paths pay only a pointer test when tracing is
// off (hot paths additionally guard attribute construction behind
// Enabled).
package trace

import (
	"strconv"
	"sync"
	"time"
)

// Clock supplies the current simulated time. It is structurally identical
// to sim.Clock; trace declares its own copy so the sim package can depend
// on trace without a cycle.
type Clock interface {
	Now() time.Duration
}

// SpanID identifies one span. Zero means "no span" (no parent / disabled
// tracer).
type SpanID uint64

// Attr is one key/value attribute attached to a span or event. Values are
// pre-rendered strings so records are immutable and export is trivially
// deterministic.
type Attr struct {
	Key, Val string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Val: strconv.Itoa(v)} }

// Int64 builds an int64 attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Val: strconv.FormatInt(v, 10)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Val: strconv.FormatBool(v)} }

// Dur builds a duration attribute.
func Dur(k string, d time.Duration) Attr { return Attr{Key: k, Val: d.String()} }

// Span is one hierarchical interval: a migration, an RPC round trip, a
// client request including its retries.
type Span struct {
	ID        SpanID
	Parent    SpanID
	Component string
	Name      string
	Start     time.Duration
	End       time.Duration
	Ended     bool
	Attrs     []Attr

	seq uint64
	// evicted marks a span dropped from the retention ring while still
	// open; EndSpan returns it to the free list instead of the ring.
	evicted bool
}

// Duration returns End-Start for ended spans and 0 for open ones.
func (s *Span) Duration() time.Duration {
	if !s.Ended {
		return 0
	}
	return s.End - s.Start
}

// Attr returns the value of the named attribute ("" if absent).
func (s *Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// Event is one structured point event, optionally associated with a span.
type Event struct {
	Component string
	Name      string
	Span      SpanID
	Time      time.Duration
	Attrs     []Attr

	seq uint64
}

// The tracer's memory bounds: each ring drops its oldest records first.
const (
	maxSpans  = 1 << 17 // retained spans
	maxEvents = 1 << 15 // retained events per component
)

// ring is a bounded FIFO: pushing past capacity drops the oldest element.
type ring[T any] struct {
	buf  []T
	head int
}

func newRing[T any](capacity int) *ring[T] { return &ring[T]{buf: make([]T, 0, capacity)} }

// push appends v, reporting whether an old element was dropped to make room.
func (r *ring[T]) push(v T) bool {
	_, dropped := r.pushEvict(v)
	return dropped
}

// pushEvict appends v and returns the element it displaced, if any — the
// span ring recycles evicted records through the tracer's free list.
func (r *ring[T]) pushEvict(v T) (old T, dropped bool) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return old, false
	}
	old = r.buf[r.head]
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	return old, true
}

// items returns the retained elements oldest-first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// Tracer records spans and events on a simulated clock.
// The zero value is not usable; create one with New. A nil *Tracer is the
// disabled tracer: all methods are no-ops.
//
// Tracer is safe for concurrent use (the coord store fires watches under
// its own locking discipline), though within a simulation all calls happen
// on the single event-loop goroutine.
type Tracer struct {
	mu    sync.Mutex
	clock Clock
	// eventCap sizes each component's event ring: maxEvents.
	eventCap int

	seq      uint64
	nextSpan SpanID

	spans *ring[*Span]
	open  map[SpanID]*Span
	// free recycles spans evicted from the full retention ring: once the
	// ring wraps, steady-state StartSpan allocates nothing. Spans returned
	// by Spans() stay valid only until the ring overflows again.
	free []*Span

	comps   []string // component first-use order, for stable export
	perComp map[string]*ring[Event]

	droppedSpans  uint64
	droppedEvents uint64
}

// New returns an enabled tracer. Bind a time source with SetClock (sim.Loop
// does this automatically in SetTracer); until then records are stamped at
// t=0.
func New() *Tracer {
	return &Tracer{
		eventCap: maxEvents,
		spans:    newRing[*Span](maxSpans),
		open:     make(map[SpanID]*Span),
		perComp:  make(map[string]*ring[Event]),
	}
}

// Enabled reports whether the tracer records anything. It is the guard hot
// paths use before building attributes.
func (t *Tracer) Enabled() bool { return t != nil }

// SetClock binds the time source used to stamp records.
func (t *Tracer) SetClock(c Clock) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = c
	t.mu.Unlock()
}

// now returns the current time; callers hold t.mu.
func (t *Tracer) now() time.Duration {
	if t.clock == nil {
		return 0
	}
	return t.clock.Now()
}

// component returns the named component's event ring, making it (and the
// component's export slot) on first use.
func (t *Tracer) component(name string) *ring[Event] {
	r, ok := t.perComp[name]
	if !ok {
		r = newRing[Event](t.eventCap)
		t.perComp[name] = r
		t.comps = append(t.comps, name)
	}
	return r
}

// StartSpan opens a span under parent (0 for a root span) and returns its
// ID. On a nil tracer it returns 0.
func (t *Tracer) StartSpan(component, name string, parent SpanID, attrs ...Attr) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSpan++
	t.seq++
	var sp *Span
	if n := len(t.free); n > 0 {
		sp = t.free[n-1]
		t.free = t.free[:n-1]
		*sp = Span{
			ID:        t.nextSpan,
			Parent:    parent,
			Component: component,
			Name:      name,
			Start:     t.now(),
			Attrs:     append(sp.Attrs[:0], attrs...),
			seq:       t.seq,
		}
	} else {
		sp = &Span{
			ID:        t.nextSpan,
			Parent:    parent,
			Component: component,
			Name:      name,
			Start:     t.now(),
			Attrs:     attrs,
			seq:       t.seq,
		}
	}
	t.component(component) // reserve the component's export slot in first-use order
	if old, dropped := t.spans.pushEvict(sp); dropped {
		t.droppedSpans++
		if old != nil {
			if old.Ended {
				t.free = append(t.free, old)
			} else {
				// Still open: EndSpan will recycle it once it closes.
				old.evicted = true
			}
		}
	}
	t.open[sp.ID] = sp
	return sp.ID
}

// EndSpan closes the span, appending any final attributes. Ending an
// unknown, already-ended, or zero span is a no-op.
func (t *Tracer) EndSpan(id SpanID, attrs ...Attr) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	sp.End = t.now()
	sp.Ended = true
	sp.Attrs = append(sp.Attrs, attrs...)
	if sp.evicted {
		sp.evicted = false
		t.free = append(t.free, sp)
	}
}

// Event records a structured point event, optionally tied to a span (0 for
// none).
func (t *Tracer) Event(component, name string, span SpanID, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	ev := Event{
		Component: component,
		Name:      name,
		Span:      span,
		Time:      t.now(),
		Attrs:     attrs,
		seq:       t.seq,
	}
	if t.component(component).push(ev) {
		t.droppedEvents++
	}
}

// Spans returns the retained spans oldest-first. The returned spans are the
// live records; callers must not mutate them.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.items()
}

// Events returns the retained events of every component, oldest-first per
// component, components in first-use order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	for _, c := range t.comps {
		out = append(out, t.perComp[c].items()...)
	}
	return out
}

// Dropped returns how many spans and events were evicted from the
// bounded rings; exporters report it so a truncated trace never reads as a
// complete one.
func (t *Tracer) Dropped() (spans, events uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.droppedSpans, t.droppedEvents
}

// FindSpans returns the retained spans of a component with the given name
// (both "" match all), oldest-first — a test and debugging helper.
func (t *Tracer) FindSpans(component, name string) []*Span {
	var out []*Span
	for _, sp := range t.Spans() {
		if (component == "" || sp.Component == component) && (name == "" || sp.Name == name) {
			out = append(out, sp)
		}
	}
	return out
}
