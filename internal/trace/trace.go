// Package trace is a zero-dependency, simulated-clock-native tracing
// subsystem for the Shard Manager control plane. The paper's evaluation is
// built on narratives — what happened during a failover, an upgrade window,
// a migration storm (§7–§8) — and aggregate curves cannot answer "why did
// this one migration take 9s". A Tracer records hierarchical spans against
// the simulation clock, in one bounded ring, and exports them as Chrome
// trace-event JSON (chrome://tracing / Perfetto) or a human-readable text
// timeline. The span is the only record: an instant (a publish, a forwarded
// request) is a span that starts and ends at the same time.
//
// The trace observes the simulated system — requests, RPCs, migrations,
// publishes — not the simulator: the event loop's dispatches are simprof's,
// and a message's fate belongs to the span of the layer that sent it.
//
// Because every timestamp comes from the deterministic simulation clock and
// span IDs follow creation order, the exported trace of a fixed-seed
// experiment is byte-identical across runs — a trace is as
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

// Attr is one key/value attribute attached to a span. Values are
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
// client request including its retries — or, with End == Start, one point
// in time such as a publish.
type Span struct {
	ID        SpanID
	Parent    SpanID
	Component string
	Name      string
	Start     time.Duration
	End       time.Duration
	Ended     bool
	Attrs     []Attr

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

// maxSpans bounds the tracer's memory: past it, the oldest spans drop first.
const maxSpans = 1 << 17

// ring is a bounded FIFO of spans: pushing past capacity drops the oldest.
type ring struct {
	buf  []*Span
	head int
}

func newRing(capacity int) *ring { return &ring{buf: make([]*Span, 0, capacity)} }

// push appends sp and returns the span it displaced, if any — the tracer
// recycles evicted spans through its free list.
func (r *ring) push(sp *Span) (old *Span, dropped bool) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, sp)
		return nil, false
	}
	old = r.buf[r.head]
	r.buf[r.head] = sp
	r.head = (r.head + 1) % len(r.buf)
	return old, true
}

// items returns the retained spans oldest-first.
func (r *ring) items() []*Span {
	out := make([]*Span, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// Tracer records spans on a simulated clock.
// The zero value is not usable; create one with New. A nil *Tracer is the
// disabled tracer: all methods are no-ops.
//
// Tracer is safe for concurrent use, though within a simulation every
// component reaches it through its sim.Loop and all calls happen on the
// loop's goroutine.
type Tracer struct {
	mu       sync.Mutex
	clock    Clock
	nextSpan SpanID

	spans *ring
	open  map[SpanID]*Span
	// free recycles spans evicted from the full retention ring: once the
	// ring wraps, steady-state StartSpan allocates nothing. Spans returned
	// by Spans() stay valid only until the ring overflows again.
	free []*Span

	dropped uint64
}

// New returns an enabled tracer. Bind a time source with SetClock (sim.Loop
// does this automatically in SetTracer); until then records are stamped at
// t=0.
func New() *Tracer {
	return &Tracer{
		spans: newRing(maxSpans),
		open:  make(map[SpanID]*Span),
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

// StartSpan opens a span under parent (0 for a root span) and returns its
// ID. On a nil tracer it returns 0.
func (t *Tracer) StartSpan(component, name string, parent SpanID, attrs ...Attr) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSpan++
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
		}
	} else {
		sp = &Span{
			ID:        t.nextSpan,
			Parent:    parent,
			Component: component,
			Name:      name,
			Start:     t.now(),
			Attrs:     attrs,
		}
	}
	if old, dropped := t.spans.push(sp); dropped {
		t.dropped++
		if old.Ended {
			t.free = append(t.free, old)
		} else {
			// Still open: EndSpan will recycle it once it closes.
			old.evicted = true
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

// Dropped returns how many spans were evicted from the bounded ring;
// exporters report it so a truncated trace never reads as a complete one.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
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
