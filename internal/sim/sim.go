// Package sim provides a deterministic discrete-event simulation kernel.
//
// All Shard Manager components take time from a Clock rather than the wall
// clock, so the same control-plane code runs both in unit tests (driven
// directly) and in whole-cluster experiments (driven by a Loop). A Loop is a
// single-threaded event queue: callbacks scheduled with AtL or AfterL run in
// timestamp order, ties broken by scheduling order, which makes every
// experiment reproducible from its seed.
//
// An event has one lifecycle: scheduled, then fired; the loop withdraws
// nothing. A deferred action that may no longer apply checks that when it
// fires, the way §4.3's fencing checks a late grant where it lands, and a
// stopped Ticker's already-scheduled tick fires as a no-op.
//
// Pending events live in one timing-wheel level of 256 ~1 ms slots in front
// of a heap for everything farther out (see wheel.go) rather than in one
// global binary heap, and event objects are recycled through a
// per-loop freelist, so the schedule/dispatch hot path is allocation-free
// and O(1) for the short delays that dominate cluster simulations.
package sim

import (
	"fmt"
	"math"
	"time"

	"shardmanager/internal/metrics"
	"shardmanager/internal/trace"
)

// Clock supplies the current simulated time.
type Clock interface {
	// Now returns the current simulated time as an offset from the
	// simulation epoch.
	Now() time.Duration
}

// event is a pooled scheduled callback. Exactly one of fn / fnA is set while
// it is pending. fnA carries its argument in arg, which avoids a closure
// allocation per schedule on arg-shaped hot paths (RPC envelopes, map
// deliveries). next links freelist entries and wheel slot lists.
type event struct {
	at    time.Duration
	seq   uint64
	fn    func()
	fnA   func(any)
	arg   any
	label Label
	next  *event
}

// Loop is a single-threaded discrete-event loop. The zero value is not
// usable; create one with NewLoop.
type Loop struct {
	now        time.Duration
	seq        uint64
	w          wheel
	dispatched uint64 // total events fired over the loop's lifetime
	rng        *RNG
	tracer     *trace.Tracer
	metrics    *metrics.Registry
	prof       Profiler

	free *event // recycled event objects

	// tramp adapts a pending (fnA, arg) pair to the profiler's func()
	// dispatch hook without allocating a closure per event: the pair is
	// staged on the loop and consumed by the one prebuilt trampoline.
	tramp func()
	pfnA  func(any)
	parg  any
}

// NewLoop returns an event loop starting at time zero with a deterministic
// RNG seeded by seed.
func NewLoop(seed uint64) *Loop {
	l := &Loop{rng: NewRNG(seed)}
	l.tramp = func() {
		fnA, arg := l.pfnA, l.parg
		l.pfnA, l.parg = nil, nil
		fnA(arg)
	}
	return l
}

// Now returns the current simulated time.
func (l *Loop) Now() time.Duration { return l.now }

// RNG returns the loop's deterministic random source.
func (l *Loop) RNG() *RNG { return l.rng }

// SetTracer attaches a tracer to the loop and binds it to the loop's clock.
// The loop is the tracer's one way in: every traced component holds the
// loop and reaches the same tracer through Tracer(), and none takes a
// tracer of its own (a store with no loop, like coord's, is recorded by the
// component that consumes it). Pass nil to disable tracing. The loop
// itself records nothing: the trace observes the simulated system, and
// dispatch is the simulator's, which simprof times (SetProfiler).
func (l *Loop) SetTracer(tr *trace.Tracer) {
	l.tracer = tr
	if tr != nil {
		tr.SetClock(l)
	}
}

// Tracer returns the loop's tracer, or nil when tracing is disabled.
// Callers must treat a nil result as a valid disabled tracer.
func (l *Loop) Tracer() *trace.Tracer { return l.tracer }

// SetMetrics attaches a labeled-metrics registry to the loop, following the
// same pattern as SetTracer: components reach the shared registry through
// Metrics() without extra plumbing. Pass nil to disable metrics.
func (l *Loop) SetMetrics(r *metrics.Registry) { l.metrics = r }

// Metrics returns the loop's metrics registry, or nil when metrics are
// disabled. A nil *metrics.Registry is itself a valid no-op sink, so callers
// may use the result without checking.
func (l *Loop) Metrics() *metrics.Registry { return l.metrics }

// SetProfiler attaches a kernel profiler to the loop (internal/simprof
// provides one). Pass nil to disable; disabled profiling costs one pointer
// test per schedule and dispatch. The profiler must be attached before the
// events it should attribute are scheduled, and must not be shared between
// concurrently running loops.
func (l *Loop) SetProfiler(p Profiler) { l.prof = p }

// Dispatched returns the total number of events the loop has fired. It is
// maintained unconditionally (the counter is one increment per event), so
// throughput benchmarks need no profiler.
func (l *Loop) Dispatched() uint64 { return l.dispatched }

// allocEvent takes an event object off the freelist, growing it by a batch
// when empty. Objects are never returned to the runtime: peak pending events
// bound the arena, which keeps long sims allocation-free at steady state.
func (l *Loop) allocEvent() *event {
	ev := l.free
	if ev == nil {
		chunk := make([]event, 64)
		for i := len(chunk) - 1; i > 0; i-- {
			chunk[i].next = l.free
			l.free = &chunk[i]
		}
		ev = &chunk[0]
		return ev
	}
	l.free = ev.next
	ev.next = nil
	return ev
}

// recycle returns a dispatched event to the freelist.
func (l *Loop) recycle(ev *event) {
	ev.fn, ev.fnA, ev.arg = nil, nil, nil
	ev.label = 0
	ev.next = l.free
	l.free = ev
}

// schedule files a new event; the common core of every scheduling method.
func (l *Loop) schedule(t time.Duration, lb Label, fn func(), fnA func(any), arg any) {
	if t < l.now {
		t = l.now
	}
	ev := l.allocEvent()
	ev.at, ev.seq, ev.fn, ev.fnA, ev.arg, ev.label = t, l.seq, fn, fnA, arg, lb
	l.seq++
	l.w.stored++
	l.w.file(ev)
	if p := l.prof; p != nil {
		p.OnSchedule(lb)
	}
}

// AfterL schedules fn to run d after the current time, attributing its
// dispatch cost to lb when a profiler is attached.
func (l *Loop) AfterL(d time.Duration, lb Label, fn func()) {
	if d < 0 {
		d = 0
	}
	l.AtL(l.now+d, lb, fn)
}

// AtL schedules fn at absolute time t (clamped to the present) under an
// attribution label.
func (l *Loop) AtL(t time.Duration, lb Label, fn func()) {
	if fn == nil {
		panic("sim: AtL with nil callback")
	}
	l.schedule(t, lb, fn, nil, nil)
}

// PostArgL schedules fn(arg) to run d after the current time. It is the
// allocation-free form for hot paths (message deliveries, replies): no closure
// is captured, and the pooled event is the only storage the callback
// occupies. arg should be a pointer type so boxing it into the event is
// allocation-free.
func (l *Loop) PostArgL(d time.Duration, lb Label, fn func(any), arg any) {
	if fn == nil {
		panic("sim: PostArgL with nil callback")
	}
	if d < 0 {
		d = 0
	}
	l.schedule(l.now+d, lb, nil, fn, arg)
}

// EveryL schedules fn to run every interval, starting one interval from now,
// until the returned Ticker is stopped; lb attributes every tick.
func (l *Loop) EveryL(interval time.Duration, lb Label, fn func()) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: EveryL with non-positive interval %v", interval))
	}
	tk := &Ticker{loop: l, interval: interval, label: lb, fn: fn}
	tk.schedule()
	return tk
}

// Ticker repeatedly schedules a callback at a fixed interval. The ticker
// itself rides the event's arg slot, so steady-state ticking allocates
// nothing: one pooled event per tick, no closures.
type Ticker struct {
	loop     *Loop
	interval time.Duration
	label    Label
	fn       func()
	stopped  bool
}

func tickerFire(a any) {
	t := a.(*Ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.schedule()
	}
}

func (t *Ticker) schedule() {
	t.loop.schedule(t.loop.now+t.interval, t.label, nil, tickerFire, t)
}

// Stop ends the ticks: fn does not run again. Stopped from outside fn, the
// tick already scheduled still fires, once, as a no-op.
func (t *Ticker) Stop() { t.stopped = true }

// Step runs the next pending event. It reports whether an event ran.
func (l *Loop) Step() bool {
	return l.stepBounded(0, false)
}

// stepBounded runs the next pending event whose timestamp is <= deadline
// (any timestamp when limited is false).
func (l *Loop) stepBounded(deadline time.Duration, limited bool) bool {
	w := &l.w
	if len(w.near) == 0 {
		if w.stored == 0 {
			return false
		}
		limitTick := uint64(math.MaxUint64)
		if limited {
			limitTick = tickOf(int64(deadline))
			if limitTick <= w.curTick {
				return false
			}
		}
		w.advance(limitTick)
		if len(w.near) == 0 {
			return false
		}
	}
	ev := w.near[0]
	if limited && ev.at > deadline {
		return false
	}
	heapPop(&w.near)
	w.stored--
	l.now = ev.at
	lb, fn, fnA, arg := ev.label, ev.fn, ev.fnA, ev.arg
	l.recycle(ev)
	l.dispatched++
	l.invoke(lb, fn, fnA, arg)
	return true
}

// invoke runs one event callback, routing it through the profiler when one
// is attached. The profiler wraps a func() so the measured interval covers
// only the callback; arg-carrying events go through the loop's trampoline
// rather than a fresh closure.
func (l *Loop) invoke(lb Label, fn func(), fnA func(any), arg any) {
	if p := l.prof; p != nil {
		if fn == nil {
			l.pfnA, l.parg = fnA, arg
			fn = l.tramp
		}
		p.Dispatch(lb, l.now, l.w.stored, l.w.stored, fn)
		return
	}
	if fn != nil {
		fn()
		return
	}
	fnA(arg)
}

// Run executes events until the queue drains.
func (l *Loop) Run() {
	for l.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to the deadline.
func (l *Loop) RunUntil(deadline time.Duration) {
	for l.stepBounded(deadline, true) {
	}
	if l.now < deadline {
		l.now = deadline
	}
}

// RunFor executes events for d of simulated time from the current instant.
func (l *Loop) RunFor(d time.Duration) { l.RunUntil(l.now + d) }

// RNG is a splitmix64 pseudo-random generator. It is deliberately simple and
// fully deterministic across platforms, unlike math/rand's global source.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("sim: Intn(%d)", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative random int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// NormFloat64 returns a normally distributed value (mean 0, stddev 1) using
// the Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		if u1 == 0 {
			continue
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Fork derives an independent generator; useful to give each component its
// own stream so that adding randomness in one place does not perturb others.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}
