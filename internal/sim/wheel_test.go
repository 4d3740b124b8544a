package sim

import (
	"testing"
	"time"
)

// The timing wheel must dispatch in exactly the order the old global binary
// heap did: ascending (at, seq), FIFO among ties, cancelled events silently
// skipped, RunUntil deadlines inclusive. The property test below drives
// randomized schedule/cancel/run scripts into a real Loop and into a naive
// reference model (linear scan for the minimum — trivially correct), and
// requires identical dispatch logs.

// refEvent is one event in the reference model.
type refEvent struct {
	at        time.Duration
	seq       uint64
	id        int
	child     time.Duration // >= 0: schedule a child this far ahead on fire
	fired     bool
	cancelled bool
}

// refModel is the obviously-correct pending-event store: an unordered slice
// scanned linearly for the minimum (at, seq).
type refModel struct {
	now    time.Duration
	seq    uint64
	events []*refEvent
	nextID int
	log    []int
}

func (r *refModel) schedule(d, child time.Duration) *refEvent {
	at := r.now + d
	if at < r.now {
		at = r.now
	}
	ev := &refEvent{at: at, seq: r.seq, id: r.nextID, child: child}
	r.seq++
	r.nextID++
	r.events = append(r.events, ev)
	return ev
}

func (r *refModel) pending() int {
	n := 0
	for _, ev := range r.events {
		if !ev.fired && !ev.cancelled {
			n++
		}
	}
	return n
}

func (r *refModel) runUntil(deadline time.Duration) {
	for {
		var min *refEvent
		for _, ev := range r.events {
			if ev.fired || ev.cancelled {
				continue
			}
			if min == nil || ev.at < min.at || (ev.at == min.at && ev.seq < min.seq) {
				min = ev
			}
		}
		if min == nil || min.at > deadline {
			break
		}
		min.fired = true
		r.now = min.at
		r.log = append(r.log, min.id)
		if min.child >= 0 {
			r.schedule(min.child, -1)
		}
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// delayMix samples delays spanning every wheel level: sub-tick, L0 (~ms),
// L1 (~s), L2 (~min-h), L3 (~h), L4 (~days), and the overflow heap beyond
// ~52 days — plus exact tick-boundary values to probe off-by-one filing.
func delayMix(rng *RNG) time.Duration {
	const tick = 1 << tickShift
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return time.Duration(rng.Intn(1000)) // sub-microsecond
	case 2:
		return time.Duration(rng.Intn(tick)) // within one tick
	case 3:
		return time.Duration(rng.Intn(200 * tick)) // L0
	case 4:
		return time.Duration(rng.Intn(int(30 * time.Second))) // L0/L1
	case 5:
		return time.Duration(rng.Intn(int(4 * time.Hour))) // L1/L2
	case 6:
		return 18*time.Hour + time.Duration(rng.Intn(int(12*time.Hour))) // L2/L3
	case 7:
		return time.Duration(1+rng.Intn(40)) * 24 * time.Hour // L3/L4
	case 8:
		return time.Duration(55+rng.Intn(120)) * 24 * time.Hour // L4/overflow
	case 9:
		// Exact tick multiples and their neighbors.
		base := time.Duration(rng.Intn(1<<14)) * tick
		return base + time.Duration(rng.Intn(3)-1)
	case 10:
		// Level-horizon boundaries: 2^8, 2^14, 2^20 ticks, +/- 1 tick.
		h := []time.Duration{1 << 8 * tick, 1 << 14 * tick, 1 << 20 * tick}[rng.Intn(3)]
		return h + time.Duration(rng.Intn(3)-1)*tick
	default:
		return time.Duration(rng.Intn(int(2 * time.Minute)))
	}
}

func TestWheelDispatchOrderMatchesReferenceHeap(t *testing.T) {
	const (
		seeds        = 8
		sequences    = 150 // x8 seeds = 1200 randomized scripts
		opsPerScript = 40
	)
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := NewRNG(seed * 0x9e3779b9)
		for s := 0; s < sequences; s++ {
			loop := NewLoop(7)
			ref := &refModel{}
			var log []int
			var timers []*Timer
			var refs []*refEvent
			topIDs := make(map[int]bool)
			scheduleBoth := func() {
				d := delayMix(rng)
				child := time.Duration(-1)
				if rng.Intn(4) == 0 {
					child = delayMix(rng)
				}
				id := ref.nextID
				topIDs[id] = true
				re := ref.schedule(d, child)
				tm := loop.AfterL(d, 0, func() {
					log = append(log, id)
					if child >= 0 {
						// Children consume a seq on both sides in fire order;
						// the reference mirrors this inside runUntil. Only
						// top-level ids are logged and compared — a child
						// ordering bug still surfaces as a seq skew that
						// reorders later same-instant top-level events.
						loop.AfterL(child, 0, func() {})
					}
				})
				timers = append(timers, tm)
				refs = append(refs, re)
			}
			for op := 0; op < opsPerScript; op++ {
				switch rng.Intn(6) {
				case 0, 1, 2: // schedule (sometimes a same-instant burst)
					n := 1
					if rng.Intn(5) == 0 {
						n = 2 + rng.Intn(4)
					}
					for i := 0; i < n; i++ {
						scheduleBoth()
					}
				case 3: // cancel a random top-level timer
					if len(timers) > 0 {
						k := rng.Intn(len(timers))
						got := timers[k].Stop()
						want := !refs[k].fired && !refs[k].cancelled
						refs[k].cancelled = true
						if got != want {
							t.Fatalf("seed %d seq %d: Stop(#%d) = %v, reference pending = %v",
								seed, s, k, got, want)
						}
					}
				case 4: // run a bounded slice of time
					d := delayMix(rng)
					loop.RunFor(d)
					ref.runUntil(ref.now + d)
				case 5: // run to a far deadline crossing many cascades
					d := time.Duration(1+rng.Intn(3)) * 30 * time.Hour
					loop.RunFor(d)
					ref.runUntil(ref.now + d)
				}
				if got, want := loop.Pending(), ref.pending(); got != want {
					t.Fatalf("seed %d seq %d op %d: Pending = %d, reference = %d",
						seed, s, op, got, want)
				}
				if loop.Now() != ref.now {
					t.Fatalf("seed %d seq %d op %d: Now = %v, reference = %v",
						seed, s, op, loop.Now(), ref.now)
				}
			}
			// Drain everything (children included) and compare full logs.
			loop.RunFor(400 * 24 * time.Hour)
			ref.runUntil(ref.now + 400*24*time.Hour)
			want := make([]int, 0, len(ref.log))
			for _, id := range ref.log {
				if topIDs[id] {
					want = append(want, id)
				}
			}
			if len(log) != len(want) {
				t.Fatalf("seed %d seq %d: fired %d events, reference fired %d",
					seed, s, len(log), len(want))
			}
			for i := range log {
				if log[i] != want[i] {
					t.Fatalf("seed %d seq %d: dispatch order diverges at %d: got id %d, reference id %d",
						seed, s, i, log[i], want[i])
				}
			}
			if loop.Pending() != 0 || ref.pending() != 0 {
				t.Fatalf("seed %d seq %d: residue after drain: loop=%d ref=%d",
					seed, s, loop.Pending(), ref.pending())
			}
		}
	}
}

func TestCompactionSweepsCancelledEvents(t *testing.T) {
	l := NewLoop(1)
	timers := make([]*Timer, 0, 1000)
	fired := 0
	for i := 0; i < 1000; i++ {
		// Spread across levels so the sweep touches near, L0, upper levels.
		d := time.Duration(i) * 37 * time.Millisecond
		timers = append(timers, l.AfterL(d, 0, func() { fired++ }))
	}
	// Cancel 600. The sweep triggers at the 501st cancel (cancelled*2 >
	// stored once 501*2 > 1000), reclaiming all 501 dead entries; the
	// remaining 99 cancels sit below the 256-entry floor and await lazy
	// drain. So the structure holds 400 live + 99 cancelled entries.
	for i := 0; i < 600; i++ {
		timers[i].Stop()
	}
	if got := l.queueLen(); got != 499 {
		t.Fatalf("queueLen = %d after compaction, want 499 (400 live + 99 lazy)", got)
	}
	if got := l.Pending(); got != 400 {
		t.Fatalf("Pending = %d, want 400", got)
	}
	// Double-stop of compacted (recycled) timers must be inert.
	for i := 0; i < 600; i++ {
		if timers[i].Stop() {
			t.Fatalf("Stop(#%d) on compacted timer returned true", i)
		}
	}
	l.Run()
	if fired != 400 {
		t.Fatalf("fired = %d, want 400 survivors", fired)
	}
	if got := l.queueLen(); got != 0 {
		t.Fatalf("queueLen = %d after drain, want 0", got)
	}
}

func TestCompactionBelowFloorKeepsLazyEntries(t *testing.T) {
	l := NewLoop(1)
	var timers []*Timer
	for i := 0; i < 100; i++ {
		timers = append(timers, l.AfterL(time.Duration(i+1)*time.Second, 0, func() {}))
	}
	for _, tm := range timers {
		tm.Stop()
	}
	// 100 cancelled is under the 256 floor: entries stay for lazy drain,
	// exactly as the old heap behaved (drain_test pins this at small scale).
	if got := l.queueLen(); got != 100 {
		t.Fatalf("queueLen = %d, want 100 (no compaction below floor)", got)
	}
	l.RunUntil(2 * time.Minute)
	if got := l.queueLen(); got != 0 {
		t.Fatalf("queueLen = %d after drain, want 0", got)
	}
}

func TestScheduleDispatchAllocationFree(t *testing.T) {
	l := NewLoop(1)
	var n int
	cb := func(any) { n++ }
	// Warm the freelist and the near heap's capacity.
	for i := 0; i < 1000; i++ {
		l.PostArgL(time.Duration(i)*time.Millisecond, 0, cb, nil)
	}
	l.Run()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 50; i++ {
			l.PostArgL(time.Duration(i)*13*time.Millisecond, 0, cb, nil)
		}
		l.Run()
	})
	if allocs != 0 {
		t.Fatalf("schedule+dispatch allocated %.2f allocs/run, want 0", allocs)
	}
}

func TestTickerSteadyStateAllocationFree(t *testing.T) {
	l := NewLoop(1)
	n := 0
	tk := l.EveryL(time.Second, 0, func() { n++ })
	l.RunFor(10 * time.Second) // warm-up
	allocs := testing.AllocsPerRun(100, func() {
		l.RunFor(10 * time.Second)
	})
	tk.Stop()
	if allocs != 0 {
		t.Fatalf("ticker steady state allocated %.2f allocs/run, want 0", allocs)
	}
}
