package sim

import (
	"testing"
	"time"
)

// These tests pin down the drain/stop edge cases of the event loop: a stopped
// ticker must never run its callback again, and RunUntil must treat the
// deadline itself as inclusive even for events that are scheduled *at* the
// deadline by another deadline event.

// pending returns the number of scheduled events not yet fired.
func (l *Loop) pending() int { return l.w.stored }

// TestStoppedTickerTickFiresOnceAsNoOp: a stopped ticker never runs fn again.
// Stopped from outside fn, the tick it had already scheduled is still
// dispatched, once, as a no-op; stopped inside fn, it schedules no further
// tick. Either way nothing is pending afterwards.
func TestStoppedTickerTickFiresOnceAsNoOp(t *testing.T) {
	for _, c := range []struct {
		name         string
		inside       bool
		wantDispatch uint64
	}{
		{"stopped outside fn", false, 4},
		{"stopped inside fn", true, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := NewLoop(1)
			n := 0
			var tk *Ticker
			tk = l.EveryL(time.Second, 0, func() {
				n++
				if c.inside && n == 3 {
					tk.Stop()
				}
			})
			l.RunUntil(3 * time.Second)
			if !c.inside {
				if got := l.pending(); got != 1 {
					t.Fatalf("pending = %d before Stop, want 1 (the next tick)", got)
				}
				tk.Stop()
			}
			l.RunUntil(time.Minute)
			if n != 3 {
				t.Fatalf("fn ran %d times, want 3", n)
			}
			if got := l.Dispatched(); got != c.wantDispatch {
				t.Fatalf("dispatched %d events, want %d", got, c.wantDispatch)
			}
			if got := l.pending(); got != 0 {
				t.Fatalf("pending = %d after the run, want 0", got)
			}
		})
	}
}

func TestTickerStopInsideCallbackLeavesNoResidue(t *testing.T) {
	l := NewLoop(1)
	n := 0
	var tk *Ticker
	tk = l.EveryL(time.Second, 0, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	l.RunUntil(time.Minute)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
	if l.pending() != 0 {
		t.Fatalf("pending = %d after ticker stop, want 0 (stale reschedule left behind)", l.pending())
	}
	// A stopped ticker must stay stopped across further loop progress.
	l.RunFor(time.Minute)
	if n != 3 {
		t.Fatalf("stopped ticker ticked again (n=%d)", n)
	}
}

func TestTickerStopThenStopAgain(t *testing.T) {
	l := NewLoop(1)
	tk := l.EveryL(time.Second, 0, func() { t.Error("tick after immediate stop") })
	tk.Stop()
	tk.Stop() // double-stop must be harmless
	l.RunUntil(5 * time.Second)
	if l.pending() != 0 {
		t.Fatalf("pending = %d, want 0", l.pending())
	}
}

func TestRunUntilRunsAllEventsExactlyAtDeadline(t *testing.T) {
	l := NewLoop(1)
	const deadline = 10 * time.Second
	ran := 0
	for i := 0; i < 5; i++ {
		l.AtL(deadline, 0, func() { ran++ })
	}
	l.RunUntil(deadline)
	if ran != 5 {
		t.Fatalf("ran %d deadline events, want 5", ran)
	}
	if l.Now() != deadline {
		t.Fatalf("Now = %v, want %v", l.Now(), deadline)
	}
}

func TestRunUntilRunsReentrantlyScheduledDeadlineEvents(t *testing.T) {
	l := NewLoop(1)
	const deadline = 10 * time.Second
	var order []string
	l.AtL(deadline, 0, func() {
		order = append(order, "first")
		// Scheduled from inside a deadline event, at the deadline: still
		// <= deadline, so RunUntil must run it before returning.
		l.AtL(deadline, 0, func() { order = append(order, "nested") })
	})
	l.AtL(deadline+time.Nanosecond, 0, func() { order = append(order, "past") })
	l.RunUntil(deadline)
	if len(order) != 2 || order[0] != "first" || order[1] != "nested" {
		t.Fatalf("order = %v, want [first nested]", order)
	}
	if l.pending() != 1 {
		t.Fatalf("pending = %d, want 1 (the past-deadline event)", l.pending())
	}
	l.RunFor(time.Second)
	if len(order) != 3 || order[2] != "past" {
		t.Fatalf("order = %v, want past-deadline event to run later", order)
	}
}
