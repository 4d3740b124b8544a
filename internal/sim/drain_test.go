package sim

import (
	"testing"
	"time"
)

// These tests pin down the drain/stop edge cases of the event loop: stopping
// timers and tickers must never leave stale callbacks that fire later, and
// RunUntil must treat the deadline itself as inclusive even for events that
// are scheduled *at* the deadline by another deadline event.

func TestTimerStopAfterFireIsInert(t *testing.T) {
	l := NewLoop(1)
	n := 0
	tm := l.AfterL(time.Second, 0, func() { n++ })
	l.Run()
	if n != 1 {
		t.Fatalf("fired %d times, want 1", n)
	}
	// Stop after firing must report not-pending and must not disturb other
	// scheduled work.
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
	l.AfterL(time.Second, 0, func() { n++ })
	if tm.Stop() {
		t.Fatal("repeated Stop returned true")
	}
	l.Run()
	if n != 2 {
		t.Fatalf("later event did not run (n=%d)", n)
	}
}

func TestCancelledEventsDrainFromQueue(t *testing.T) {
	l := NewLoop(1)
	timers := make([]*Timer, 0, 10)
	for i := 0; i < 10; i++ {
		timers = append(timers, l.AfterL(time.Duration(i+1)*time.Second, 0, func() {
			t.Error("cancelled timer fired")
		}))
	}
	for _, tm := range timers {
		tm.Stop()
	}
	// Cancelled entries still sit in the heap awaiting lazy removal, but
	// Pending counts only callbacks that will actually fire.
	if l.Pending() != 0 {
		t.Fatalf("Pending = %d after cancelling all, want 0", l.Pending())
	}
	l.RunUntil(time.Minute)
	if l.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", l.Pending())
	}
	if l.Now() != time.Minute {
		t.Fatalf("Now = %v, want 1m", l.Now())
	}
}

func TestPendingExcludesCancelledButUndrainedEvents(t *testing.T) {
	l := NewLoop(1)
	fired := 0
	keepA := l.AfterL(time.Second, 0, func() { fired++ })
	victim := l.AfterL(2*time.Second, 0, func() { t.Error("cancelled timer fired") })
	keepB := l.AfterL(3*time.Second, 0, func() { fired++ })
	if l.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", l.Pending())
	}
	// Cancel the middle event: it stays in the heap (lazy removal) but must
	// leave the pending count immediately.
	if !victim.Stop() {
		t.Fatal("Stop reported not-pending for a live timer")
	}
	if l.Pending() != 2 {
		t.Fatalf("Pending = %d after one cancel, want 2 (raw heap still holds 3)", l.Pending())
	}
	if got := l.queueLen(); got != 3 {
		t.Fatalf("queue length = %d, want 3 (cancelled entry awaits lazy drain)", got)
	}
	// Double-stop and stop-after-fire must not decrement again.
	victim.Stop()
	if l.Pending() != 2 {
		t.Fatalf("Pending = %d after double stop, want 2", l.Pending())
	}
	l.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if l.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", l.Pending())
	}
	keepA.Stop()
	keepB.Stop()
	if l.Pending() != 0 {
		t.Fatalf("Pending = %d after stopping fired timers, want 0", l.Pending())
	}
	if got := l.Dispatched(); got != 2 {
		t.Fatalf("Dispatched = %d, want 2 (cancelled events never count)", got)
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
	if l.Pending() != 0 {
		t.Fatalf("Pending = %d after ticker stop, want 0 (stale reschedule left behind)", l.Pending())
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
	if l.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", l.Pending())
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
	if l.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (the past-deadline event)", l.Pending())
	}
	l.RunFor(time.Second)
	if len(order) != 3 || order[2] != "past" {
		t.Fatalf("order = %v, want past-deadline event to run later", order)
	}
}

func TestRunUntilSkipsCancelledHeadEvent(t *testing.T) {
	l := NewLoop(1)
	tm := l.AfterL(time.Second, 0, func() { t.Error("cancelled head fired") })
	ran := false
	l.AfterL(2*time.Second, 0, func() { ran = true })
	tm.Stop()
	l.RunUntil(2 * time.Second)
	if !ran {
		t.Fatal("event behind cancelled head did not run")
	}
	if l.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", l.Pending())
	}
}
