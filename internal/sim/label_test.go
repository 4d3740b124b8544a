package sim

import (
	"testing"
	"time"
)

func TestLabelInterning(t *testing.T) {
	a := LabelFor("compA", "kindX")
	b := LabelFor("compA", "kindX")
	c := LabelFor("compA", "kindY")
	if a != b {
		t.Fatalf("same pair interned twice: %d vs %d", a, b)
	}
	if a == c || a == 0 || c == 0 {
		t.Fatalf("distinct pairs collided or hit the reserved label: %d %d", a, c)
	}
	comp, kind := LabelName(a)
	if comp != "compA" || kind != "kindX" {
		t.Fatalf("LabelName(%d) = (%q, %q)", a, comp, kind)
	}
	if comp, kind := LabelName(0); comp != "" || kind != "" {
		t.Fatalf("LabelName(0) = (%q, %q), want empty", comp, kind)
	}
	if n := NumLabels(); n <= int(a) || n <= int(c) {
		t.Fatalf("NumLabels() = %d does not cover interned labels", n)
	}
}

// recordingProfiler captures the hook sequence the loop feeds a profiler.
type recordingProfiler struct {
	scheduled []Label
	dispatch  []Label
	heapLens  []int
	lives     []int
	simTimes  []time.Duration
}

func (r *recordingProfiler) OnSchedule(lb Label) { r.scheduled = append(r.scheduled, lb) }
func (r *recordingProfiler) Dispatch(lb Label, now time.Duration, heapLen, live int, fn func()) {
	r.dispatch = append(r.dispatch, lb)
	r.heapLens = append(r.heapLens, heapLen)
	r.lives = append(r.lives, live)
	r.simTimes = append(r.simTimes, now)
	fn()
}

func TestProfilerHooksSeeScheduleDispatch(t *testing.T) {
	l := NewLoop(1)
	rec := &recordingProfiler{}
	l.SetProfiler(rec)
	lbA := LabelFor("hooktest", "a")
	lbB := LabelFor("hooktest", "b")

	ran := 0
	l.AfterL(time.Second, lbA, func() { ran++ })
	l.AtL(2*time.Second, lbB, func() { ran++ })
	l.PostArgL(3*time.Second, lbA, func(any) { ran++ }, nil)
	l.AfterL(4*time.Second, 0, func() { ran++ }) // unlabeled
	l.Run()

	wantSched := []Label{lbA, lbB, lbA, 0}
	if len(rec.scheduled) != 4 {
		t.Fatalf("scheduled hooks = %v, want %v", rec.scheduled, wantSched)
	}
	for i, lb := range wantSched {
		if rec.scheduled[i] != lb {
			t.Fatalf("scheduled hooks = %v, want %v", rec.scheduled, wantSched)
		}
	}
	wantDispatch := []Label{lbA, lbB, lbA, 0}
	if len(rec.dispatch) != 4 {
		t.Fatalf("dispatch hooks = %v, want %v", rec.dispatch, wantDispatch)
	}
	for i, lb := range wantDispatch {
		if rec.dispatch[i] != lb {
			t.Fatalf("dispatch hooks = %v, want %v", rec.dispatch, wantDispatch)
		}
	}
	if ran != 4 {
		t.Fatalf("callbacks ran = %d, want 4", ran)
	}
	// Sim times are the event timestamps; both pending counts carry the
	// post-pop queue, which shrinks to zero.
	wantTimes := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	for i, d := range wantTimes {
		if rec.simTimes[i] != d {
			t.Fatalf("dispatch sim times = %v, want %v", rec.simTimes, wantTimes)
		}
		if want := len(wantTimes) - 1 - i; rec.heapLens[i] != want || rec.lives[i] != want {
			t.Fatalf("pending counts at dispatch %d = (%d, %d), want (%d, %d)", i, rec.heapLens[i], rec.lives[i], want, want)
		}
	}
}

func TestEveryLAttributesTicks(t *testing.T) {
	l := NewLoop(1)
	rec := &recordingProfiler{}
	l.SetProfiler(rec)
	lb := LabelFor("hooktest", "tick")
	n := 0
	var tk *Ticker
	tk = l.EveryL(time.Second, lb, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	l.RunUntil(10 * time.Second)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
	for _, got := range rec.dispatch {
		if got != lb {
			t.Fatalf("tick dispatched under label %d, want %d", got, lb)
		}
	}
	// Stopping the ticker from inside its own callback suppresses the
	// reschedule, so no no-op tick is dispatched.
	if len(rec.dispatch) != 3 {
		t.Fatalf("dispatches = %d, want 3", len(rec.dispatch))
	}
}

// TestDisabledProfilerAddsNoAllocations pins the satellite requirement that
// the disabled-profiler path costs nothing: scheduling and dispatching a
// labeled event allocates exactly as much as an unlabeled one.
func TestDisabledProfilerAddsNoAllocations(t *testing.T) {
	lb := LabelFor("alloctest", "tick")
	measure := func(schedule func(l *Loop)) float64 {
		l := NewLoop(1)
		return testing.AllocsPerRun(200, func() {
			schedule(l)
			l.Step()
		})
	}
	plain := measure(func(l *Loop) { l.AfterL(time.Microsecond, 0, func() {}) })
	labeled := measure(func(l *Loop) { l.AfterL(time.Microsecond, lb, func() {}) })
	if labeled > plain {
		t.Fatalf("labeled schedule+dispatch allocates %.1f/op, unlabeled %.1f/op", labeled, plain)
	}
}
