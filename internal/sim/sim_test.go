package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestLoopOrdersEventsByTime(t *testing.T) {
	l := NewLoop(1)
	var got []int
	l.AfterL(3*time.Second, 0, func() { got = append(got, 3) })
	l.AfterL(1*time.Second, 0, func() { got = append(got, 1) })
	l.AfterL(2*time.Second, 0, func() { got = append(got, 2) })
	l.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if l.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", l.Now())
	}
}

func TestLoopTieBreakIsFIFO(t *testing.T) {
	l := NewLoop(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.AtL(time.Second, 0, func() { got = append(got, i) })
	}
	l.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestAtInThePastRunsNow(t *testing.T) {
	l := NewLoop(1)
	l.AfterL(5*time.Second, 0, func() {
		l.AtL(time.Second, 0, func() {
			if l.Now() != 5*time.Second {
				t.Errorf("past event ran at %v, want 5s", l.Now())
			}
		})
	})
	l.Run()
}

func TestRunUntilAdvancesClock(t *testing.T) {
	l := NewLoop(1)
	ran := false
	l.AfterL(10*time.Second, 0, func() { ran = true })
	l.RunUntil(5 * time.Second)
	if ran {
		t.Fatal("event beyond deadline ran")
	}
	if l.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", l.Now())
	}
	l.RunFor(5 * time.Second)
	if !ran {
		t.Fatal("event at deadline did not run")
	}
}

func TestRunUntilRunsEventAtDeadline(t *testing.T) {
	l := NewLoop(1)
	ran := false
	l.AfterL(5*time.Second, 0, func() { ran = true })
	l.RunUntil(5 * time.Second)
	if !ran {
		t.Fatal("event exactly at deadline should run")
	}
}

func TestEverticksAndStops(t *testing.T) {
	l := NewLoop(1)
	n := 0
	tk := l.EveryL(time.Second, 0, func() {
		n++
		if n == 3 {
			// Stop from within the callback.
		}
	})
	l.RunUntil(3 * time.Second)
	tk.Stop()
	l.RunUntil(10 * time.Second)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	l := NewLoop(1)
	n := 0
	var tk *Ticker
	tk = l.EveryL(time.Second, 0, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	l.Run()
	if n != 2 {
		t.Fatalf("ticks = %d, want 2", n)
	}
}

func TestNestedScheduling(t *testing.T) {
	l := NewLoop(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			l.AfterL(time.Millisecond, 0, recurse)
		}
	}
	l.AfterL(0, 0, recurse)
	l.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if l.Now() != 99*time.Millisecond {
		t.Fatalf("Now = %v, want 99ms", l.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(99)
	n := 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Fatalf("mean = %v, want ~0", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Fatalf("variance = %v, want ~1", variance)
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRNG(5)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams produced identical first value")
	}
}

func TestLoopPanicsOnBadArgs(t *testing.T) {
	l := NewLoop(1)
	mustPanic(t, func() { l.AtL(0, 0, nil) })
	mustPanic(t, func() { l.EveryL(0, 0, func() {}) })
	mustPanic(t, func() { NewRNG(1).Intn(0) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// BenchmarkLoopScheduleAndRun is the kernel's layer drive: file `pending`
// events, then drain them. One shared callback rides PostArgL and the delays
// come from delayMix, so near, the slot level, the block-boundary drains and
// the far heap are all on the path. pending=10k brackets the deepest queue a
// bench workload reaches (sim.queue_depth_max 470-6,273, traced pass, seed 1).
func BenchmarkLoopScheduleAndRun(b *testing.B) {
	for _, c := range []struct {
		name    string
		pending int
	}{{"pending=1k", 1_000}, {"pending=10k", 10_000}} {
		b.Run(c.name, func(b *testing.B) {
			rng := NewRNG(1)
			delays := make([]time.Duration, c.pending)
			for i := range delays {
				delays[i] = delayMix(rng.Intn)
			}
			fired := 0
			fire := func(any) { fired++ }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := NewLoop(1)
				for _, d := range delays {
					l.PostArgL(d, 0, fire, nil)
				}
				l.Run()
			}
			if fired != b.N*c.pending {
				b.Fatalf("fired %d events, want %d", fired, b.N*c.pending)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/event")
		})
	}
}
