package sim

import (
	"testing"
	"time"

	"shardmanager/internal/trace"
)

// TestTracerOnLoop checks the trace integration: the loop hands its tracer
// to components and stamps it with loop time, but records nothing of its
// own dispatches. It lives here rather than in internal/trace because sim
// imports trace.
func TestTracerOnLoop(t *testing.T) {
	l := NewLoop(1)
	tr := trace.New()
	l.SetTracer(tr)
	if l.Tracer() != tr {
		t.Fatal("Tracer() did not return the attached tracer")
	}
	l.AfterL(time.Second, 0, func() {})
	l.AfterL(2*time.Second, 0, func() {})
	l.Run()
	if spans := tr.Spans(); len(spans) != 0 {
		t.Fatalf("bare dispatches recorded %d spans, want none", len(spans))
	}
	tr.StartSpan("test", "after-run", 0)
	if got := tr.Spans()[0].Start; got != 2*time.Second {
		t.Fatalf("span stamped at %v, want the loop's 2s", got)
	}
}

// TestLoopWithoutTracerIsUnaffected guards the disabled-by-default path.
func TestLoopWithoutTracerIsUnaffected(t *testing.T) {
	l := NewLoop(1)
	if l.Tracer() != nil {
		t.Fatal("new loop has a tracer attached")
	}
	n := 0
	l.AfterL(time.Second, 0, func() { n++ })
	l.Run()
	if n != 1 {
		t.Fatalf("event ran %d times, want 1", n)
	}
}
