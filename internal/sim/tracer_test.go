package sim

import (
	"testing"
	"time"

	"shardmanager/internal/trace"
)

// TestTracerOnLoop checks the trace integration: dispatch spans and
// queue-depth counters appear, stamped with loop time. It lives here rather
// than in internal/trace because sim imports trace.
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
	spans := tr.FindSpans("sim.loop", "dispatch")
	if len(spans) != 2 {
		t.Fatalf("dispatch spans = %d, want 2", len(spans))
	}
	if spans[0].Start != time.Second || spans[1].Start != 2*time.Second {
		t.Fatalf("dispatch spans at %v, %v", spans[0].Start, spans[1].Start)
	}
	var depths int
	for _, s := range tr.Samples() {
		if s.Name == "queue_depth" {
			depths++
		}
	}
	if depths != 2 {
		t.Fatalf("queue_depth samples = %d, want 2", depths)
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
