package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// testClock is a hand-advanced Clock: sim imports trace, so these tests
// cannot take their time from a sim.Loop.
type testClock struct{ now time.Duration }

func (c *testClock) Now() time.Duration        { return c.now }
func (c *testClock) Advance(d time.Duration)   { c.now += d }
func newTestClock(at time.Duration) *testClock { return &testClock{now: at} }

func TestNilTracerIsSafeAndDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.StartSpan("c", "n", 0, String("k", "v"))
	if sp != 0 {
		t.Fatalf("nil StartSpan = %d, want 0", sp)
	}
	tr.EndSpan(sp)
	tr.SetClock(newTestClock(0))
	if tr.Spans() != nil {
		t.Fatal("nil tracer returned records")
	}
	if tr.Dropped() != 0 {
		t.Fatal("nil tracer reports drops")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Fatalf("nil WriteChrome = %q", buf.String())
	}
	buf.Reset()
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "disabled") {
		t.Fatalf("nil WriteText = %q", buf.String())
	}
}

func TestSpanLifecycle(t *testing.T) {
	clk := newTestClock(0)
	tr := New()
	tr.SetClock(clk)

	root := tr.StartSpan("orch", "migration", 0, String("shard", "s1"))
	clk.Advance(time.Second)
	child := tr.StartSpan("orch", "add_shard", root)
	clk.Advance(2 * time.Second)
	tr.EndSpan(child, String("status", "ok"))
	clk.Advance(time.Second)
	tr.EndSpan(root, Bool("ok", true))

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	rs, cs := spans[0], spans[1]
	if rs.Name != "migration" || cs.Name != "add_shard" {
		t.Fatalf("span order wrong: %s, %s", rs.Name, cs.Name)
	}
	if cs.Parent != rs.ID {
		t.Fatalf("child parent = %d, want %d", cs.Parent, rs.ID)
	}
	if rs.Duration() != 4*time.Second || cs.Duration() != 2*time.Second {
		t.Fatalf("durations = %v, %v", rs.Duration(), cs.Duration())
	}
	if rs.Attr("shard") != "s1" || rs.Attr("ok") != "true" || rs.Attr("absent") != "" {
		t.Fatalf("attrs wrong: %+v", rs.Attrs)
	}
	if got := tr.FindSpans("orch", "add_shard"); len(got) != 1 || got[0].ID != cs.ID {
		t.Fatalf("FindSpans = %v", got)
	}
}

func TestEndSpanEdgeCases(t *testing.T) {
	tr := New()
	tr.EndSpan(0)    // zero span: no-op
	tr.EndSpan(9999) // unknown span: no-op
	sp := tr.StartSpan("c", "n", 0)
	tr.EndSpan(sp)
	tr.EndSpan(sp, String("again", "true")) // double end: no-op
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Attr("again") != "" {
		t.Fatal("double EndSpan appended attributes")
	}
}

func TestRingDropsOldestAndCounts(t *testing.T) {
	tr := New()
	tr.spans = newRing(4)
	for i := 0; i < 6; i++ {
		id := tr.StartSpan("c", "s", 0, Int("i", i))
		tr.EndSpan(id)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	if spans[0].Attr("i") != "2" || spans[3].Attr("i") != "5" {
		t.Fatalf("wrong retained window: first=%s last=%s", spans[0].Attr("i"), spans[3].Attr("i"))
	}
	if d := tr.Dropped(); d != 2 {
		t.Fatalf("dropped = %d, want 2", d)
	}
}

func TestAttrConstructors(t *testing.T) {
	cases := []struct {
		a    Attr
		k, v string
	}{
		{String("s", "x"), "s", "x"},
		{Int("i", -3), "i", "-3"},
		{Int64("i64", 1<<40), "i64", "1099511627776"},
		{Bool("b", true), "b", "true"},
		{Dur("d", 1500*time.Millisecond), "d", "1.5s"},
	}
	for _, c := range cases {
		if c.a.Key != c.k || c.a.Val != c.v {
			t.Fatalf("attr %q = %q, want %q", c.k, c.a.Val, c.v)
		}
	}
}

func TestWriteTextTimeline(t *testing.T) {
	clk := newTestClock(0)
	tr := New()
	tr.SetClock(clk)
	root := tr.StartSpan("orch", "migration", 0, String("shard", "s1"))
	clk.Advance(time.Second)
	child := tr.StartSpan("orch", "add_shard", root)
	tr.EndSpan(tr.StartSpan("net", "rx", child))
	clk.Advance(time.Second)
	tr.EndSpan(child)
	tr.EndSpan(root)

	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"trace: 3 spans (dropped: 0)\n",
		"> migration #1 shard=s1",
		"  > add_shard #2", // indented one level under the root
		"    > rx #3\n1s           net                < rx #3 dur=0s\n",
		"< add_shard #2 dur=1s",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}
