package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildFixedTrace records a small, fully deterministic trace exercising every
// shape of span: nested spans, an open span, zero-length spans, and
// attribute values needing JSON escaping.
func buildFixedTrace() *Tracer {
	clk := newTestClock(0)
	tr := New()
	tr.SetClock(clk)

	root := tr.StartSpan("orchestrator", "migration", 0,
		String("shard", "s00001"), String("from", `srv"a"`), Bool("graceful", true))
	clk.Advance(1500 * time.Microsecond)
	prep := tr.StartSpan("orchestrator", "prepare_add_shard", root, String("server", "srv-b"))
	tr.EndSpan(tr.StartSpan("rpcnet", "tx", prep))
	clk.Advance(2 * time.Millisecond)
	tr.EndSpan(prep, String("status", "ok"))
	clk.Advance(time.Duration(2500500)) // 2.5005ms: fractional microseconds
	tr.EndSpan(tr.StartSpan("orchestrator", "publish", root, Int64("version", 7)))
	tr.EndSpan(root, Bool("ok", true))
	tr.StartSpan("routing", "request", 0, String("key", "s00001/key")) // left open
	return tr
}

// TestWriteChromeGolden holds the exporter to its byte-stability promise: a
// fixed trace must serialize to exactly the checked-in bytes. Regenerate
// deliberately with: go test ./internal/trace -run Golden -update
func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixedTrace().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Chrome export deviates from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixedTrace().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		OtherData       struct {
			DroppedSpans uint64 `json:"droppedSpans"`
		} `json:"otherData"`
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	byPhase := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byPhase[ev["ph"].(string)]++
	}
	if byPhase["M"] != 3 { // orchestrator, rpcnet, routing
		t.Fatalf("thread_name records = %d, want 3 (%v)", byPhase["M"], byPhase)
	}
	// migration, prepare_add_shard, the zero-length tx and publish, and the
	// open request span; nothing else.
	if byPhase["X"] != 5 || len(doc.TraceEvents) != 8 {
		t.Fatalf("span records = %d of %d, want 5 of 8 (%v)", byPhase["X"], len(doc.TraceEvents), byPhase)
	}
}

// TestWriteChromeDeterministic builds the same trace twice and byte-compares
// the exports — the guarantee the golden test depends on, checked directly.
func TestWriteChromeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildFixedTrace().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildFixedTrace().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical traces exported different bytes")
	}
}

func TestUsecRendering(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0"},
		{time.Microsecond, "1"},
		{1500 * time.Nanosecond, "1.500"},
		{time.Duration(2500500), "2500.500"},
		{time.Second, "1000000"},
		{time.Nanosecond, "0.001"},
	}
	for _, c := range cases {
		if got := usec(c.d); got != c.want {
			t.Fatalf("usec(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
