package simprof

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"shardmanager/internal/metrics"
	"shardmanager/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runFixedWorkload drives a small fully deterministic event mix through a
// profiled loop: periodic ticks, a fan-out burst, and an unlabeled event.
func runFixedWorkload(p *Profile) {
	l := sim.NewLoop(7)
	l.SetProfiler(p)
	lbTick := sim.LabelFor("golden", "tick")
	lbFan := sim.LabelFor("golden", "fanout")

	tk := l.EveryL(time.Second, lbTick, func() {})
	for i := 0; i < 5; i++ {
		d := time.Duration(i+1) * 500 * time.Millisecond
		l.AfterL(d, lbFan, func() {
			for j := 0; j < 3; j++ {
				l.AfterL(time.Duration(j+1)*time.Millisecond, lbFan, func() {})
			}
		})
	}
	l.AfterL(2*time.Second, 0, func() {}) // unlabeled
	l.RunUntil(10 * time.Second)
	tk.Stop()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s (run with -update to regenerate)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

func TestAttributionCounts(t *testing.T) {
	p := New(Options{})
	runFixedWorkload(p)

	rows := p.Rows()
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Component+"/"+r.Kind] = r
	}
	// 5 fanout roots + 15 children.
	if r := byName["golden/fanout"]; r.Scheduled != 20 || r.Fired != 20 {
		t.Fatalf("fanout row = %+v", r)
	}
	// 10 ticks fire within the 10s horizon (the tick at 10s is inclusive);
	// each tick schedules the next, and RunUntil leaves the 11th pending.
	if r := byName["golden/tick"]; r.Scheduled != 11 || r.Fired != 10 {
		t.Fatalf("tick row = %+v", r)
	}
	if r := byName["/"]; r.Fired != 1 {
		t.Fatalf("unlabeled row = %+v", r)
	}
	if p.Events() != 31 {
		t.Fatalf("Events() = %d, want 31", p.Events())
	}
	// Wall time accrues on every dispatch even for empty callbacks.
	if p.WallNS() <= 0 {
		t.Fatalf("WallNS() = %d, want > 0", p.WallNS())
	}
	if p.AvgHeapDepth() <= 0 {
		t.Fatalf("heap stats = avg %f, want > 0", p.AvgHeapDepth())
	}
}

func TestGoldenReports(t *testing.T) {
	p := New(Options{})
	runFixedWorkload(p)
	var txt, js, folded bytes.Buffer
	if err := p.WriteText(&txt, ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteJSON(&js, ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFolded(&folded, ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fixed.txt", txt.Bytes())
	checkGolden(t, "fixed.json", js.Bytes())
	checkGolden(t, "fixed.folded", folded.Bytes())
}

// TestTwoRunsByteIdentical is the package-level determinism bar: two fresh
// profiles over the same seeded workload render identical deterministic
// reports (the experiment-level test repeats this on full deployments).
func TestTwoRunsByteIdentical(t *testing.T) {
	render := func() (string, string, string) {
		p := New(Options{})
		runFixedWorkload(p)
		var txt, js, folded bytes.Buffer
		if err := p.WriteText(&txt, ReportOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteJSON(&js, ReportOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteFolded(&folded, ReportOptions{}); err != nil {
			t.Fatal(err)
		}
		return txt.String(), js.String(), folded.String()
	}
	t1, j1, f1 := render()
	t2, j2, f2 := render()
	if t1 != t2 {
		t.Errorf("text reports differ:\n%s\nvs:\n%s", t1, t2)
	}
	if j1 != j2 {
		t.Errorf("JSON reports differ:\n%s\nvs:\n%s", j1, j2)
	}
	if f1 != f2 {
		t.Errorf("folded outputs differ:\n%s\nvs:\n%s", f1, f2)
	}
}

func TestWallReportIncludesTimingColumns(t *testing.T) {
	p := New(Options{})
	runFixedWorkload(p)
	var buf bytes.Buffer
	if err := p.WriteText(&buf, ReportOptions{Wall: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wall ms") {
		t.Fatalf("wall report missing timing columns:\n%s", buf.String())
	}
	top := p.Top(2)
	if len(top) != 2 {
		t.Fatalf("Top(2) returned %d rows", len(top))
	}
	if top[0].WallNS < top[1].WallNS {
		t.Fatalf("Top not sorted by wall: %v", top)
	}
	if s := p.RenderTop(3); !strings.Contains(s, "cost centers") {
		t.Fatalf("RenderTop output unexpected:\n%s", s)
	}
}

func TestAllocAttribution(t *testing.T) {
	p := New(Options{Allocs: true})
	l := sim.NewLoop(1)
	l.SetProfiler(p)
	lb := sim.LabelFor("alloctest", "make")
	var sink [][]byte
	l.AfterL(time.Second, lb, func() {
		// Large objects: the runtime counts those at once, where a small
		// one is counted only when its span leaves the mcache, so the
		// reading would lag by up to a span's worth.
		for i := 0; i < 100; i++ {
			sink = append(sink, make([]byte, 64<<10))
		}
	})
	l.Run()
	_ = sink
	var row Row
	for _, r := range p.Rows() {
		if r.Component == "alloctest" {
			row = r
		}
	}
	if row.Allocs < 100 {
		t.Fatalf("allocating callback attributed %d allocs, want >= 100", row.Allocs)
	}
}

func TestRegistryGaugeSampling(t *testing.T) {
	reg := metrics.NewRegistry()
	p := New(Options{Registry: reg})
	l := sim.NewLoop(1)
	l.SetProfiler(p)
	lb := sim.LabelFor("gaugetest", "tick")
	for i := 0; i < 10; i++ {
		l.AfterL(time.Duration(i+1)*time.Second, lb, func() {})
	}
	l.Run()
	if h := reg.Histogram("sim_event_heap_depth_hist", nil); h.Count() != 10 {
		t.Fatalf("heap-depth histogram observed %d dispatches, want 10", h.Count())
	}
	// The last dispatch sees an empty heap.
	if v := reg.Gauge("sim_event_heap_depth").Value(); v != 0 {
		t.Fatalf("final heap-depth gauge = %v, want 0", v)
	}
}
