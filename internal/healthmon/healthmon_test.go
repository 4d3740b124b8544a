package healthmon

import (
	"strings"
	"testing"
	"time"

	"shardmanager/internal/metrics"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
)

// fakeClock drives observation timestamps directly.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration { return c.t }

func TestMonitorAvailabilityAndWindows(t *testing.T) {
	clk := &fakeClock{}
	m := New(Options{})
	m.Bind(clk)

	app := shard.AppID("kv")
	// Minute 0-9: all ok. Minute 10: a burst of failures.
	for i := 0; i < 100; i++ {
		clk.t = time.Duration(i) * 6 * time.Second
		m.observe(app, routing.Result{OK: true, Shard: "s0", Server: "srv/0"})
	}
	clk.t = 10 * time.Minute
	for i := 0; i < 10; i++ {
		m.observe(app, routing.Result{OK: false, Err: "no-replica", Shard: "s1"})
	}

	st := m.Snapshot()
	if len(st.Apps) != 1 {
		t.Fatalf("apps = %d", len(st.Apps))
	}
	a := st.Apps[0]
	if a.Total != 110 || a.OK != 100 {
		t.Fatalf("totals = %d/%d", a.OK, a.Total)
	}
	if want := 100.0 / 110.0; a.Availability != want {
		t.Fatalf("availability = %v, want %v", a.Availability, want)
	}
	// The trailing 5m window at t=10m holds the 50 ok samples from minutes
	// 5-10 plus the 10-failure burst in the bucket starting at 10m.
	if want := 50.0 / 60.0; a.Window5m != want {
		t.Fatalf("Window5m = %v, want %v", a.Window5m, want)
	}
	if want := (1 - a.Window5m) / (1 - sloTarget); a.Burn5m != want {
		t.Fatalf("Burn5m = %v, want %v", a.Burn5m, want)
	}
	// Violations must cover the failure bucket.
	if len(a.Violations) != 1 || a.Violations[0].From != 10*time.Minute {
		t.Fatalf("Violations = %+v", a.Violations)
	}
	// Worst shard is s1 (0%), then s0 (100%).
	if len(a.WorstShards) != 2 || a.WorstShards[0].Shard != "s1" || a.WorstShards[0].Rate != 0 {
		t.Fatalf("WorstShards = %+v", a.WorstShards)
	}
	// Budget: 10 failures against an allowance of 110*0.0001.
	if a.BudgetRemaining >= 0 {
		t.Fatalf("BudgetRemaining = %v, want deeply negative", a.BudgetRemaining)
	}
}

func TestMonitorViolationMerging(t *testing.T) {
	clk := &fakeClock{}
	m := New(Options{})
	m.Bind(clk)
	app := shard.AppID("a")
	// Failures in buckets 0 and 1 (adjacent — one interval), and bucket 4.
	for _, at := range []time.Duration{10 * time.Second, 40 * time.Second, 130 * time.Second} {
		clk.t = at
		m.observe(app, routing.Result{OK: false, Shard: "s"})
	}
	v := m.Snapshot().Apps[0].Violations
	if len(v) != 2 {
		t.Fatalf("Violations = %+v, want 2 intervals", v)
	}
	if v[0].From != 0 || v[0].To != time.Minute {
		t.Fatalf("merged interval = %+v", v[0])
	}
	if v[1].From != 2*time.Minute || v[1].To != 150*time.Second {
		t.Fatalf("second interval = %+v", v[1])
	}
}

func TestMonitorRegistryGauge(t *testing.T) {
	reg := metrics.NewRegistry()
	m := New(Options{Registry: reg})
	m.Bind(&fakeClock{})
	m.observe("kv", routing.Result{OK: true, Shard: "s"})
	m.observe("kv", routing.Result{OK: false, Shard: "s"})
	if got := reg.Gauge("health_availability", "app", "kv").Value(); got != 0.5 {
		t.Fatalf("health_availability = %v, want 0.5", got)
	}
	if m.Registry() != reg {
		t.Fatal("Registry() should return the injected registry")
	}
}

func TestRenderDashboard(t *testing.T) {
	clk := &fakeClock{t: 90 * time.Second}
	m := New(Options{})
	m.Bind(clk)
	m.observe("kv", routing.Result{OK: true, Shard: "s0", Server: "srv/0"})
	m.observe("kv", routing.Result{OK: false, Err: "not-owner", Shard: "s1"})
	st := m.Snapshot()
	out := st.Render()
	for _, want := range []string{"app kv", "availability", "worst shards", "slo violations", "error budget"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
	// Rendering the same snapshot twice is byte-identical.
	if out != st.Render() {
		t.Fatal("Render not deterministic")
	}
}

func TestRenderEmpty(t *testing.T) {
	m := New(Options{})
	out := m.Snapshot().Render()
	if !strings.Contains(out, "no applications observed") {
		t.Fatalf("empty dashboard = %q", out)
	}
}
