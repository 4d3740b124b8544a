package experiments

import (
	"bytes"
	"testing"

	"shardmanager/internal/healthmon"
	"shardmanager/internal/trace"
)

func quickCompoundFaultParams() CompoundFaultParams {
	p := DefaultCompoundFaultParams()
	p.Shards, p.ServersPerRegion, p.RequestRate = 150, 6, 15
	return p
}

func TestCompoundFaultsBreachSLOAndRecover(t *testing.T) {
	r := CompoundFaults(RunConfig{}, quickCompoundFaultParams())

	if got := r.Values["faults_injected"]; got != 8 {
		t.Errorf("faults_injected = %v, want 8", got)
	}
	// The final stall(coord) heals, but one event (expire) is self-healing,
	// so reverted is injected minus one.
	if got := r.Values["faults_reverted"]; got != 7 {
		t.Errorf("faults_reverted = %v, want 7", got)
	}
	if r.Values["slo_violation_intervals"] < 1 {
		t.Errorf("slo_violation_intervals = %v, want >= 1", r.Values["slo_violation_intervals"])
	}
	if r.Values["failed_requests"] < 100 {
		t.Errorf("failed_requests = %v, want >= 100 during the outage window", r.Values["failed_requests"])
	}

	// Violations must sit inside the fault window, not the settle phase or
	// the recovery tail: the first fault fires at t=60s (violation buckets
	// are 30s wide, so the interval may open one bucket early), and the
	// crash+partition outage is fully healed by t=3m.
	first, last := r.Values["first_violation_s"], r.Values["last_violation_end_s"]
	if first < 30 || first > 120 {
		t.Errorf("first_violation_s = %v, want within one bucket of the t=60s fault", first)
	}
	if last <= first || last > 300 {
		t.Errorf("last_violation_end_s = %v, want after %v and before full heal + slack", last, first)
	}

	// Recovery: the availability SLO holds again over the final 90s.
	if rate := r.Values["recovery_tail_rate"]; rate < 0.9999 {
		t.Errorf("recovery_tail_rate = %v, want >= 0.9999", rate)
	}
	// The pre-fault plateau is all-local reads; it must be clean.
	if before := r.Values["latency_before_ms"]; before <= 0 || before > 10 {
		t.Errorf("latency_before_ms = %v, want a clean local plateau", before)
	}
}

// TestCompoundFaultsIsDeterministic runs the compound experiment twice with
// the same seed and requires byte-identical trace and metrics output — the
// acceptance bar for the fault subsystem riding on the deterministic sim.
func TestCompoundFaultsIsDeterministic(t *testing.T) {
	run := func() (traceOut, metricsOut []byte) {
		tr := trace.New()
		var mon *healthmon.Monitor
		CompoundFaults(RunConfig{Tracer: tr, Health: func() *healthmon.Monitor {
			mon = healthmon.New(healthmon.Options{})
			return mon
		}}, quickCompoundFaultParams())

		var tb, mb bytes.Buffer
		if err := tr.WriteChrome(&tb); err != nil {
			t.Fatal(err)
		}
		if mon == nil {
			t.Fatal("deployment never asked the health factory for a monitor")
		}
		if err := mon.Registry().WritePrometheus(&mb); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), mb.Bytes()
	}

	t1, m1 := run()
	t2, m2 := run()
	if len(t1) == 0 || bytes.Count(t1, []byte("\"faults\"")) == 0 {
		t.Fatalf("trace has no fault spans (len=%d)", len(t1))
	}
	if !bytes.Equal(t1, t2) {
		t.Fatalf("trace output differs across same-seed runs (%d vs %d bytes)", len(t1), len(t2))
	}
	if !bytes.Equal(m1, m2) {
		t.Fatalf("metrics exposition differs across same-seed runs (%d vs %d bytes)", len(m1), len(m2))
	}
}
