package experiments

import (
	"fmt"
	"time"

	"shardmanager/internal/audit"
	"shardmanager/internal/faults"
	"shardmanager/internal/healthmon"
	"shardmanager/internal/routing"
	"shardmanager/internal/topology"
)

// CompoundFaultParams configure the compound-fault scenario: a three-region
// deployment (region-a, region-b, region-c) under a timeline that layers
// partitions, latency inflation, packet loss, session expiry, gray failure,
// and a coordination write stall, then heals everything and checks recovery.
type CompoundFaultParams struct {
	Shards           int
	Replicas         int
	ServersPerRegion int
	// RequestRate is requests/second issued by the region-a client.
	RequestRate int
	Horizon     time.Duration
	// Spec overrides the fault timeline (ParseSpec DSL). Empty uses
	// DefaultCompoundFaultSpec.
	Spec string
	Seed uint64
}

// DefaultCompoundFaultParams return the standard compound scenario sizing.
func DefaultCompoundFaultParams() CompoundFaultParams {
	return CompoundFaultParams{
		Shards:           300,
		Replicas:         2,
		ServersPerRegion: 10,
		RequestRate:      30,
		Horizon:          11 * time.Minute,
		Seed:             23,
	}
}

// DefaultCompoundFaultSpec is the built-in compound timeline. The allocator
// keeps a replica of every shard in region-a, so a partition alone never
// hurts the region-a client; the region-a crash first forces its reads
// remote, and the overlapping partitions (t=1m45s..2m30s cuts both remote
// regions) then guarantee an outage that breaches the availability SLO.
// Everything is healed by t=9m15s, leaving the rest of the horizon to verify
// recovery.
const DefaultCompoundFaultSpec = "" +
	"t=60s crash(region:region-a) for 2m; " +
	"t=90s partition(region-a|region-b) for 90s; " +
	"t=105s partition(region-a|region-c) for 45s; " +
	"t=4m latency(region-a|region-b, x5) for 60s; " +
	"t=5m30s loss(region-a|region-b, 0.3) for 45s; " +
	"t=7m gray(region-b, 2, 300ms) for 60s; " +
	"t=8m expire(region-c, 2) for 30s; " +
	"t=8m45s stall(coord) for 30s"

// CompoundFaults runs the compound-fault experiment: drive steady read
// traffic from a region-a client while the scenario unfolds, and cross-check
// what the client saw against healthmon's SLO-violation intervals.
func CompoundFaults(c RunConfig, p CompoundFaultParams) *Report {
	specText := p.Spec
	if specText == "" {
		specText = DefaultCompoundFaultSpec
	}
	scenario, err := faults.ParseSpec(specText)
	if err != nil {
		panic(err)
	}
	r := &Report{
		ID:    "faults",
		Title: "compound fault injection: availability dips during faults, recovers after heal",
		Params: map[string]string{
			"shards":   fmt.Sprint(p.Shards),
			"replicas": fmt.Sprint(p.Replicas),
			"servers":  fmt.Sprintf("%dx3", p.ServersPerRegion),
			"seed":     fmt.Sprint(p.Seed),
			"events":   fmt.Sprint(len(scenario.Events)),
		},
	}

	// The run's health factory (smbench -metrics-out, determinism tests) is
	// respected so the run's metrics land in the caller's registry; the
	// experiment needs its own handle on the monitor for cross-checks.
	var mon *healthmon.Monitor
	if c.Health != nil {
		mon = c.Health()
	}
	if mon == nil {
		mon = healthmon.New(healthmon.Options{})
	}
	spec := GeoKVSpec("faultstore", [3]topology.RegionID{"region-a", "region-b", "region-c"}, "region-c",
		p.Shards, p.Replicas, p.ServersPerRegion, p.Seed)
	spec.Health = mon
	spec.Audit = &audit.Options{}
	appID := spec.Orch.App
	d := c.build(spec)
	if err := d.Settle(10 * time.Minute); err != nil {
		panic(err)
	}

	// Steady read traffic from region-a. Let the client pick up the shard
	// map before traffic starts so the baseline plateau is clean.
	ks := KeyspaceFor(p.Shards)
	client := d.NewClient("region-a", ks, routing.DefaultOptions())
	d.Loop.RunFor(2 * time.Second)
	reads := startKVReads(d, client, p.RequestRate, p.Shards)
	latency, failures, t0 := reads.Latency, reads.Failures, reads.T0

	// Arm the fault timeline (relative to t0) and run it out.
	inj := faults.NewInjector(d.FaultEnv())
	shifted := faults.NewScenario()
	var lastHeal time.Duration
	for _, ev := range scenario.Events {
		shifted.Add(t0+ev.At, ev.For, ev.Action)
		if end := ev.At + ev.For; end > lastHeal {
			lastHeal = end
		}
	}
	inj.Schedule(shifted)
	d.Loop.RunFor(p.Horizon)

	r.Curves = append(r.Curves, reads.latencyCurve("read latency (region-a client)", p.Horizon))

	// Cross-check against healthmon: violations must overlap the fault
	// window and stop before the recovery tail. Healthmon timestamps are
	// absolute sim time, so drop intervals that ended before traffic
	// started (deployment-settle noise) and report the rest relative to t0.
	snap := mon.Snapshot()
	var violations []healthmon.Interval
	for _, app := range snap.Apps {
		if app.App != appID {
			continue
		}
		for _, v := range app.Violations {
			if v.To <= t0 {
				continue
			}
			violations = append(violations, healthmon.Interval{From: v.From - t0, To: v.To - t0})
		}
	}
	recoveryFrom := p.Horizon - 90*time.Second
	tailRate := mon.RateBetween(appID, t0+recoveryFrom, t0+p.Horizon)
	firstAt, lastEnd := time.Duration(-1), time.Duration(-1)
	for _, v := range violations {
		if firstAt < 0 || v.From < firstAt {
			firstAt = v.From
		}
		if v.To > lastEnd {
			lastEnd = v.To
		}
	}

	r.AddValue("faults_injected", float64(inj.Injected))
	r.AddValue("faults_reverted", float64(inj.Reverted))
	r.AddValue("slo_violation_intervals", float64(len(violations)))
	r.AddValue("failed_requests", float64(failures.Len()))
	r.AddValue("recovery_tail_rate", tailRate)
	if firstAt >= 0 {
		r.AddValue("first_violation_s", firstAt.Seconds())
		r.AddValue("last_violation_end_s", lastEnd.Seconds())
	}

	before := latency.MeanBetween(0, 59*time.Second)
	after := latency.MeanBetween(recoveryFrom, p.Horizon)
	r.AddValue("latency_before_ms", before)
	r.AddValue("latency_after_ms", after)

	r.AddNote("scenario:\n%s", scenario)
	r.AddNote("injected %d faults, reverted %d; last heal at %s", inj.Injected, inj.Reverted, lastHeal)
	r.AddNote("SLO violations: %d interval(s), %d failed requests", len(violations), failures.Len())
	if firstAt >= 0 {
		r.AddNote("violation window %s..%s (faults ran %s..%s)",
			firstAt, lastEnd, scenario.Events[0].At, lastHeal)
	}
	r.AddNote("availability over final %s: %.6f (recovered: %v)",
		90*time.Second, tailRate, tailRate >= snap.SLOTarget)
	r.AddNote("mean latency: before %.1fms -> after recovery %.1fms", before, after)

	// Runtime-audit verdict: on a clean seed the §4.3 invariants must hold
	// through every injected fault. The full deterministic report rides in
	// Extra so smbench can write it out and tests can compare two runs
	// byte for byte.
	art := NewAuditArtifacts(d.Auditor)
	r.Extra = art
	checks := int64(0)
	for _, n := range d.Auditor.Checks() {
		checks += n
	}
	r.AddValue("audit_checks", float64(checks))
	r.AddValue("audit_violations", float64(d.Auditor.ViolationCount()))
	r.AddNote("runtime audit: %d invariant checks, %d violations", checks, d.Auditor.ViolationCount())
	return r
}
