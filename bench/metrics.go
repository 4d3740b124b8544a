package main

import (
	"fmt"
	"math"
	"sort"

	"shardmanager/internal/metrics"
)

// metricDef names one metric. A host metric is wall-clock (or memory) and
// carries noise; every other metric is simulated and exact per seed.
type metricDef struct {
	name, unit string
	host       bool
	// better is "lower" or "higher"; a ledger metric that leaves it empty
	// means lower. bound (end-to-end only) is the share of the parent's
	// median by which the metric may worsen.
	better string
	bound  float64
}

// endToEnd is what a user of the simulator and of the simulated system sees;
// the untraced pass prints exactly these. The bounds come from ten seeds per
// workload and -check-repeat on the reference box; see README.md.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", host: true, better: "lower", bound: 0.25},
	{name: "sim_speed", unit: "sim_s/s", host: true, better: "higher", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", host: true, better: "lower", bound: 0.25},
	{name: "req_p50_ms", unit: "ms", better: "lower", bound: 0.05},
	{name: "req_p99_ms", unit: "ms", better: "lower", bound: 0.05},
	{name: "req_ok_ratio", unit: "ratio", better: "higher", bound: 0.0005},
	{name: "req_slo_ok_ratio", unit: "ratio", better: "higher", bound: 0.01},
	{name: "lb_util_p99", unit: "ratio", better: "lower", bound: 0.25},
}

// perLayer is the ledger the traced pass prints: layer = package name.
var perLayer = []metricDef{
	{name: "sim.events", unit: "count"},
	{name: "sim.events_per_s", unit: "1/s", host: true, better: "higher"},
	{name: "sim.dispatch_ns_per_event", unit: "ns", host: true},
	{name: "sim.queue_depth_max", unit: "count"},
	{name: "sim.queue_depth_avg", unit: "count"},
	{name: "sim.timers_cancelled", unit: "count"},

	{name: "rpcnet.events", unit: "count"},
	{name: "rpcnet.busy_ms", unit: "ms", host: true},
	{name: "rpcnet.ns_per_event", unit: "ns", host: true},
	{name: "rpcnet.timeouts", unit: "count"},

	{name: "discovery.publishes", unit: "count"},
	{name: "discovery.deliveries", unit: "count"},
	{name: "discovery.busy_ms", unit: "ms", host: true},
	{name: "discovery.delivery_lag_p50_s", unit: "s"},
	{name: "discovery.stale_or_gap_publishes", unit: "count"},

	{name: "routing.requests", unit: "count", better: "higher"},
	{name: "routing.attempts_per_request", unit: "ratio"},
	{name: "routing.retries", unit: "count"},
	{name: "routing.hops_per_request", unit: "ratio"},
	{name: "routing.busy_ms", unit: "ms", host: true},
	{name: "routing.map_updates", unit: "count"},

	{name: "appserver.handled", unit: "count", better: "higher"},
	{name: "appserver.forwarded", unit: "count"},
	{name: "appserver.rejected", unit: "count"},
	{name: "appserver.fences", unit: "count"},
	{name: "appserver.shard_loads", unit: "count"},
	{name: "appserver.busy_ms", unit: "ms", host: true},
	{name: "appserver.encode_assignment_ms", unit: "ms", host: true},

	{name: "orchestrator.busy_ms", unit: "ms", host: true},
	{name: "orchestrator.allocate_ms", unit: "ms", host: true},
	{name: "orchestrator.allocations_periodic", unit: "count"},
	{name: "orchestrator.allocations_emergency", unit: "count"},
	{name: "orchestrator.publishes", unit: "count"},
	{name: "orchestrator.moves", unit: "count"},
	{name: "orchestrator.migrations_ok", unit: "count", better: "higher"},
	{name: "orchestrator.migrations_failed", unit: "count"},
	{name: "orchestrator.failed_rpcs", unit: "count"},
	{name: "orchestrator.step_prepare_add_s", unit: "s"},
	{name: "orchestrator.step_prepare_drop_s", unit: "s"},
	{name: "orchestrator.step_add_s", unit: "s"},
	{name: "orchestrator.step_drop_s", unit: "s"},

	{name: "allocator.run_ms", unit: "ms", host: true},
	{name: "allocator.moves", unit: "count"},
	{name: "allocator.deferred", unit: "count"},
	{name: "allocator.violations_initial", unit: "count"},
	{name: "allocator.violations_final", unit: "count"},
	{name: "solver.solve_ms", unit: "ms", host: true},
	{name: "solver.solves", unit: "count"},
	{name: "solver.evaluated", unit: "count"},
	{name: "solver.ns_per_eval", unit: "ns", host: true},

	{name: "shard.clone_ms", unit: "ms", host: true},
	{name: "shard.diff_ms", unit: "ms", host: true},
	{name: "shard.apply_delta_us", unit: "us", host: true},
	{name: "shard.validate_ms", unit: "ms", host: true},
	{name: "shard.map_bytes", unit: "B"},

	{name: "coord.writes", unit: "count"},
	{name: "coord.epochs", unit: "count"},
	{name: "cluster.events", unit: "count"},
	{name: "cluster.busy_ms", unit: "ms", host: true},
	{name: "taskcontroller.approved", unit: "count", better: "higher"},
	{name: "taskcontroller.delayed", unit: "count"},
	{name: "taskcontroller.drains", unit: "count"},

	{name: "go.alloc_mb", unit: "MB", host: true},
	{name: "go.allocs_per_event", unit: "count", host: true},
	{name: "go.gc_cpu_s", unit: "s", host: true},
	{name: "go.gc_cycles", unit: "count", host: true},

	{name: "bench.busy_ms", unit: "ms", host: true},
	{name: "trace.overhead_pct", unit: "%", host: true},
	{name: "audit.checks", unit: "count", better: "higher"},

	// Simulated end-to-end quantities that are 0 on a workload without a
	// disturbance, a migration or a publish (or, req_p999_ms, swing by tens
	// of percent from seed to seed), which an end-to-end metric under the
	// benchmark contract may not; so they ride here.
	{name: "req_p999_ms", unit: "ms"},
	{name: "recovery_s", unit: "s"},
	{name: "migration_p50_s", unit: "s"},
	{name: "map_convergence_p99_s", unit: "s"},
}

func (d metricDef) kind() string {
	if d.host {
		return "host"
	}
	return "simulated"
}

// metricSet holds one pass's values for a list of definitions.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) metricSet {
	return metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

// set records a value; an unknown name is a bug in the harness.
func (m metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not defined")
}

// problems lists the defined metrics that are missing or not finite.
func (m metricSet) problems() []string {
	var bad []string
	for _, d := range m.defs {
		v, ok := m.values[d.name]
		switch {
		case !ok:
			bad = append(bad, "metric "+d.name+" was not measured")
		case math.IsNaN(v) || math.IsInf(v, 0):
			bad = append(bad, fmt.Sprintf("metric %s is %v", d.name, v))
		}
	}
	return bad
}

// quantile of vals, 0 when there are none.
func quantile(vals []float64, q float64) float64 { return metrics.Quantile(vals, q) }

// endToEndMetrics fills the untraced pass's metrics: the simulated ones from
// any one window (they are equal), the host ones from all of them.
func endToEndMetrics(out metricSet, res result, setupS, undisturbedWallS float64) {
	r := res.r
	p50, p99, _ := r.latency()
	out.set("setup_s", setupS)
	out.set("sim_speed", r.horizon.Seconds()/undisturbedWallS)
	out.set("peak_rss_mb", peakRSSMB())
	out.set("req_p50_ms", p50)
	out.set("req_p99_ms", p99)
	out.set("req_ok_ratio", float64(r.ok)/float64(r.attempted))
	out.set("req_slo_ok_ratio", float64(r.sloOK)/float64(r.attempted))
	out.set("lb_util_p99", quantile(r.utils, 0.99))
}

// fastest sums, over the slices of a window, the fastest of the windows that
// ran the slice: the cost on an undisturbed host of work that windows of one
// seed repeat exactly.
func fastest(reps ...[]float64) float64 {
	var sum float64
	for i := range reps[0] {
		best := reps[0][i]
		for _, rep := range reps[1:] {
			best = min(best, rep[i])
		}
		sum += best
	}
	return sum
}

// perLayerMetrics fills the ledger from the untraced window (runtime numbers
// and the wall the tracing overhead is measured against), the traced windows
// (hook counters from any one, they are equal; span times the fastest per
// slice of all) and the audited window's check count.
func perLayerMetrics(out metricSet, untraced result, traced []result, auditChecks int64) {
	last := traced[len(traced)-1]
	r, t, o := last.r, last.r.tr, last.r.obs
	// hostNS is the fastest-slice estimate of a per-slice time of the
	// traced windows.
	hostNS := func(slice func(result) []float64) float64 {
		reps := make([][]float64, len(traced))
		for i, res := range traced {
			reps[i] = slice(res)
		}
		return fastest(reps...)
	}
	spanNS := func(match func(string, string) bool) float64 {
		return hostNS(func(res result) []float64 { return res.r.tr.sliceNS(match) })
	}
	busy := func(layer string) float64 {
		ns := spanNS(inLayer(layer))
		out.set(layer+".busy_ms", ns/1e6)
		return ns
	}
	events := float64(last.events)
	out.set("sim.events", events)
	out.set("sim.events_per_s", float64(untraced.events)/untraced.wallS)
	out.set("sim.dispatch_ns_per_event", hostNS(func(res result) []float64 {
		callbacks := res.r.tr.sliceNS(nil)
		for i := range callbacks {
			callbacks[i] = res.sliceS[i]*1e9 - callbacks[i]
		}
		return callbacks
	})/events)
	out.set("sim.queue_depth_max", float64(t.depthMax))
	out.set("sim.queue_depth_avg", float64(t.depthSum)/events)
	out.set("sim.timers_cancelled", float64(t.cancelled))

	n := t.count(inLayer("rpcnet"))
	out.set("rpcnet.events", n)
	out.set("rpcnet.ns_per_event", busy("rpcnet")/math.Max(n, 1))
	out.set("rpcnet.timeouts", t.count(isLabel("rpcnet", "timeout")))

	busy("discovery")
	out.set("discovery.publishes", float64(last.delta.discPublishes))
	out.set("discovery.deliveries", float64(o.deliveries))
	out.set("discovery.delivery_lag_p50_s", quantile(o.lagS, 0.5))
	out.set("discovery.stale_or_gap_publishes", float64(o.staleOrGap))

	busy("routing")
	requests := float64(r.ok + r.failed)
	out.set("routing.requests", requests)
	out.set("routing.attempts_per_request", float64(r.attempts)/requests)
	out.set("routing.retries", float64(r.attempts)-requests)
	out.set("routing.hops_per_request", float64(r.hops)/requests)
	out.set("routing.map_updates", float64(last.delta.mapUpdates))

	busy("appserver")
	out.set("appserver.handled", float64(o.handled))
	out.set("appserver.forwarded", float64(o.forwarded))
	out.set("appserver.rejected", float64(o.rejected))
	out.set("appserver.fences", float64(o.fences))
	out.set("appserver.shard_loads", t.count(isLabel("appserver", "shard_load")))

	busy("orchestrator")
	out.set("orchestrator.allocate_ms", spanNS(isLabel("orchestrator", "allocate"))/1e6)
	out.set("orchestrator.allocations_periodic", float64(last.delta.periodic))
	out.set("orchestrator.allocations_emergency", float64(last.delta.emergency))
	out.set("orchestrator.publishes", float64(o.publishes))
	out.set("orchestrator.moves", float64(last.delta.moves))
	out.set("orchestrator.migrations_ok", float64(o.migrationsOK))
	out.set("orchestrator.migrations_failed", float64(o.migrationsFailed))
	out.set("orchestrator.failed_rpcs", float64(last.delta.failedRPCs))
	for _, step := range []string{"prepare_add", "prepare_drop", "add", "drop"} {
		out.set("orchestrator.step_"+step+"_s", quantile(o.stepS[step+"_shard"], 0.5))
	}

	out.set("coord.writes", float64(o.coordWrites))
	out.set("coord.epochs", float64(last.delta.epochs))
	busy("cluster")
	out.set("cluster.events", t.count(inLayer("cluster")))
	out.set("taskcontroller.approved", float64(last.delta.approved))
	out.set("taskcontroller.delayed", float64(last.delta.delayed))
	out.set("taskcontroller.drains", float64(last.delta.drains))

	out.set("go.alloc_mb", untraced.mem.allocMB)
	out.set("go.allocs_per_event", float64(untraced.mem.mallocs)/float64(untraced.events))
	out.set("go.gc_cpu_s", untraced.mem.gcCPUS)
	out.set("go.gc_cycles", float64(untraced.mem.gcCycles))

	busy("bench")
	// The median over slices of one traced window's wall over the untraced
	// window's: a slice the host disturbed in either does not move it.
	ratios := make([]float64, slices)
	for i := range ratios {
		ratios[i] = traced[0].sliceS[i] / untraced.sliceS[i]
	}
	out.set("trace.overhead_pct", (quantile(ratios, 0.5)-1)*100)
	out.set("audit.checks", float64(auditChecks))

	_, _, p999 := r.latency()
	out.set("req_p999_ms", p999)
	recovery := 0.0
	if r.recovered > 0 {
		recovery = (r.recovered - r.disturbed).Seconds()
	}
	out.set("recovery_s", recovery)
	out.set("migration_p50_s", quantile(o.migS, 0.5))
	lastLags := make([]float64, 0, len(o.lastLag))
	for _, lag := range o.lastLag {
		lastLags = append(lastLags, lag)
	}
	sort.Float64s(lastLags) // map order must not reach the output
	out.set("map_convergence_p99_s", quantile(lastLags, 0.99))
}
