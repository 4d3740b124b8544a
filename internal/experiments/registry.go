package experiments

import (
	"fmt"
	"sort"

	"shardmanager/internal/healthmon"
	"shardmanager/internal/sim"
	"shardmanager/internal/trace"
)

// Scale selects experiment sizing: Full mirrors the paper's parameters;
// Quick shrinks each scenario so the whole suite finishes in seconds
// (benchmarks and CI use Quick); Stress grows the solver experiments to
// ~100k entities / 5k buckets to exercise the fast path at scale.
type Scale int

// Experiment scales.
const (
	ScaleQuick Scale = iota
	ScaleFull
	ScaleStress
)

// RunConfig is everything a caller can vary about one experiment run. The
// zero value runs at ScaleQuick with no instruments attached and every
// experiment's built-in parameters.
type RunConfig struct {
	Scale Scale

	// Tracer, Health and Profiler instrument every deployment the experiment
	// builds whose spec leaves that field unset. Health and Profiler are
	// factories because each deployment has its own loop: a caller chooses
	// between one instrument per Build (tests cross-checking figures) and one
	// shared across the sequentially built deployments of a run (smbench's
	// combined profile).
	Tracer   *trace.Tracer
	Health   func() *healthmon.Monitor
	Profiler func() sim.Profiler

	// FaultSpec, when non-empty, is the scenario DSL text the "faults"
	// experiment runs instead of its built-in compound timeline.
	FaultSpec string

	// Torture, when non-nil, reshapes the "torture" experiment's params
	// after scale selection.
	Torture func(*TortureParams)
}

// build is Build with the run's instruments filled into whichever of the
// spec's Tracer, Health and Profiler fields the experiment left unset.
func (c RunConfig) build(spec DeploymentSpec) *Deployment {
	if spec.Tracer == nil {
		spec.Tracer = c.Tracer
	}
	if spec.Profiler == nil && c.Profiler != nil {
		spec.Profiler = c.Profiler()
	}
	if spec.Health == nil && c.Health != nil {
		spec.Health = c.Health()
	}
	return Build(spec)
}

// runner builds one experiment report.
type runner struct {
	id    string
	title string
	run   func(RunConfig) *Report
}

var registry = []runner{
	{"fig1", "planned vs unplanned container stops", func(RunConfig) *Report {
		return Fig01(DefaultDemographicsParams())
	}},
	{"fig2", "SM adoption growth", func(RunConfig) *Report { return Fig02() }},
	{"fig4", "sharding-scheme breakdown", func(RunConfig) *Report { return Fig04(DefaultDemographicsParams()) }},
	{"fig5", "regional vs geo-distributed", func(RunConfig) *Report { return Fig05(DefaultDemographicsParams()) }},
	{"fig6", "replication strategies", func(RunConfig) *Report { return Fig06(DefaultDemographicsParams()) }},
	{"fig7", "load-balancing policies", func(RunConfig) *Report { return Fig07(DefaultDemographicsParams()) }},
	{"fig8", "drain policies", func(RunConfig) *Report { return Fig08(DefaultDemographicsParams()) }},
	{"fig9", "storage machines", func(RunConfig) *Report { return Fig09(DefaultDemographicsParams()) }},
	{"fig15", "scale of SM applications", func(RunConfig) *Report { return Fig15(DefaultDemographicsParams()) }},
	{"fig16", "scale of mini-SMs", func(RunConfig) *Report { return Fig16(DefaultDemographicsParams()) }},
	{"fig17", "availability during upgrades", func(c RunConfig) *Report {
		p := DefaultAvailabilityParams()
		if c.Scale == ScaleQuick {
			p.Servers, p.Shards, p.RequestRate = 20, 1000, 30
		}
		return Fig17(c, p)
	}},
	{"fig18", "production availability trace", func(c RunConfig) *Report {
		p := DefaultProductionTraceParams()
		if c.Scale == ScaleQuick {
			p.Servers, p.Shards, p.Days, p.BaseRate = 20, 600, 1, 5
		}
		return Fig18(c, p)
	}},
	{"fig19", "geo-distributed failover", func(c RunConfig) *Report {
		p := DefaultGeoFailoverParams()
		if c.Scale == ScaleQuick {
			p.Shards, p.ECShards, p.ServersPerRegion, p.RequestRate = 300, 120, 10, 30
		}
		return Fig19(c, p)
	}},
	{"fig20", "AppShards follow DBShards", func(c RunConfig) *Report {
		p := DefaultDBShardParams()
		if c.Scale == ScaleQuick {
			p.Shards, p.BatchSize, p.ServersPerRegion = 200, 50, 6
		}
		return Fig20(c, p)
	}},
	{"fig21", "allocator scalability", func(c RunConfig) *Report {
		p := DefaultSolverScaleParams()
		switch c.Scale {
		case ScaleQuick:
			p.Scales = [][2]int{{200, 15000}, {600, 45000}, {1000, 75000}}
		case ScaleStress:
			p.Scales = [][2]int{{1000, 20000}, {2500, 50000}, {5000, 100000}}
		}
		return Fig21(p)
	}},
	{"fig22", "solver optimization ablation", func(c RunConfig) *Report {
		p := DefaultSolverAblationParams()
		switch c.Scale {
		case ScaleQuick:
			p.Servers, p.Shards = 400, 30000
		case ScaleStress:
			p.Servers, p.Shards = 5000, 100000
		}
		return Fig22(p)
	}},
	{"fig23", "continuous load balancing", func(c RunConfig) *Report {
		p := DefaultContinuousLBParams()
		if c.Scale == ScaleQuick {
			p.Servers, p.Shards, p.Days = 40, 1200, 1
		}
		return Fig23(p)
	}},
	{"faults", "compound fault injection and recovery", func(c RunConfig) *Report {
		p := DefaultCompoundFaultParams()
		if c.Scale == ScaleQuick {
			p.Shards, p.ServersPerRegion, p.RequestRate = 150, 6, 15
		}
		if c.FaultSpec != "" {
			p.Spec = c.FaultSpec
		}
		return CompoundFaults(c, p)
	}},
	{"torture", "randomized migration torture under runtime audit", func(c RunConfig) *Report {
		p := DefaultTortureParams()
		if c.Scale == ScaleQuick {
			p.Seeds = 40
		}
		if c.Torture != nil {
			c.Torture(&p)
		}
		return Torture(c, p)
	}},
}

// IDs returns the registered experiment ids in display order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.id
	}
	return out
}

// Title returns an experiment's short description.
func Title(id string) string {
	for _, r := range registry {
		if r.id == id {
			return r.title
		}
	}
	return ""
}

// Run executes one experiment by id under cfg.
func Run(id string, cfg RunConfig) (*Report, error) {
	for _, r := range registry {
		if r.id == id {
			return r.run(cfg), nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
}
