// Command smctl builds a demonstration Shard Manager deployment, runs a
// short operational scenario on it, and dumps control-plane state — a quick
// way to see the whole system (cluster manager, orchestrator,
// TaskController, discovery) working together.
//
// Usage:
//
//	smctl                         # default demo: 3 regions, failover + drain
//	smctl -servers 20 -shards 500 -replicas 3
//	smctl status                  # live health dashboard through the demo
//	smctl status -scenario geofailover
//	smctl faults                  # compound fault-injection scenario
//	smctl faults -spec "t=30s stall(coord) for 1m" -parse
//	smctl audit -seed 5           # replay a torture seed, dump ownership timelines
//	smctl audit -seed 5 -shard s00004
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/cluster"
	"shardmanager/internal/experiments"
	"shardmanager/internal/faults"
	"shardmanager/internal/healthmon"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/simprof"
	"shardmanager/internal/taskcontroller"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "status" {
		runStatus(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "faults" {
		runFaults(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "audit" {
		runAudit(os.Args[2:])
		return
	}
	servers := flag.Int("servers", 12, "servers per region")
	shards := flag.Int("shards", 120, "number of shards")
	replicas := flag.Int("replicas", 2, "replicas per shard")
	seed := flag.Uint64("seed", 42, "simulation seed")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the scenario to this file")
	traceText := flag.String("trace-text", "", "write a human-readable text timeline to this file")
	flag.Parse()

	var tracer *trace.Tracer
	if *traceOut != "" || *traceText != "" {
		tracer = trace.New()
	}

	spec := demoSpec(*servers, *shards, *replicas, *seed)
	spec.Tracer = tracer
	d := experiments.Build(spec)

	step := func(title string) {
		fmt.Printf("\n--- %s (t=%v) ---\n", title, d.Loop.Now().Truncate(time.Second))
		fmt.Println(d.Orch.Stats())
	}

	if err := d.Settle(10 * time.Minute); err != nil {
		fmt.Fprintf(os.Stderr, "smctl: %v\n", err)
		os.Exit(1)
	}
	step("initial placement settled")
	dumpMap(d, 5)

	// Scenario 1: unplanned machine failure and automatic failover.
	mgr := d.Managers["frc"]
	victim := mgr.RunningContainers(d.Jobs["frc"])[0]
	c, _ := mgr.Container(victim)
	fmt.Printf("\nkilling machine %s (container %s)\n", c.Machine, victim)
	mgr.KillMachine(c.Machine)
	d.Loop.RunFor(3 * time.Minute)
	step("after unplanned failure + emergency reallocation")

	// Scenario 2: negotiable rolling upgrade gated by the TaskController.
	fmt.Printf("\nrolling upgrade of job %s (drain + graceful migration)\n", d.Jobs["prn"])
	done := false
	d.Managers["prn"].RollingUpgrade(d.Jobs["prn"], 2, "upgrade", func() { done = true })
	for i := 0; i < 120 && !done; i++ {
		d.Loop.RunFor(30 * time.Second)
	}
	step(fmt.Sprintf("after rolling upgrade (done=%v)", done))

	// Scenario 3: scheduled maintenance with advance notice.
	m2 := d.Managers["odn"].RunningContainers(d.Jobs["odn"])
	if len(m2) > 0 {
		cc, _ := d.Managers["odn"].Container(m2[0])
		fmt.Printf("\nscheduling rack maintenance for machine %s\n", cc.Machine)
		d.Managers["odn"].ScheduleMaintenance([]topology.MachineID{cc.Machine},
			d.Loop.Now()+5*time.Minute, d.Loop.Now()+10*time.Minute)
		d.Loop.RunFor(12 * time.Minute)
		step("after maintenance window")
	}

	dumpMap(d, 5)

	if tracer != nil {
		if *traceOut != "" {
			if err := writeFile(*traceOut, tracer.WriteChrome); err != nil {
				fmt.Fprintf(os.Stderr, "smctl: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("\ntrace written to %s\n", *traceOut)
		}
		if *traceText != "" {
			if err := writeFile(*traceText, tracer.WriteText); err != nil {
				fmt.Fprintf(os.Stderr, "smctl: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("trace timeline written to %s\n", *traceText)
		}
	}
	fmt.Println("\ndone.")
}

// demoSpec is the world plain smctl and `smctl status` run: a KV store on
// servers in each of frc, prn and odn, its shards primary-secondary (primary-
// only with one replica) under the default policy and a 20 s failover grace, a
// TaskController allowing three concurrent operations, and the cluster's
// default lifecycle timings.
func demoSpec(servers, shards, replicas int, seed uint64) experiments.DeploymentSpec {
	pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
	strategy := shard.PrimarySecondary
	if replicas == 1 {
		strategy = shard.PrimaryOnly
		pol.SpreadWeight = 0
	}
	tp := taskcontroller.DefaultPolicy(3)
	backing := apps.NewKVBacking()
	return experiments.DeploymentSpec{
		Regions:          []topology.RegionID{"frc", "prn", "odn"},
		ServersPerRegion: servers,
		Orch: orchestrator.Config{
			App:      "demo",
			Strategy: strategy,
			Shards: experiments.UniformShardConfigs(shards, replicas, topology.Capacity{
				topology.ResourceCPU:        1,
				topology.ResourceShardCount: 1,
			}),
			Policy: pol,
			ServerCapacity: topology.Capacity{
				topology.ResourceCPU:        100,
				topology.ResourceShardCount: float64(shards),
			},
			GracefulMigration: true,
			FailoverGrace:     20 * time.Second,
		},
		TaskPolicy:  &tp,
		ClusterOpts: cluster.DefaultOptions(),
		AppFactory: func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, backing)
		},
		Seed: seed,
	}
}

// writeFile creates path and streams one tracer export into it.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runStatus is the `smctl status` subcommand: it builds a monitored
// deployment with background client traffic, runs an operational scenario,
// and renders the operator health dashboard at each checkpoint.
func runStatus(argv []string) {
	fs := flag.NewFlagSet("smctl status", flag.ExitOnError)
	servers := fs.Int("servers", 12, "servers per region")
	shards := fs.Int("shards", 120, "number of shards")
	replicas := fs.Int("replicas", 2, "replicas per shard (demo scenario; geofailover always uses 2)")
	seed := fs.Uint64("seed", 42, "simulation seed")
	scenario := fs.String("scenario", "demo",
		"'demo' (machine failure + rolling upgrade) or 'geofailover' (fig19-style region loss and recovery)")
	profile := fs.Bool("prof", false, "attach the kernel profiler and print the top-10 cost centers after the scenario")
	fs.Parse(argv)

	mon := healthmon.New(healthmon.Options{})
	var prof *simprof.Profile
	if *profile {
		prof = simprof.New(simprof.Options{Allocs: true, Registry: mon.Registry()})
	}
	switch *scenario {
	case "demo":
		statusDemo(mon, prof, *servers, *shards, *replicas, *seed)
	case "geofailover":
		statusGeoFailover(mon, prof, *servers, *shards, *seed)
	default:
		fmt.Fprintf(os.Stderr, "smctl status: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	if prof != nil {
		fmt.Printf("\n%s", prof.RenderTop(10))
	}
}

// runFaults is the `smctl faults` subcommand: parse a fault-timeline spec,
// print the normalized scenario, and run the compound-fault experiment
// under it.
func runFaults(argv []string) {
	fs := flag.NewFlagSet("smctl faults", flag.ExitOnError)
	spec := fs.String("spec", experiments.DefaultCompoundFaultSpec,
		"fault timeline (scenario DSL, e.g. \"t=60s partition(region-a|region-b) for 120s\"; see internal/faults)")
	scale := fs.String("scale", "quick", "'quick' or 'full' experiment sizing")
	parseOnly := fs.Bool("parse", false, "validate and print the normalized timeline, then exit")
	fs.Parse(argv)

	scenario, err := faults.ParseSpec(*spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smctl faults: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("fault timeline (%d events):\n%s\n", len(scenario.Events), scenario)
	if *parseOnly {
		return
	}

	sc := experiments.ScaleQuick
	if *scale == "full" {
		sc = experiments.ScaleFull
	} else if *scale != "quick" {
		fmt.Fprintf(os.Stderr, "smctl faults: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	report, err := experiments.Run("faults", experiments.RunConfig{Scale: sc, FaultSpec: *spec})
	if err != nil {
		fmt.Fprintf(os.Stderr, "smctl faults: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(report.Render())
}

// runAudit is the `smctl audit` subcommand: replay one torture seed under
// the runtime auditor and print a shard's ownership timeline around any
// violation — the same deterministic world the sweep ran, so a seed from
// FOUNDBUGS_audit.json reproduces its finding exactly. Exits 1 if the replay
// hit any violation, so scripts and CI can gate on a seed staying clean.
func runAudit(argv []string) {
	fs := flag.NewFlagSet("smctl audit", flag.ExitOnError)
	seed := fs.Uint64("seed", 5, "torture seed to replay (e.g. one pinned in FOUNDBUGS_audit.json)")
	shardID := fs.String("shard", "", "shard whose ownership timeline to print (default: the first violation's shard)")
	full := fs.Bool("report", false, "also print the full audit report (every violation with its timeline)")
	fs.Parse(argv)

	run := experiments.RunTortureSeed(experiments.RunConfig{}, experiments.DefaultTortureParams(), *seed)
	a := run.Auditor
	checks := int64(0)
	for _, n := range a.Checks() {
		checks += n
	}
	fmt.Printf("torture seed %d: %d invariant checks, %d violations\n",
		*seed, checks, a.ViolationCount())
	fmt.Printf("fault timeline (%d events):\n%s\n", len(run.Scenario.Events), run.Scenario)
	for _, b := range run.Bugs {
		fmt.Printf("  first %-26s shard=%-8s at=%-14v %s\n", b.Invariant, b.Shard, b.At, b.Detail)
	}

	if *full {
		fmt.Println()
		a.WriteText(os.Stdout)
	}

	target := shard.ID(*shardID)
	if target == "" {
		if vs := a.Violations(); len(vs) > 0 {
			target = vs[0].Shard
		} else if ids := a.Shards(); len(ids) > 0 {
			target = ids[0]
		} else {
			fmt.Println("\nno ownership events observed")
			if a.ViolationCount() > 0 {
				os.Exit(1)
			}
			return
		}
	}
	fmt.Printf("\nownership timeline for %s:\n", target)
	a.TimelineText(target, os.Stdout)
	if a.ViolationCount() > 0 {
		os.Exit(1)
	}
}

// buildProfiled builds the deployment with the kernel profiler attached when
// one was requested (spec.Profiler must stay unset for a nil *Profile — a
// typed-nil sim.Profiler would make the loop call methods on nil).
func buildProfiled(spec experiments.DeploymentSpec, prof *simprof.Profile) *experiments.Deployment {
	if prof != nil {
		spec.Profiler = prof
	}
	return experiments.Build(spec)
}

// checkpoint renders the dashboard under a scenario heading.
func checkpoint(mon *healthmon.Monitor, title string) {
	fmt.Printf("\n=== %s ===\n", title)
	fmt.Print(mon.Snapshot().Render())
}

// startTraffic drives a steady read workload from an FRC client so the
// monitor has a request stream to grade.
func startTraffic(d *experiments.Deployment, shards int) {
	ks := experiments.KeyspaceFor(shards)
	client := d.NewClient("frc", ks, routing.DefaultOptions())
	d.Drive(client, 250*time.Millisecond, shards, nil,
		func(*sim.RNG, int) (bool, string, any) { return false, apps.KVOpScan, nil }, nil)
}

// statusDemo runs the default demo scenario (same world as plain smctl)
// under the health monitor: settle, unplanned machine failure, then a
// negotiated rolling upgrade.
func statusDemo(mon *healthmon.Monitor, prof *simprof.Profile, servers, shards, replicas int, seed uint64) {
	spec := demoSpec(servers, shards, replicas, seed)
	spec.Health = mon
	d := buildProfiled(spec, prof)
	if err := d.Settle(10 * time.Minute); err != nil {
		fmt.Fprintf(os.Stderr, "smctl status: %v\n", err)
		os.Exit(1)
	}
	startTraffic(d, shards)
	d.Loop.RunFor(2 * time.Minute)
	checkpoint(mon, "steady state (settled + 2m of traffic)")

	mgr := d.Managers["frc"]
	victim := mgr.RunningContainers(d.Jobs["frc"])[0]
	c, _ := mgr.Container(victim)
	fmt.Printf("\n>>> killing machine %s (container %s)\n", c.Machine, victim)
	mgr.KillMachine(c.Machine)
	d.Loop.RunFor(3 * time.Minute)
	checkpoint(mon, "after unplanned machine failure + failover")

	fmt.Printf("\n>>> rolling upgrade of job %s (drain + graceful migration)\n", d.Jobs["prn"])
	done := false
	d.Managers["prn"].RollingUpgrade(d.Jobs["prn"], 2, "upgrade", func() { done = true })
	for i := 0; i < 120 && !done; i++ {
		d.Loop.RunFor(30 * time.Second)
	}
	checkpoint(mon, fmt.Sprintf("after rolling upgrade (done=%v)", done))
}

// statusGeoFailover runs the Fig 19 shape — a secondary-only geo-distributed
// store losing and recovering a whole region — and shows what an operator
// would see at each stage.
func statusGeoFailover(mon *healthmon.Monitor, prof *simprof.Profile, servers, shards int, seed uint64) {
	spec := experiments.GeoKVSpec("geostore", [3]topology.RegionID{"frc", "prn", "odn"}, "prn",
		shards, 2, servers, seed)
	spec.Orch.Policy.AffinityWeight = 300
	for i := 0; i < shards*2/5; i++ { // 40% "east-coast" shards prefer FRC, as in fig19
		spec.Orch.Shards[i].RegionPreference = "frc"
	}
	spec.Health = mon
	d := buildProfiled(spec, prof)
	if err := d.Settle(10 * time.Minute); err != nil {
		fmt.Fprintf(os.Stderr, "smctl status: %v\n", err)
		os.Exit(1)
	}
	startTraffic(d, shards)
	d.Loop.RunFor(90 * time.Second)
	checkpoint(mon, "steady state (EC shards homed at frc)")

	frc := d.Managers["frc"]
	fmt.Printf("\n>>> region frc fails\n")
	frc.FailRegion()
	d.Loop.RunFor(2 * time.Minute)
	checkpoint(mon, "2m after region frc failed (replicas promoted remotely)")

	fmt.Printf("\n>>> region frc recovers\n")
	frc.RecoverRegion()
	d.Loop.RunFor(5 * time.Minute)
	checkpoint(mon, "5m after recovery (EC shards migrating home)")
}

// dumpMap prints the first n shard-map entries.
func dumpMap(d *experiments.Deployment, n int) {
	m := d.Orch.AssignmentSnapshot()
	fmt.Printf("shard map v%d (%d shards), first %d entries:\n", m.Version, len(m.Entries), n)
	for i, id := range d.Orch.ShardIDs() {
		if i >= n {
			break
		}
		as := m.Replicas(id)
		fmt.Printf("  %-8s %s", id, shard.FormatAssignments(as))
		for _, a := range as {
			fmt.Printf(" [%s]", d.Net.Region(rpcnet.Endpoint(a.Server)))
		}
		fmt.Println()
	}
}
