// Command smbench regenerates the paper's tables and figures.
//
// Usage:
//
//	smbench -fig fig17            # one experiment, full-paper parameters
//	smbench -fig all -scale quick # everything, scaled down
//	smbench -fig fig21 -scale stress  # solver experiments at ~100k entities
//	smbench -list                 # show available experiment ids
//	smbench -faults "t=60s partition(region-a|region-b) for 120s"
//	                              # compound-fault experiment, custom timeline
//
// Each experiment prints its parameters, result tables, downsampled curves,
// and headline findings; EXPERIMENTS.md records the paper-vs-measured
// comparison for every figure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"shardmanager/internal/experiments"
	"shardmanager/internal/healthmon"
	"shardmanager/internal/metrics"
	"shardmanager/internal/sim"
	"shardmanager/internal/simprof"
	"shardmanager/internal/trace"
)

func main() { os.Exit(run()) }

// run is main's body. It returns the exit status rather than calling os.Exit
// so that the deferred CPU-profile flush runs on every path, error exits and
// -fail-on-bugs included.
func run() int {
	fig := flag.String("fig", "all", "experiment id (see -list) or 'all'")
	scale := flag.String("scale", "full", "'full' (paper parameters), 'quick', or 'stress' (~100k-entity solver problems)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in chrome://tracing or ui.perfetto.dev)")
	traceText := flag.String("trace-text", "", "write a human-readable text timeline of the run to this file")
	metricsOut := flag.String("metrics-out", "", "write the run's labeled metrics to this file (byte-stable for a given seed)")
	expo := flag.String("expo", "prom", "metrics exposition format: 'prom' (Prometheus text), 'json', or 'csv'")
	faultSpec := flag.String("faults", "", "fault-timeline DSL for the 'faults' experiment, e.g. \"t=60s partition(region-a|region-b) for 120s\" (see internal/faults); implies -fig faults unless -fig is set")
	tortureSeeds := flag.Int("torture-seeds", 0, "override the 'torture' experiment's seed count (0 keeps the scale default)")
	tortureStart := flag.Uint64("torture-start", 0, "override the 'torture' experiment's starting seed (0 keeps the default)")
	foundBugsOut := flag.String("foundbugs-out", "", "write the torture experiment's found-bug log (seed-pinned audit violations) to this file")
	failOnBugs := flag.Bool("fail-on-bugs", false, "exit non-zero if the torture sweep records any audit violation or panic (CI gate)")
	profOut := flag.String("prof-out", "", "write the kernel profiler's text report to this file (byte-stable for a given seed unless -prof-wall)")
	profJSON := flag.String("prof-json", "", "write the kernel profiler's JSON report to this file")
	profFolded := flag.String("prof-folded", "", "write folded stacks (flamegraph.pl / inferno / speedscope input) to this file")
	profWall := flag.Bool("prof-wall", false, "include wall-clock and allocation columns in the kernel profiler reports (nondeterministic)")
	cpuProfile := flag.String("cpuprofile", "", "write a Go CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a Go heap profile taken at exit to this file")
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "smbench: %v\n", err)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	var cfg experiments.RunConfig
	if *faultSpec != "" {
		cfg.FaultSpec = *faultSpec
		if *fig == "all" {
			*fig = "faults"
		}
	}
	if *tortureSeeds > 0 || *tortureStart > 0 {
		cfg.Torture = func(p *experiments.TortureParams) {
			if *tortureSeeds > 0 {
				p.Seeds = *tortureSeeds
			}
			if *tortureStart > 0 {
				p.StartSeed = *tortureStart
			}
		}
		if *fig == "all" {
			*fig = "torture"
		}
	}

	var tracer *trace.Tracer
	if *traceOut != "" || *traceText != "" {
		tracer = trace.New()
		cfg.Tracer = tracer
	}
	var reg *metrics.Registry
	if *metricsOut != "" {
		// One registry across every deployment the run builds, so the
		// export covers the whole invocation.
		reg = metrics.NewRegistry()
		cfg.Health = func() *healthmon.Monitor {
			return healthmon.New(healthmon.Options{Registry: reg})
		}
	}
	var prof *simprof.Profile
	if *profOut != "" || *profJSON != "" || *profFolded != "" {
		// One profile across every deployment the run builds: deployments
		// run sequentially, so combined attribution is safe and covers the
		// whole invocation. Alloc attribution only when the wall-clock
		// columns that render it were requested (it costs ~1µs/event).
		prof = simprof.New(simprof.Options{Allocs: *profWall, Registry: reg})
		cfg.Profiler = func() sim.Profiler { return prof }
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-10s %s\n", id, experiments.Title(id))
		}
		return 0
	}
	switch *scale {
	case "full":
		cfg.Scale = experiments.ScaleFull
	case "quick":
		cfg.Scale = experiments.ScaleQuick
	case "stress":
		cfg.Scale = experiments.ScaleStress
	default:
		fmt.Fprintf(os.Stderr, "smbench: unknown scale %q\n", *scale)
		return 2
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = experiments.IDs()
	}
	bugsFound := false
	for _, id := range ids {
		start := time.Now()
		report, err := experiments.Run(id, cfg)
		if err != nil {
			return fail(err)
		}
		fmt.Println(report.Render())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Truncate(time.Millisecond))
		if report.ID == "torture" && *foundBugsOut != "" {
			if err := writeFoundBugs(report, *foundBugsOut); err != nil {
				return fail(err)
			}
		}
		if report.ID == "torture" && *failOnBugs {
			if art, ok := report.Extra.(*experiments.TortureArtifacts); ok && (art.Violations > 0 || art.Panics > 0) {
				fmt.Fprintf(os.Stderr, "smbench: torture sweep recorded %d violations on %d seeds (%d panics); failing per -fail-on-bugs\n",
					art.Violations, art.SeedsHit, art.Panics)
				bugsFound = true
			}
		}
	}

	if err := writeTrace(tracer, *traceOut, *traceText); err != nil {
		return fail(err)
	}
	if err := writeMetrics(reg, *metricsOut, *expo); err != nil {
		return fail(err)
	}
	if err := writeProf(prof, *profOut, *profJSON, *profFolded, *profWall); err != nil {
		return fail(err)
	}
	heap := func(w io.Writer) error {
		runtime.GC() // settle live-heap numbers before the snapshot
		return pprof.WriteHeapProfile(w)
	}
	if err := writeFile(*memProfile, heap, "heap profile written to "+*memProfile); err != nil {
		return fail(err)
	}
	if bugsFound {
		return 1
	}
	return 0
}

// writeFoundBugs writes the torture sweep's found-bug log: every audit
// violation discovered, pinned to the seed that reproduces it (committed
// even when empty, so a sweep that finds nothing is distinguishable from a
// sweep that never ran).
func writeFoundBugs(r *experiments.Report, path string) error {
	if r.Extra == nil {
		return fmt.Errorf("torture report carries no artifacts")
	}
	data, err := json.MarshalIndent(r.Extra, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("found-bug log written to %s\n", path)
	return nil
}

// writeProf exports the run's kernel profile in the requested formats
// (no-op when no -prof-* flag was given).
func writeProf(prof *simprof.Profile, textPath, jsonPath, foldedPath string, wall bool) error {
	if prof == nil {
		return nil
	}
	opts := simprof.ReportOptions{Wall: wall}
	write := func(path string, render func(io.Writer, simprof.ReportOptions) error, what string) error {
		return writeFile(path, func(w io.Writer) error { return render(w, opts) }, what+" written to "+path)
	}
	if err := write(textPath, prof.WriteText, "kernel profile"); err != nil {
		return err
	}
	if err := write(jsonPath, prof.WriteJSON, "kernel profile (json)"); err != nil {
		return err
	}
	return write(foldedPath, prof.WriteFolded, "folded stacks")
}

// writeMetrics exports the shared registry in the requested format (no-op
// when -metrics-out is unset).
func writeMetrics(reg *metrics.Registry, path, format string) error {
	if reg == nil || path == "" {
		return nil
	}
	var write func(io.Writer) error
	switch format {
	case "prom":
		write = reg.WritePrometheus
	case "json":
		write = reg.WriteJSON
	case "csv":
		write = reg.WriteCSV
	default:
		return fmt.Errorf("unknown exposition format %q (want prom, json, or csv)", format)
	}
	return writeFile(path, write, fmt.Sprintf("metrics written to %s (%s)", path, format))
}

// writeTrace exports the tracer to the requested files (no-ops when tracing
// is off).
func writeTrace(tracer *trace.Tracer, chromePath, textPath string) error {
	if tracer == nil {
		return nil
	}
	if err := writeFile(chromePath, tracer.WriteChrome, "trace written to "+chromePath); err != nil {
		return err
	}
	return writeFile(textPath, tracer.WriteText, "trace timeline written to "+textPath)
}

// writeFile creates path, fills it with write and prints done once the file
// is closed. An empty path writes nothing.
func writeFile(path string, write func(io.Writer) error, done string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println(done)
	return nil
}
