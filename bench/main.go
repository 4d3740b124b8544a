// Command bench is the repository's end-to-end benchmark: four workloads on
// real experiments.Build deployments, measured from outside through public
// API only. See README.md in this directory.
//
//	go run ./bench                                    the whole set: each workload untraced, then traced
//	go run ./bench -check-repeat                      the set twice; fails unless the two agree
//	go run ./bench -workload W -seed N -seconds S -trace 0|1   one pass in this process
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// windowReps is how many times the untraced pass sets up and measures the
// same seed. setup_s is the median set-up; sim_speed takes every slice of
// simulated time from the window that ran it fastest, which is what the
// window costs on an undisturbed host (a shared 2-core box slows any one
// window by 10-40% for seconds at a time).
const windowReps = 3

// outcome is the last line of a single pass's standard output.
type outcome struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`

	digest string // printed on its own line, not part of the contract's last line
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name        = flag.String("workload", "", "run one workload in this process (default: the whole set, each pass in a child process)")
		seed        = flag.Uint64("seed", 1, "workload seed: the inputs and the deployment are a function of it")
		seconds     = flag.Float64("seconds", nominalSeconds, "host seconds the measured window is sized for; the time-scale factor is seconds/"+fmt.Sprint(nominalSeconds))
		trace       = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		outDir      = flag.String("out", filepath.Join("bench", "out"), "directory for <workload>.trace.json")
		checkRepeat = flag.Bool("check-repeat", false, "run the set twice and fail unless simulated metrics are equal and host metrics within bounds")
		record      = flag.String("record", "", "write the set's results to this JSON file")
		contract    = flag.Bool("contract", false, "print BENCHMARK.json from the metric and workload tables and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The simulation is one goroutine; the second P is for the collector.
	runtime.GOMAXPROCS(2)
	// A deployment's live heap is tens of MB, so at the default GOGC the
	// collector cycles every ~50 ms of a window, and on a shared 2-vCPU host
	// its pacing was the largest source of run-to-run noise (±12% at 100,
	// ±5% at 400 on rolling_upgrade). go.gc_cpu_s still reports its cost.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	switch {
	case *contract:
		os.Stdout.Write(contractJSON())
	case *name == "":
		os.Exit(runSet(*seed, *seconds, *checkRepeat, *record))
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		out, err := runPass(w, *seed, *seconds, *trace == 1, *outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !out.Correct {
			os.Exit(1)
		}
	}
}

// horizonFor scales the workload's horizon by the time-scale factor.
func horizonFor(w workload, seconds float64) time.Duration {
	return time.Duration(float64(w.horizon) * seconds / nominalSeconds).Truncate(time.Second)
}

// runPass runs one workload's untraced or traced pass and prints its metrics.
func runPass(w workload, seed uint64, seconds float64, trace bool, outDir string) (outcome, error) {
	horizon := horizonFor(w, seconds)
	if trace {
		return tracedPass(w, seed, horizon, outDir)
	}
	return untracedPass(w, seed, horizon)
}

// window sets up a fresh deployment and measures one window on it.
func window(w workload, seed uint64, horizon time.Duration, p pass) (result, error) {
	r := newRun(w, seed, horizon, p)
	if err := r.setup(); err != nil {
		return result{}, err
	}
	return r.measure(), nil
}

func untracedPass(w workload, seed uint64, horizon time.Duration) (outcome, error) {
	var res result
	var problems []string
	setups := make([]time.Duration, windowReps)
	sliceS := make([][]float64, windowReps)
	for rep := range setups {
		digest := res.digest
		res = result{}
		runtime.GC() // the previous deployment is garbage; keep it out of peak_rss_mb
		start := time.Now()
		r := newRun(w, seed, horizon, plain)
		if err := r.setup(); err != nil {
			return outcome{}, err
		}
		setups[rep] = time.Since(start)
		res = r.measure()
		sliceS[rep] = res.sliceS
		if rep > 0 && res.digest != digest {
			problems = append(problems, fmt.Sprintf("two windows of seed %d have sim_digest %s and %s", seed, digest, res.digest))
		}
	}
	fmt.Println(res.r.describe())
	m := newMetricSet(endToEnd)
	endToEndMetrics(m, res, median(setups).Seconds(), fastest(sliceS...))
	return report(m, res, append(problems, res.problems...)), nil
}

// tracedPass measures, on the same seed, one untraced window (the runtime's
// numbers and the wall that tracing overhead is measured against), one
// audited window (the runtime migration auditor, which is too heavy to share
// a window with the spans) and windowReps traced windows (spans and hook
// counters). All must agree on the sim_digest: what rides along perturbs
// nothing.
func tracedPass(w workload, seed uint64, horizon time.Duration, outDir string) (outcome, error) {
	var problems []string
	var results []result // untraced, audited, then the traced ones
	var auditChecks int64
	passes := []pass{plain, audited}
	for i := 0; i < windowReps; i++ {
		passes = append(passes, traced)
	}
	for i, p := range passes {
		res, err := window(w, seed, horizon, p)
		if err != nil {
			return outcome{}, err
		}
		for _, problem := range res.problems {
			problems = append(problems, fmt.Sprintf("window %d: %s", i, problem))
		}
		if i > 0 && res.digest != results[0].digest {
			problems = append(problems, fmt.Sprintf("sim_digest is %s untraced and %s in window %d: an observer perturbed the run",
				results[0].digest, res.digest, i))
		}
		if a := res.r.d.Auditor; a != nil {
			for _, n := range a.Checks() {
				auditChecks += n
			}
		}
		// Of every window but the last only the slice times are needed
		// later; let go of its deployment before the next one is built.
		if i < len(passes)-1 {
			res.r = &run{tr: res.r.tr}
			if res.r.tr != nil {
				res.r.tr.spans = nil
			}
		}
		results = append(results, res)
		runtime.GC()
	}
	last := results[len(results)-1]
	fmt.Println(last.r.describe())
	m := newMetricSet(perLayer)
	perLayerMetrics(m, results[0], results[2:], auditChecks)
	if err := last.r.driveLayers(m); err != nil {
		problems = append(problems, err.Error())
	}
	path := filepath.Join(outDir, w.name+".trace.json")
	if err := last.r.tr.writeFile(path); err != nil {
		return outcome{}, err
	}
	fmt.Printf("trace: %d spans kept from simulated t=%v, %d outside the window -> %s\n",
		len(last.r.tr.spans), last.r.at(w.disturbAt), last.r.tr.dropped, path)
	return report(m, last, problems), nil
}

// report prints a pass's metrics by name with their units, the digest and
// any failed check, and builds the pass's last line.
func report(m metricSet, res result, problems []string) outcome {
	problems = append(problems, m.problems()...)
	out := outcome{
		Correct:   len(problems) == 0,
		Attempted: res.r.attempted,
		Failed:    res.r.failed,
		Metrics:   make(map[string]measured, len(m.defs)),
		digest:    res.digest,
	}
	for _, d := range m.defs {
		v := m.values[d.name]
		fmt.Printf("  %-36s %16.6g %-8s %s\n", d.name, v, d.unit, d.kind())
		out.Metrics[d.name] = measured{Value: v, Unit: d.unit}
	}
	if len(res.r.failReasons) > 0 {
		reasons := make([]string, 0, len(res.r.failReasons))
		for reason, n := range res.r.failReasons {
			reasons = append(reasons, fmt.Sprintf("%s=%d", reason, n))
		}
		sort.Strings(reasons)
		fmt.Println("failed requests:", reasons)
	}
	fmt.Println("sim_digest", res.digest)
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
	}
	return out
}
