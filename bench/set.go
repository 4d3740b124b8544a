package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// workloadResult is one workload's two passes.
type workloadResult struct {
	w                workload
	untraced, traced outcome
}

// runChild runs one pass of one workload in a fresh process, so that peak
// RSS, the collector and the interned-label table are per pass. The child's
// output is passed through; its last line and its sim_digest are parsed.
func runChild(w workload, seed uint64, seconds float64, trace int) (outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return outcome{}, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var res outcome
	var last, digest string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if d, ok := strings.CutPrefix(last, "sim_digest "); ok {
			digest = d
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s trace=%d: no result line (%v): %w", w.name, trace, runErr, err)
	}
	res.digest = digest
	return res, nil
}

// runOnce runs every workload untraced, then traced, and returns the results
// and the failed checks.
func runOnce(seed uint64, seconds float64) ([]workloadResult, []string) {
	var results []workloadResult
	var failures []string
	for _, w := range workloads {
		wr := workloadResult{w: w}
		for trace, dst := range []*outcome{&wr.untraced, &wr.traced} {
			fmt.Printf("== %s trace=%d\n", w.name, trace)
			res, err := runChild(w, seed, seconds, trace)
			if err != nil {
				failures = append(failures, err.Error())
			} else if !res.Correct {
				failures = append(failures, fmt.Sprintf("%s trace=%d: a correctness check failed", w.name, trace))
			}
			*dst = res
		}
		if wr.untraced.digest != wr.traced.digest {
			failures = append(failures, fmt.Sprintf("%s: sim_digest %s untraced, %s traced", w.name, wr.untraced.digest, wr.traced.digest))
		}
		results = append(results, wr)
	}
	return results, failures
}

// runSet is the default mode: the whole set once, or twice with -check-repeat.
func runSet(seed uint64, seconds float64, checkRepeat bool, recordPath string) int {
	results, failures := runOnce(seed, seconds)
	if checkRepeat {
		second, more := runOnce(seed, seconds)
		failures = append(failures, more...)
		failures = append(failures, compareSets(results, second)...)
	}
	if recordPath != "" {
		if err := writeRecord(recordPath, seed, seconds, results); err != nil {
			failures = append(failures, err.Error())
		}
	}
	for _, f := range failures {
		fmt.Println("FAIL:", f)
	}
	if len(failures) > 0 {
		return 1
	}
	fmt.Println("bench: all checks passed")
	return 0
}

// compareSets holds two runs of the set against each other: simulated
// metrics must be bit-equal, end-to-end host metrics within their bound. It
// prints every host metric's observed spread, which is where the bounds in
// BENCHMARK.json come from.
func compareSets(a, b []workloadResult) []string {
	var failures []string
	fmt.Println("== repeat check: |second-first|/first per host metric")
	for i := range a {
		for _, side := range []struct {
			defs          []metricDef
			first, second outcome
		}{
			{endToEnd, a[i].untraced, b[i].untraced},
			{perLayer, a[i].traced, b[i].traced},
		} {
			for _, d := range side.defs {
				x, y := side.first.Metrics[d.name].Value, side.second.Metrics[d.name].Value
				if !d.host {
					if x != y {
						failures = append(failures, fmt.Sprintf("%s %s: simulated metric differs between two runs of one seed: %v vs %v", a[i].w.name, d.name, x, y))
					}
					continue
				}
				spread := math.Abs(y-x) / math.Max(math.Abs(x), math.SmallestNonzeroFloat64)
				fmt.Printf("  %-16s %-32s %12.6g %12.6g  %6.2f%%\n", a[i].w.name, d.name, x, y, spread*100)
				if d.bound > 0 && spread > d.bound {
					failures = append(failures, fmt.Sprintf("%s %s: two runs differ by %.1f%%, bound %.1f%%", a[i].w.name, d.name, spread*100, d.bound*100))
				}
			}
		}
	}
	return failures
}

// contractFile is BENCHMARK.json.
type contractFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []contractNamed  `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// contractJSON renders BENCHMARK.json from the workload and metric tables.
func contractJSON() []byte {
	c := contractFile{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: nominalSeconds,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractNamed{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		c.EndToEnd = append(c.EndToEnd, contractMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		better := d.better
		if better == "" {
			better = "lower" // less time, less memory, less work for the same outcome
		}
		c.PerLayer = append(c.PerLayer, contractMetric{d.name, d.unit, better, nil})
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and finite numbers
	}
	return append(data, '\n')
}

// recordFile is the committed record of one run of the set.
type recordFile struct {
	Commit          string           `json:"commit"`
	Go              string           `json:"go"`
	NProc           int              `json:"nproc"`
	GOMAXPROCS      int              `json:"gomaxprocs"`
	Seed            uint64           `json:"seed"`
	Seconds         float64          `json:"seconds"`
	TimeScaleFactor float64          `json:"time_scale_factor"`
	Workloads       []recordWorkload `json:"workloads"`
}

type recordWorkload struct {
	Name             string                  `json:"name"`
	Why              string                  `json:"why"`
	Regions          int                     `json:"regions"`
	ServersPerRegion int                     `json:"servers_per_region"`
	Shards           int                     `json:"shards"`
	Replicas         int                     `json:"replicas"`
	Clients          int                     `json:"clients"`
	RatePerClient    int                     `json:"rate_per_client"`
	HorizonS         float64                 `json:"horizon_s"`
	Attempted        int64                   `json:"attempted"`
	Failed           int64                   `json:"failed"`
	SimDigest        string                  `json:"sim_digest"`
	EndToEnd         map[string]recordMetric `json:"end_to_end"`
	PerLayer         map[string]recordMetric `json:"per_layer"`
}

type recordMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Kind   string  `json:"kind"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

func recordMetrics(defs []metricDef, p outcome) map[string]recordMetric {
	out := make(map[string]recordMetric, len(defs))
	for _, d := range defs {
		out[d.name] = recordMetric{p.Metrics[d.name].Value, d.unit, d.kind(), d.better, d.bound}
	}
	return out
}

func writeRecord(path string, seed uint64, seconds float64, results []workloadResult) error {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	rec := recordFile{
		Commit: commit, Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, TimeScaleFactor: seconds / nominalSeconds,
	}
	for _, wr := range results {
		w := wr.w
		rec.Workloads = append(rec.Workloads, recordWorkload{
			Name: w.name, Why: w.why,
			Regions: len(w.regions), ServersPerRegion: w.servers, Shards: w.shards, Replicas: w.replicas,
			Clients: w.clients, RatePerClient: w.rate,
			HorizonS:  horizonFor(w, seconds).Seconds(),
			Attempted: wr.untraced.Attempted, Failed: wr.untraced.Failed,
			SimDigest: wr.untraced.digest,
			EndToEnd:  recordMetrics(endToEnd, wr.untraced),
			PerLayer:  recordMetrics(perLayer, wr.traced),
		})
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
