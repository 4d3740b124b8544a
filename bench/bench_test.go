package main

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// smokeSeconds sizes the smoke horizons: a quarter of the benchmark's, on 1/20
// of the shards.
const smokeSeconds = nominalSeconds / 4.0

// scaled returns the workload at 1/div of its shards, with fewer servers
// and clients: the same code path on a few hundred shards.
func (w workload) scaled(div int) workload {
	w.shards /= div
	w.servers = max(w.servers/10, 4)
	w.clients = max(w.clients/5, len(w.regions))
	w.rate = max(w.rate/5, 5)
	return w
}

func smokePass(t *testing.T, w workload, seed uint64, trace bool) outcome {
	t.Helper()
	out, err := runPass(w.scaled(20), seed, smokeSeconds, trace, t.TempDir())
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	if !out.Correct {
		t.Errorf("%s trace=%v: a correctness check failed (see output)", w.name, trace)
	}
	return out
}

func checkMetrics(t *testing.T, w workload, defs []metricDef, out outcome) {
	t.Helper()
	if len(out.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", w.name, len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", w.name, d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", w.name, d.name, m.Value)
		case m.Unit == "" || m.Unit != d.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", w.name, d.name, m.Unit, d.unit)
		}
	}
}

// TestSmoke runs every workload at 1/20 size through the code path the
// benchmark takes: untraced pass, then the traced pass's three windows.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		untraced := smokePass(t, w, 1, false)
		checkMetrics(t, w, endToEnd, untraced)
		for _, d := range endToEnd {
			if untraced.Metrics[d.name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, d.name)
			}
		}
		traced := smokePass(t, w, 1, true)
		checkMetrics(t, w, perLayer, traced)
		if untraced.digest != traced.digest {
			t.Errorf("%s: sim_digest %s untraced, %s traced", w.name, untraced.digest, traced.digest)
		}
		if untraced.Attempted != traced.Attempted {
			t.Errorf("%s: attempted %d untraced, %d traced", w.name, untraced.Attempted, traced.Attempted)
		}
	}
}

// TestSeedChangesRun: another seed is another simulation. (That one seed is
// one simulation is checked inside every pass: its windows must agree on the
// digest, which covers every simulated end-to-end metric.)
func TestSeedChangesRun(t *testing.T) {
	for _, w := range workloads {
		var digests [2]string
		for i := range digests {
			res, err := window(w.scaled(20), uint64(7+i), horizonFor(w, smokeSeconds), plain)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			digests[i] = res.digest
		}
		if digests[0] == digests[1] {
			t.Errorf("%s: seeds 7 and 8 have the same digest %s", w.name, digests[0])
		}
	}
}

// TestContractFile keeps BENCHMARK.json equal to the tables in this package.
func TestContractFile(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := contractJSON(); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with `go run ./bench -contract > BENCHMARK.json`")
	}
}
