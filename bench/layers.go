package main

import (
	"fmt"
	"sort"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/appserver"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// driveReps is how often each direct layer call is timed; the median is kept.
const driveReps = 5

func median(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// timeMedian runs fn driveReps times and returns the median duration.
func timeMedian(fn func()) time.Duration {
	d := make([]time.Duration, driveReps)
	for i := range d {
		start := time.Now()
		fn()
		d[i] = time.Since(start)
	}
	return median(d)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// allocatorInput rebuilds, from the orchestrator's public accessors, the
// allocation problem it faces at the end of the window.
func (r *run) allocatorInput() allocator.Input {
	o := r.d.Orch
	m := o.AssignmentSnapshot()
	in := allocator.Input{Current: make(map[shard.ID][]shard.ServerID, len(r.ids))}
	for _, region := range r.w.regions {
		for _, id := range r.d.Hosts[region].ServerIDs() {
			in.Servers = append(in.Servers, allocator.ServerInfo{
				ID:       id,
				Domains:  o.ServerDomains(id),
				Capacity: r.orch.ServerCapacity,
				Alive:    o.ServerAlive(id),
			})
		}
	}
	for i, id := range r.ids {
		load := make(topology.Capacity, len(r.orch.Policy.Metrics))
		for _, res := range r.orch.Policy.Metrics {
			load[res] = o.ShardLoadValue(id, res)
		}
		cfg := r.orch.Shards[i]
		in.Shards = append(in.Shards, allocator.ShardSpec{
			ID:               id,
			Replicas:         o.TotalReplicas(id),
			Load:             load,
			RegionPreference: cfg.RegionPreference,
			PreferenceWeight: cfg.PreferenceWeight,
		})
		as := m.Replicas(id)
		cur := make([]shard.ServerID, len(as))
		for j, a := range as {
			cur[j] = a.Server
		}
		in.Current[id] = cur
	}
	return in
}

// driveLayers times direct calls into allocator/solver, shard and appserver
// on the end state of the window and adds their metrics to out.
func (r *run) driveLayers(out metricSet) error {
	in := r.allocatorInput()
	var last *allocator.Result
	var solve []time.Duration
	runTime := timeMedian(func() {
		last = allocator.New(r.orch.Policy, r.seed).Run(in, allocator.Periodic)
		solve = append(solve, last.Elapsed)
	})
	solveTime := median(solve)
	out.set("allocator.run_ms", ms(runTime))
	out.set("allocator.moves", float64(len(last.Moves)))
	out.set("allocator.deferred", float64(last.Deferred))
	out.set("allocator.violations_initial", float64(last.Initial.Total()))
	out.set("allocator.violations_final", float64(last.Final.Total()))
	out.set("solver.solve_ms", ms(solveTime))
	out.set("solver.solves", float64(last.Solves))
	out.set("solver.evaluated", float64(last.Evaluated))
	out.set("solver.ns_per_eval", float64(solveTime)/float64(max(last.Evaluated, 1)))

	m := r.d.Orch.AssignmentSnapshot()
	// prev differs from m in 30 entries, the size of a busy publish's delta.
	prev := m.Clone()
	prev.Version = m.Version - 1
	for _, id := range r.ids[:min(30, len(r.ids))] {
		as := append([]shard.Assignment(nil), prev.Entries[id]...)
		as[0].Server = "elsewhere"
		prev.Entries[id] = as
	}
	var delta *shard.Delta
	out.set("shard.clone_ms", ms(timeMedian(func() { _ = m.Clone() })))
	out.set("shard.diff_ms", ms(timeMedian(func() { delta = m.Diff(prev, nil) })))
	apply := make([]time.Duration, driveReps)
	for i := range apply {
		target := prev.Clone()
		start := time.Now()
		err := target.ApplyDelta(delta)
		apply[i] = time.Since(start)
		if err != nil {
			return fmt.Errorf("layer drive: %w", err)
		}
	}
	out.set("shard.apply_delta_us", float64(median(apply))/1e3)
	var invalid error
	out.set("shard.validate_ms", ms(timeMedian(func() { invalid = m.Validate() })))
	if invalid != nil {
		return fmt.Errorf("layer drive: end-state map: %w", invalid)
	}
	out.set("shard.map_bytes", float64(m.ApproxBytes()))

	// What one full publish encodes: every server's assignment.
	perServer := make(map[shard.ServerID]map[shard.ID]shard.Role)
	for id, as := range m.Entries {
		for _, a := range as {
			if perServer[a.Server] == nil {
				perServer[a.Server] = make(map[shard.ID]shard.Role)
			}
			perServer[a.Server][id] = a.Role
		}
	}
	out.set("appserver.encode_assignment_ms", ms(timeMedian(func() {
		for _, shards := range perServer {
			_ = appserver.EncodeAssignment(shards)
		}
	})))
	return nil
}
