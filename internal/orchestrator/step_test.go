package orchestrator

import (
	"slices"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// TestStepRecordsCarryTheirOwnFields: with two §4.3 moves in flight at once
// on one world, every step's outcome reaches the hook with its own shard,
// step and server, in the protocol's order, so a record shared by two steps
// in flight, or cleared before report reads it, shows here. A warmed
// orchestrator's step round trip then allocates nothing: its record comes off
// the free list with its callbacks bound. Nor does a whole graceful move,
// enqueued to finished: its migration record comes off its own free list, and
// its waits hold the record as their argument.
func TestStepRecordsCarryTheirOwnFields(t *testing.T) {
	cfg := baseConfig(shard.PrimaryOnly, 2, 1)
	cfg.AllocInterval = time.Hour // after the initial placement, only the moves below
	w := buildWorld(t, []topology.RegionID{"r1"}, 4, cfg)
	w.loop.RunFor(2 * time.Minute) // servers come up
	w.orch.allocate(allocator.Periodic)
	w.loop.RunFor(time.Minute)
	o := w.orch

	type stepSeen struct {
		shard  shard.ID
		step   string
		server shard.ServerID
	}
	var seen []stepSeen
	recording := true
	o.AddHooks(Hooks{MigrationStep: func(s shard.ID, step string, server shard.ServerID, status string) {
		if !recording {
			return
		}
		if status != "ok" {
			t.Errorf("%s %s on %s: %s", s, step, server, status)
		}
		seen = append(seen, stepSeen{s, step, server})
	}})
	want := map[shard.ID][]stepSeen{}
	var busy []shard.ServerID
	for _, s := range []shard.ID{"s000", "s001"} {
		busy = append(busy, o.shards[s].replicas[0].Server)
	}
	for i, s := range []shard.ID{"s000", "s001"} {
		from := busy[i]
		var to shard.ServerID
		for _, st := range o.byID {
			if !slices.Contains(busy, st.id) {
				to = st.id
				busy = append(busy, to)
				break
			}
		}
		o.enqueueMigration(migration{shard: s, from: from, to: to, graceful: true})
		want[s] = []stepSeen{{s, "prepare_add_shard", to}, {s, "prepare_drop_shard", from},
			{s, "add_shard", to}, {s, "drop_shard", from}}
	}
	o.pumpMigrations()
	w.loop.RunFor(time.Minute)

	got := map[shard.ID][]stepSeen{}
	for _, st := range seen {
		got[st.shard] = append(got[st.shard], st)
	}
	for s, steps := range want {
		if !slices.Equal(got[s], steps) {
			t.Errorf("the steps of %s reported %v, want %v", s, got[s], steps)
		}
	}
	if len(seen) != 8 || seen[0].shard == seen[1].shard {
		t.Fatalf("the two moves' steps did not overlap: %v", seen)
	}

	recording = false
	ss := o.shards["s000"]
	c := &cleanup{ss: ss, op: orphanDrop, server: busy[len(busy)-1]}
	roundTrip := func() {
		ss.cleanups = append(ss.cleanups, c)
		o.callStep(0, orphanDrop, ss.cfg.ID, c.server, "", 0, nil, c)
		for slices.Contains(ss.cleanups, c) {
			w.loop.Step()
		}
	}
	if n := testing.AllocsPerRun(10, roundTrip); n != 0 {
		t.Errorf("a step round trip allocates %v times, want 0", n)
	}

	s001 := o.shards["s001"]
	here, there := s001.replicas[0].Server, busy[0]
	move := func() {
		o.enqueueMigration(migration{shard: s001.cfg.ID, from: here, to: there, graceful: true})
		o.pumpMigrations()
		for s001.mig != nil {
			w.loop.Step()
		}
		if s001.replicas[0].Server != there {
			t.Fatalf("the move of s001 to %s left it on %s", there, s001.replicas[0].Server)
		}
		here, there = there, here
	}
	// Warm up across two load collections, so that the shard's held loads
	// have grown their room for the one server more a move reports from, and
	// across a tombstone's life (30 s), so that each server holds a timer
	// record for every tombstone it keeps at once and a replica record it
	// released.
	for start := w.loop.Now(); w.loop.Now() < start+time.Minute; {
		move()
	}
	// What a move allocates is outside the orchestrator: discovery's stored
	// copy of the changed entry. The target's replica record and the source's
	// tombstone timer are records the appserver reuses.
	const perMove = 1
	if n := allocsOnce(func() {
		for range 10 {
			move()
		}
	}); n != 10*perMove {
		t.Errorf("ten warmed graceful moves allocate %d times, want %d", n, 10*perMove)
	}
}
