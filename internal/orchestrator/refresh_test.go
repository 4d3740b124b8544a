package orchestrator

import (
	"reflect"
	"testing"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/appserver"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// tableApp is countApp reporting each shard's CPU load from a table the test
// edits; a test that edits it marks the shard (appserver.Server.LoadChanged).
type tableApp struct {
	*countApp
	cpu map[shard.ID]float64
}

func (a tableApp) ShardLoad(id shard.ID, into topology.Capacity) {
	into[topology.ResourceCPU] = a.cpu[id]
	into[topology.ResourceShardCount] = 1
}

// TestKeptProblemMatchesFromScratch drives one world through moves, load
// reports that change some shards and leave others equal, a drain and its
// cancel, a death inside and past the failover grace, a rejoin, a region
// preference edit and a load skew that puts a server past the balance band
// (MaxDiff). After every step, in both modes, the kept problem —
// refreshed where the writers marked it — must give what allocator.Run gives
// on the problem built from nothing (refInput): the same moves, deferrals,
// violation counts, solves and evaluations.
func TestKeptProblemMatchesFromScratch(t *testing.T) {
	cfg := baseConfig(shard.PrimarySecondary, 24, 2)
	cfg.FailoverGrace = 20 * time.Second
	cfg.AllocInterval = 15 * time.Second
	cfg.MaxConcurrentMigrations = 4
	cpu := map[shard.ID]float64{}
	for _, sc := range cfg.Shards {
		cpu[sc.ID] = 1
	}
	w := buildWorldOf(t, []topology.RegionID{"r1", "r2"}, 4, cfg,
		func(*appserver.Server) appserver.Application { return tableApp{newCountApp(), cpu} })
	o := w.orch
	fresh := allocator.New(o.cfg.Policy, 1) // buildWorld's seed
	checks := 0
	check := func(step string) {
		t.Helper()
		for _, mode := range []allocator.Mode{allocator.Periodic, allocator.Emergency} {
			o.refresh()
			got, want := o.prob.Run(mode), fresh.Run(refInput(o), mode)
			if !reflect.DeepEqual(got.Moves, want.Moves) || got.Deferred != want.Deferred ||
				got.Initial != want.Initial || got.Final != want.Final ||
				got.Solves != want.Solves || got.Evaluated != want.Evaluated {
				t.Fatalf("%s, %v at %v: the kept problem gives %d moves (%d deferred) %+v -> %+v in %d solves, %d evaluated; "+
					"from scratch %d moves (%d deferred) %+v -> %+v in %d solves, %d evaluated",
					step, mode, w.loop.Now(), len(got.Moves), got.Deferred, got.Initial, got.Final, got.Solves, got.Evaluated,
					len(want.Moves), want.Deferred, want.Initial, want.Final, want.Solves, want.Evaluated)
			}
			checks++
		}
	}
	// run advances the world in steps of a few seconds, checking after each,
	// so the checks fall between the allocations, load collections and
	// migration steps as well as on them.
	run := func(step string, d time.Duration) {
		t.Helper()
		for end := w.loop.Now() + d; w.loop.Now() < end; {
			w.loop.RunFor(7 * time.Second)
			check(step)
		}
	}
	check("before any server")
	run("initial placement", 2*time.Minute)
	assertConverged(t, w, 2)

	var r1, r2 []*serverState
	for _, st := range o.byID {
		if st.domains[topology.LevelRegion.String()] == "r1" {
			r1 = append(r1, st)
		} else {
			r2 = append(r2, st)
		}
	}
	mark := func(id shard.ID) { w.dir.Lookup(r1[0].id).LoadChanged(w.dir.ShardNum(id)) }

	// Six shards load three times as much; six more are reported again at
	// the value they had. The skew moves replicas.
	for i, id := range o.order[:12] {
		if i < 6 {
			cpu[id] = 3
		}
		mark(id)
	}
	run("load reports", 2*time.Minute)

	drained := r2[1] // not the last server: its buckets' successors renumber when it leaves
	o.Drain(drained.id, nil)
	check("drain")
	run("draining", time.Minute)
	o.CancelDrain(drained.id)
	check("drain cancelled")
	run("drain cancelled", 30*time.Second)
	if n := o.ShardsOnServer(drained.id); n != 0 {
		t.Fatalf("the drained server holds %d replicas", n)
	}

	// The drained server holds nothing, so its grace runs out with no
	// emergency allocation: only the clock takes it out of the problem.
	if !w.host.ExpireSession(drained.id, cfg.FailoverGrace+20*time.Second) {
		t.Fatal("ExpireSession found no session")
	}
	run("death inside the grace, then past it, then rejoin", cfg.FailoverGrace+35*time.Second)

	// A machine with replicas dies: its primaries fail over inside the grace,
	// its replicas are replaced past it, and it comes back.
	killed := w.machineOf(t, r1[1].id)
	w.managers["r1"].KillMachine(killed)
	run("machine death", cfg.FailoverGrace+20*time.Second)
	w.managers["r1"].RestoreMachine(killed)
	run("machine back", time.Minute)

	o.SetRegionPreference(o.order[3], "r2", 0)
	check("region preference")
	run("region preference", time.Minute)

	// The shards on one r1 server load ten times as much: the server is
	// outside the balance band from the load collection that reports it to
	// the allocation that moves replicas off, so a periodic run starts with
	// a balance violation and only its balance batch may act on it.
	for _, id := range o.order {
		for _, a := range o.shards[id].replicas {
			if a.Server == r1[2].id {
				cpu[id] = 10
				mark(id)
			}
		}
	}
	run("a server pushed past the balance band", time.Minute)
	t.Logf("%d checks", checks)
}
