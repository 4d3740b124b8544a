package experiments

import (
	"bytes"
	"fmt"
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/audit"
	"shardmanager/internal/faults"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// AuditArtifacts is the machine-readable audit payload an audit-enabled
// experiment carries in Report.Extra: the deterministic text report plus
// the structured form. Two runs of the same seed produce byte-identical
// Text — the determinism tests compare exactly this.
type AuditArtifacts struct {
	Text   string       `json:"text"`
	Report audit.Report `json:"report"`
}

// NewAuditArtifacts renders the auditor's current state into artifacts.
func NewAuditArtifacts(a *audit.Auditor) *AuditArtifacts {
	var buf bytes.Buffer
	a.WriteText(&buf)
	return &AuditArtifacts{Text: buf.String(), Report: a.Report()}
}

// Kernel-profiler labels for the torture drivers, so the sweep itself shows
// up attributed in simprof output instead of as unlabeled events.
var (
	lbTortureChurn = sim.LabelFor("torture", "churn")
	lbTortureDrain = sim.LabelFor("torture", "drain")
)

// TortureParams configure the randomized migration-torture sweep: many
// small seeded worlds, each running concurrent graceful migrations under a
// random fault timeline while the runtime auditor checks the §4.3
// invariants on every ownership event.
type TortureParams struct {
	// Seeds is how many seeds to sweep, starting at StartSeed.
	Seeds     int
	StartSeed uint64

	Shards           int
	Replicas         int
	ServersPerRegion int
	// RequestRate is requests/second of mixed read/write traffic.
	RequestRate int
	// Horizon is the per-seed run length after settling.
	Horizon time.Duration
	// Events is how many random fault events each seed's timeline gets.
	Events int
	// MaxBugNotes caps per-bug note lines in the rendered report.
	MaxBugNotes int
}

// DefaultTortureParams return the standard sweep sizing (the full sweep that
// `make audit-torture` runs; the quick scale sweeps seeds 1-40).
func DefaultTortureParams() TortureParams {
	return TortureParams{
		Seeds:            500,
		StartSeed:        1,
		Shards:           48,
		Replicas:         2,
		ServersPerRegion: 3,
		RequestRate:      20,
		Horizon:          3 * time.Minute,
		Events:           10,
		MaxBugNotes:      40,
	}
}

// InvPanic is the pseudo-invariant recorded when a torture world panics
// outright (for example when the orchestrator's own map sanity checks fire).
// The crash is itself a finding: the sweep survives it, pins the seed, and
// keeps whatever the auditor observed up to the crash.
const InvPanic = "panic"

// FoundBug is one torture finding: the first violation of an invariant on
// one seed. Re-running RunTortureSeed with the same params and Seed
// reproduces it exactly.
type FoundBug struct {
	Seed      uint64        `json:"seed"`
	Invariant string        `json:"invariant"`
	Shard     shard.ID      `json:"shard"`
	At        time.Duration `json:"at_ns"`
	Detail    string        `json:"detail"`
}

// TortureArtifacts is the sweep's machine-readable record (Report.Extra);
// smbench writes it to the found-bug log.
type TortureArtifacts struct {
	Seeds      int        `json:"seeds"`
	StartSeed  uint64     `json:"start_seed"`
	Checks     int64      `json:"checks"`
	Violations int64      `json:"violations"`
	SeedsHit   int        `json:"seeds_with_violations"`
	Panics     int        `json:"panics"`
	Bugs       []FoundBug `json:"bugs"`
}

// TortureRun is one completed torture seed, kept whole so callers (smctl
// audit) can print ownership timelines around any violation.
type TortureRun struct {
	Deployment *Deployment
	Auditor    *audit.Auditor
	Scenario   *faults.Scenario
	// Bugs holds the first violation per invariant on this seed.
	Bugs []FoundBug
	// Panic is the recovered panic message when the world crashed outright
	// (also recorded in Bugs under InvPanic); empty on a clean run.
	Panic string
}

// tortureRegions is the fixed region set of every torture world.
var tortureRegions = []topology.RegionID{"region-a", "region-b", "region-c"}

// tortureScenario composes a random fault timeline from its own RNG stream
// (derived from the seed, independent of the loop RNG): partitions, loss,
// latency inflation, gray failures, session expiry with reconnect (the
// false-dead primary generator), machine crashes with restore, and coord
// write stalls.
func tortureScenario(rng *sim.RNG, fleet *topology.Fleet, horizon time.Duration, events int) *faults.Scenario {
	sc := faults.NewScenario()
	pickRegion := func() topology.RegionID { return tortureRegions[rng.Intn(len(tortureRegions))] }
	pickPair := func() (topology.RegionID, topology.RegionID) {
		i := rng.Intn(len(tortureRegions))
		j := rng.Intn(len(tortureRegions) - 1)
		if j >= i {
			j++
		}
		return tortureRegions[i], tortureRegions[j]
	}
	window := horizon - 70*time.Second // leave a recovery tail
	if window <= 0 {
		window = horizon / 2
	}
	for i := 0; i < events; i++ {
		at := 10*time.Second + time.Duration(rng.Int63()%int64(window))
		dur := 10*time.Second + time.Duration(rng.Int63()%int64(30*time.Second))
		var act faults.Action
		switch rng.Intn(8) {
		case 0:
			a, b := pickPair()
			act = faults.Partition(a, b)
		case 1:
			a, b := pickPair()
			act = faults.PartitionOneWay(a, b)
		case 2:
			a, b := pickPair()
			act = faults.PacketLoss(a, b, 0.2+0.3*rng.Float64())
		case 3:
			a, b := pickPair()
			act = faults.LatencyScale(a, b, 3+5*rng.Float64())
		case 4:
			act = faults.Gray(pickRegion(), 1+rng.Intn(2),
				time.Duration(100+rng.Intn(300))*time.Millisecond)
		case 5:
			// False-dead: liveness vanishes while the process keeps
			// serving, then the session reconnects mid-failover.
			reconnect := 5*time.Second + time.Duration(rng.Int63()%int64(15*time.Second))
			act = faults.ExpireSessions(pickRegion(), 1+rng.Intn(2), reconnect)
			dur = 0 // heals via the reconnect itself
		case 6:
			ms := fleet.MachinesInRegion(pickRegion())
			act = faults.CrashMachine(ms[rng.Intn(len(ms))].ID)
			dur = 20*time.Second + time.Duration(rng.Int63()%int64(40*time.Second))
		case 7:
			act = faults.CoordStall()
			dur = 10*time.Second + time.Duration(rng.Int63()%int64(10*time.Second))
		}
		sc.Add(at, dur, act)
	}
	return sc
}

// RunTortureSeed runs one torture world to completion and returns it with
// the auditor still attached. Deterministic: same params + seed, same
// violations, same timelines.
func RunTortureSeed(c RunConfig, p TortureParams, seed uint64) *TortureRun {
	pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
	pol.SpreadWeight = 100
	cfg := orchestrator.Config{
		App:      "torture",
		Strategy: shard.PrimarySecondary,
		Shards: UniformShardConfigs(p.Shards, p.Replicas, topology.Capacity{
			topology.ResourceCPU:        0.5,
			topology.ResourceShardCount: 1,
		}),
		Policy: pol,
		ServerCapacity: topology.Capacity{
			topology.ResourceCPU:        100,
			topology.ResourceShardCount: float64(p.Shards),
		},
		HomeRegion:              "region-c",
		GracefulMigration:       true,
		FailoverGrace:           10 * time.Second,
		AllocInterval:           15 * time.Second,
		MaxConcurrentMigrations: 50,
	}
	backing := apps.NewKVBacking()
	d := c.build(DeploymentSpec{
		Regions:          tortureRegions,
		ServersPerRegion: p.ServersPerRegion,
		Orch:             cfg,
		AppFactory: func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, backing)
		},
		Audit: &audit.Options{},
		Seed:  seed,
	})
	run := &TortureRun{Deployment: d, Auditor: d.Auditor}
	// The whole scripted run executes under a recover so a world that
	// crashes outright (an orchestrator sanity panic, say) becomes a pinned
	// finding instead of killing the sweep. The sim is single-threaded, so
	// the crash point — and everything the auditor saw before it — is as
	// deterministic as a violation.
	func() {
		defer func() {
			if r := recover(); r != nil {
				run.Panic = fmt.Sprintf("%v", r)
			}
		}()
		if err := d.Settle(10 * time.Minute); err != nil {
			panic(err)
		}
		ks := KeyspaceFor(p.Shards)
		client := d.NewClient("region-a", ks, routing.DefaultOptions())
		d.Loop.RunFor(3 * time.Second) // let the client fetch its first map
		t0 := d.Loop.Now()

		// Mixed read/write traffic; writes are what the write-owner invariant
		// bites on.
		d.Drive(client, time.Second/time.Duration(p.RequestRate), p.Shards, nil,
			func(rng *sim.RNG, i int) (bool, string, any) {
				if rng.Float64() < 0.5 {
					return true, apps.KVOpPut, apps.KVPut{Value: fmt.Sprintf("v%d", i)}
				}
				return false, apps.KVOpGet, nil
			}, nil)

		// Migration churn concurrent with the faults: region-preference flips
		// force graceful primary migrations, and periodic drains force bulk
		// moves off one server at a time.
		churnRNG := d.Loop.RNG().Fork()
		d.Loop.EveryL(20*time.Second, lbTortureChurn, func() {
			s := shard.ID(fmt.Sprintf("s%05d", churnRNG.Intn(p.Shards)))
			d.Orch.SetRegionPreference(s, tortureRegions[churnRNG.Intn(len(tortureRegions))], 50)
		})
		d.Loop.EveryL(45*time.Second, lbTortureDrain, func() {
			m := d.Orch.AssignmentSnapshot()
			servers := m.Servers()
			if len(servers) == 0 {
				return
			}
			id := servers[churnRNG.Intn(len(servers))]
			d.Orch.Drain(id, nil)
			d.Loop.AfterL(25*time.Second, lbTortureDrain, func() { d.Orch.CancelDrain(id) })
		})

		// Random fault timeline from a stream derived only from the seed.
		scRNG := sim.NewRNG(seed ^ 0x7067656e6f747274) // "trtonegp", torture-gen tag
		run.Scenario = tortureScenario(scRNG, d.Fleet, p.Horizon, p.Events)
		shifted := faults.NewScenario()
		for _, ev := range run.Scenario.Events {
			shifted.Add(t0+ev.At, ev.For, ev.Action)
		}
		faults.NewInjector(d.FaultEnv()).Schedule(shifted)
		d.Loop.RunFor(p.Horizon)
	}()

	seen := make(map[string]bool)
	for _, v := range d.Auditor.Violations() {
		if seen[v.Invariant] {
			continue
		}
		seen[v.Invariant] = true
		run.Bugs = append(run.Bugs, FoundBug{
			Seed:      seed,
			Invariant: v.Invariant,
			Shard:     v.Shard,
			At:        v.At,
			Detail:    v.Detail,
		})
	}
	if run.Panic != "" {
		run.Bugs = append(run.Bugs, FoundBug{
			Seed:      seed,
			Invariant: InvPanic,
			At:        d.Loop.Now(),
			Detail:    run.Panic,
		})
	}
	return run
}

// Torture sweeps Seeds seeds and reports every invariant violation found,
// each pinned to the seed that reproduces it.
func Torture(c RunConfig, p TortureParams) *Report {
	if p.Seeds <= 0 {
		p.Seeds = 1
	}
	if p.MaxBugNotes <= 0 {
		p.MaxBugNotes = 40
	}
	r := &Report{
		ID:    "torture",
		Title: "migration torture: randomized fault timelines under audit, violations pinned by seed",
		Params: map[string]string{
			"seeds":      fmt.Sprint(p.Seeds),
			"start_seed": fmt.Sprint(p.StartSeed),
			"shards":     fmt.Sprint(p.Shards),
			"replicas":   fmt.Sprint(p.Replicas),
			"servers":    fmt.Sprintf("%dx%d", p.ServersPerRegion, len(tortureRegions)),
			"horizon":    p.Horizon.String(),
			"events":     fmt.Sprint(p.Events),
		},
	}
	art := &TortureArtifacts{Seeds: p.Seeds, StartSeed: p.StartSeed}
	for i := 0; i < p.Seeds; i++ {
		seed := p.StartSeed + uint64(i)
		run := RunTortureSeed(c, p, seed)
		for _, n := range run.Auditor.Checks() {
			art.Checks += n
		}
		art.Violations += run.Auditor.ViolationCount()
		if run.Panic != "" {
			art.Panics++
		}
		if len(run.Bugs) > 0 {
			art.SeedsHit++
			art.Bugs = append(art.Bugs, run.Bugs...)
		}
	}
	r.Extra = art
	r.AddValue("seeds", float64(p.Seeds))
	r.AddValue("audit_checks", float64(art.Checks))
	r.AddValue("audit_violations", float64(art.Violations))
	r.AddValue("seeds_with_violations", float64(art.SeedsHit))
	r.AddValue("seeds_panicked", float64(art.Panics))
	r.AddValue("bugs_found", float64(len(art.Bugs)))
	r.AddNote("swept %d seeds (%d..%d): %d invariant checks, %d violations on %d seeds",
		p.Seeds, p.StartSeed, p.StartSeed+uint64(p.Seeds)-1, art.Checks, art.Violations, art.SeedsHit)
	for i, b := range art.Bugs {
		if i >= p.MaxBugNotes {
			r.AddNote("... %d more findings in the found-bug log", len(art.Bugs)-i)
			break
		}
		r.AddNote("seed %d: %s shard=%s at=%s — %s", b.Seed, b.Invariant, b.Shard, b.At, b.Detail)
	}
	if len(art.Bugs) == 0 {
		r.AddNote("no invariant violations found; the found-bug log is empty")
	}
	return r
}
