package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	rtm "runtime/metrics"
	"strconv"
	"strings"
	"time"

	"shardmanager/internal/apps"
	"shardmanager/internal/audit"
	"shardmanager/internal/experiments"
	"shardmanager/internal/metrics"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// client is one independent user: an open-loop ticker in one region.
type client struct {
	r      *run
	rc     *routing.Client
	region topology.RegionID
	rng    *sim.RNG
	done   func(routing.Result) // built once, so a request allocates nothing here
	ticker *sim.Ticker
}

// pass says what rides along with a window besides the harness itself.
type pass int

const (
	plain   pass = iota // nothing: the numbers users see
	traced              // the span recorder and the hook counters
	audited             // the runtime migration auditor
)

// run is one workload on one freshly built deployment: set-up, then one
// measured window.
type run struct {
	w       workload
	seed    uint64
	horizon time.Duration
	pass    pass
	tr      *tracer    // traced pass only
	obs     *observers // traced pass only

	in      *sim.RNG // the harness's own stream: inputs only, never the loop's
	ks      *shard.Keyspace
	ids     []shard.ID // ks.Shards(): index i is the shard of keys[i]
	keys    []string   // one key per shard
	cpu     []float64  // per-shard CPU load the harness configured or last injected
	base    []float64  // lb_churn: per-shard base load
	kv      map[shard.ServerID]*apps.KVStore
	backing *apps.KVBacking

	orch    orchestrator.Config // as handed to Build
	d       *experiments.Deployment
	clients []*client

	t0        time.Duration // simulated start of the measured window
	measuring bool
	disturbed time.Duration // simulated time the disturbance hit (0 = not yet, or none)
	recovered time.Duration // simulated time placement was whole again

	attempted, ok, failed, sloOK int64
	attempts, hops               int64
	latMS                        []float64 // successful requests
	failReasons                  map[string]int64
	utils                        []float64 // (server, sample) CPU utilisation
}

// counters are the cumulative public counters of the layers; a window
// reports the difference between its end and its start.
type counters struct {
	periodic, emergency, moves, failedRPCs int64
	discPublishes, mapUpdates, epochs      int64
	approved, delayed, drains              int64
}

func (r *run) counters() counters {
	o := r.d.Orch
	c := counters{
		periodic:      o.PeriodicRuns.Value(),
		emergency:     o.EmergencyRuns.Value(),
		moves:         o.ShardMoves.Value(),
		failedRPCs:    o.FailedRPCs.Value(),
		discPublishes: r.d.Disc.Publications,
		epochs:        r.d.Store.Epoch(),
	}
	for _, cl := range r.clients {
		c.mapUpdates += cl.rc.MapUpdates
	}
	if tc := r.d.Ctrl; tc != nil {
		c.approved, c.delayed, c.drains = tc.Approved.Value(), tc.Delayed.Value(), tc.Drains.Value()
	}
	return c
}

func (c counters) minus(b counters) counters {
	return counters{
		c.periodic - b.periodic, c.emergency - b.emergency, c.moves - b.moves, c.failedRPCs - b.failedRPCs,
		c.discPublishes - b.discPublishes, c.mapUpdates - b.mapUpdates, c.epochs - b.epochs,
		c.approved - b.approved, c.delayed - b.delayed, c.drains - b.drains,
	}
}

// result is what one measured window produced.
type result struct {
	r        *run
	wallS    float64   // host seconds the loop took to run the horizon
	sliceS   []float64 // the same, per slice of simulated time
	events   uint64
	mem      memDelta
	delta    counters
	digest   string
	problems []string
}

// memDelta is what the Go runtime did during the window.
type memDelta struct {
	allocMB  float64
	mallocs  uint64
	gcCPUS   float64
	gcCycles uint32
}

func newRun(w workload, seed uint64, horizon time.Duration, p pass) *run {
	r := &run{
		w: w, seed: seed, horizon: horizon, pass: p,
		in:          sim.NewRNG(seed*0x9e3779b97f4a7c15 + 0xbe7c4),
		ks:          experiments.KeyspaceFor(w.shards),
		keys:        make([]string, w.shards),
		cpu:         make([]float64, w.shards),
		kv:          make(map[shard.ServerID]*apps.KVStore),
		failReasons: make(map[string]int64),
		t0:          math.MaxInt64, // no window yet: every result is warm-up
	}
	r.ids = r.ks.Shards()
	for i := range r.keys {
		r.keys[i] = experiments.KeyForShard(i)
	}
	if p == traced {
		r.tr = newTracer()
	}
	return r
}

func (r *run) at(share float64) time.Duration { return time.Duration(share * float64(r.horizon)) }

// ecShards is how many shards (the first ones) prefer region frc.
func (r *run) ecShards() int { return r.w.shards * 2 / 5 }

// replicaCPU is the CPU load of one replica: what apps.KVStore reports for a
// shard nobody set a load for, so that the configured default and the first
// collected load agree and the settled placement stays settled.
const replicaCPU = 1.0

// serverCapacity sizes a server's CPU so that mean utilisation is 50%.
func (r *run) serverCapacity() topology.Capacity {
	perServer := float64(r.w.shards*r.w.replicas) / float64(r.w.servers*len(r.w.regions))
	return topology.Capacity{
		topology.ResourceCPU:        2 * replicaCPU * perServer,
		topology.ResourceShardCount: float64(r.w.shards),
	}
}

// shardConfigs declares the workload's shards with a uniform CPU load.
// lb_util_p99 is computed from these loads unless the workload injects its
// own.
func (r *run) shardConfigs() []orchestrator.ShardConfig {
	out := experiments.UniformShardConfigs(r.w.shards, r.w.replicas, nil)
	for i := range out {
		r.cpu[i] = replicaCPU
		out[i].DefaultLoad = topology.Capacity{topology.ResourceCPU: replicaCPU, topology.ResourceShardCount: 1}
	}
	return out
}

// setup generates the inputs, builds and settles the deployment and runs the
// warm-up traffic. Everything it does is a function of (workload, seed).
func (r *run) setup() error {
	spec := r.w.spec(r)
	spec.Seed = r.seed
	switch r.pass {
	case traced:
		spec.Profiler = r.tr
	case audited:
		spec.Audit = &audit.Options{}
	}
	r.orch = spec.Orch
	r.d = experiments.Build(spec)
	if r.pass == traced {
		r.obs = attachObservers(r)
	}
	if err := r.d.Settle(15 * time.Minute); err != nil {
		return err
	}
	if r.w.prepare != nil {
		r.w.prepare(r)
	}
	interval := time.Second / time.Duration(r.w.rate)
	for i := 0; i < r.w.clients; i++ {
		region := r.w.regions[i%len(r.w.regions)]
		c := &client{
			r:      r,
			rc:     r.d.NewClient(region, r.ks, clientOptions()),
			region: region,
			rng:    r.in.Fork(),
		}
		c.done = c.onResult
		r.clients = append(r.clients, c)
		// Independent users do not tick in lockstep: stagger the phases.
		r.d.Loop.AfterL(interval*time.Duration(i)/time.Duration(r.w.clients), lbAdmin, func() {
			c.ticker = r.d.Loop.EveryL(interval, lbClient, c.tick)
		})
	}
	r.d.Loop.RunFor(warmup)
	return nil
}

// tick issues the client's next request; the request is timed from here.
func (c *client) tick() {
	r := c.r
	idx, write := r.w.request(r, c)
	op, payload := r.w.readOp, any(nil)
	if write {
		op, payload = r.w.writeOp, r.w.payload
	}
	if r.measuring {
		r.attempted++
	}
	if r.tr != nil {
		r.tr.enter(lbDo)
		defer r.tr.leave()
	}
	c.rc.Do(r.keys[idx], write, op, payload, c.done)
}

func (c *client) onResult(res routing.Result) {
	r := c.r
	if r.tr != nil {
		r.tr.enter(lbResult)
		defer r.tr.leave()
	}
	// A request issued during warm-up is not part of the window; RunFor
	// dispatches the tick at exactly t0 before the window opens.
	if r.d.Loop.Now()-res.Latency <= r.t0 {
		return
	}
	r.attempts += int64(res.Attempts)
	r.hops += int64(res.Hops)
	if !res.OK {
		r.failed++
		r.failReasons[res.Err]++
		return
	}
	r.ok++
	if res.Latency <= sloLimit {
		r.sloOK++
	}
	r.latMS = append(r.latMS, float64(res.Latency)/float64(time.Millisecond))
}

// placementWhole is Deployment.converged() from outside: every shard at its
// full replica count, active, on live servers.
func (r *run) placementWhole() bool {
	m := r.d.Orch.AssignmentSnapshot()
	for _, id := range r.ids {
		as := m.Replicas(id)
		if len(as) != r.d.Orch.TotalReplicas(id) {
			return false
		}
		for _, a := range as {
			srv := r.d.Dir.Lookup(a.Server)
			if srv == nil || !srv.HoldsActive(id) {
				return false
			}
		}
	}
	return true
}

// sampleUtil appends one CPU utilisation per live server, from the loads the
// harness configured or injected and the authoritative assignment.
func (r *run) sampleUtil(perServer map[shard.ServerID]float64) {
	clear(perServer)
	m := r.d.Orch.AssignmentSnapshot()
	for i, id := range r.ids {
		for _, a := range m.Replicas(id) {
			perServer[a.Server] += r.cpu[i]
		}
	}
	for _, region := range r.w.regions {
		for _, id := range r.d.Hosts[region].ServerIDs() {
			r.utils = append(r.utils, perServer[id]/r.orch.ServerCapacity[topology.ResourceCPU])
		}
	}
}

// slices is how many equal pieces of simulated time a window is timed in.
// Windows of one seed do identical work in each slice, so that a slice a noisy
// host disturbed in one window can be told from the same slice in another.
const slices = 100

// measure runs the window. Only the loop is timed; the drain that follows
// lets in-flight requests finish and is not part of sim_speed. Every buffer
// the harness appends to inside the window is sized here.
func (r *run) measure() result {
	loop := r.d.Loop
	r.t0 = loop.Now()
	nServers := r.w.servers * len(r.w.regions)
	expect := int(float64(r.w.clients*r.w.rate) * r.horizon.Seconds())
	r.latMS = make([]float64, 0, expect+1024)
	r.utils = make([]float64, 0, nServers*(int(r.horizon/time.Minute)+2))
	perServer := make(map[shard.ServerID]float64, nServers)
	loop.EveryL(time.Minute, lbSample, func() { r.sampleUtil(perServer) })
	// Once the disturbance has hit, poll once per simulated second until
	// placement is whole again.
	var poll *sim.Ticker
	poll = loop.EveryL(time.Second, lbSample, func() {
		if r.disturbed != 0 && r.placementWhole() {
			r.recovered = loop.Now()
			poll.Stop()
		}
	})
	if r.w.arm != nil {
		r.w.arm(r)
	}

	runtime.GC()
	before, c0, ev0 := readMem(), r.counters(), loop.Dispatched()
	if r.tr != nil {
		r.tr.start(r.t0, r.t0+r.at(r.w.disturbAt))
	}
	r.measuring = true
	sliceS := make([]float64, slices)
	start := time.Now()
	for i := range sliceS {
		sliceStart := time.Now()
		loop.RunUntil(r.t0 + r.horizon*time.Duration(i+1)/slices)
		sliceS[i] = time.Since(sliceStart).Seconds()
		if r.tr != nil {
			r.tr.mark()
		}
	}
	wall := time.Since(start)
	r.measuring = false
	if r.tr != nil {
		r.tr.stop()
	}
	after := readMem()

	res := result{
		r:      r,
		wallS:  wall.Seconds(),
		sliceS: sliceS,
		events: loop.Dispatched() - ev0,
		mem:    after.since(before),
		delta:  r.counters().minus(c0),
	}
	for _, c := range r.clients {
		c.ticker.Stop()
	}
	poll.Stop()
	loop.RunFor(drain)
	r.sampleUtil(perServer)
	res.problems = r.check()
	res.digest = r.digest(res.events)
	return res
}

// memSample is a reading of the runtime's cumulative allocation and GC
// counters.
type memSample struct {
	stats runtime.MemStats
	gcCPU float64
}

func readMem() memSample {
	var s memSample
	runtime.ReadMemStats(&s.stats)
	sample := []rtm.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtm.Read(sample)
	if sample[0].Value.Kind() == rtm.KindFloat64 {
		s.gcCPU = sample[0].Value.Float64()
	}
	return s
}

func (a memSample) since(b memSample) memDelta {
	return memDelta{
		allocMB:  float64(a.stats.TotalAlloc-b.stats.TotalAlloc) / (1 << 20),
		mallocs:  a.stats.Mallocs - b.stats.Mallocs,
		gcCPUS:   a.gcCPU - b.gcCPU,
		gcCycles: a.stats.NumGC - b.stats.NumGC,
	}
}

// latency returns quantiles of the successful requests' latency, in ms.
func (r *run) latency() (p50, p99, p999 float64) {
	q := metrics.Quantiles(r.latMS, 0.5, 0.99, 0.999)
	return q[0], q[1], q[2]
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

func (r *run) describe() string {
	return fmt.Sprintf("%s seed=%d shards=%dx%d servers=%dx%d clients=%dx%d/s horizon=%v",
		r.w.name, r.seed, r.w.shards, r.w.replicas, len(r.w.regions), r.w.servers,
		r.w.clients, r.w.rate, r.horizon)
}
