package controlplane

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"shardmanager/internal/discovery"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// --- chunk / router boundary behavior ---

// TestChunkPartitionsExactly pins chunk's off-by-one behavior: the parts sum
// to the total, differ by at most one, and the larger parts come first —
// exactly the remainder spread split() and ShardRouter assume.
func TestChunkPartitionsExactly(t *testing.T) {
	cases := []struct{ total, n int }{
		{10, 3}, {9, 3}, {1, 1}, {0, 4}, {3, 4}, {7, 7}, {100, 1},
		{500000, 7}, {10_000_000, 200},
	}
	for _, c := range cases {
		sum, prev := 0, -1
		for i := 0; i < c.n; i++ {
			got := chunk(c.total, c.n, i)
			sum += got
			base := c.total / c.n
			if got != base && got != base+1 {
				t.Fatalf("chunk(%d,%d,%d) = %d, not base or base+1", c.total, c.n, i, got)
			}
			if prev >= 0 && got > prev {
				t.Fatalf("chunk(%d,%d,%d) = %d grew after %d: larger parts must come first",
					c.total, c.n, i, got, prev)
			}
			prev = got
		}
		if sum != c.total {
			t.Fatalf("chunk(%d,%d,·) sums to %d", c.total, c.n, sum)
		}
	}
}

func TestShardRouterMatchesChunk(t *testing.T) {
	for _, c := range []struct{ total, parts int }{
		{10, 3}, {9, 3}, {1, 1}, {3, 4}, {1000, 7}, {120000, 13},
	} {
		r := NewShardRouter("app", c.total, c.parts)
		// Every partition's range has exactly chunk() shards and the ranges
		// tile [0, total).
		next := 0
		for p := 0; p < c.parts; p++ {
			lo, hi := r.Range(p)
			if lo != next {
				t.Fatalf("%+v: partition %d starts at %d, want %d", c, p, lo, next)
			}
			if hi-lo != chunk(c.total, c.parts, p) {
				t.Fatalf("%+v: partition %d size %d != chunk %d", c, p, hi-lo, chunk(c.total, c.parts, p))
			}
			next = hi
		}
		if next != c.total {
			t.Fatalf("%+v: ranges tile to %d", c, next)
		}
		// PartitionOf agrees with the ranges at every index (O(1) formula vs
		// the table).
		for idx := 0; idx < c.total; idx++ {
			p := r.PartitionOf(idx)
			if lo, hi := r.Range(p); idx < lo || idx >= hi {
				t.Fatalf("%+v: PartitionOf(%d) = %d whose range is [%d,%d)", c, idx, p, lo, hi)
			}
		}
	}
}

func TestShardRouterPanicsOutOfRange(t *testing.T) {
	r := NewShardRouter("app", 10, 3)
	for _, fn := range []func(){
		func() { r.PartitionOf(-1) },
		func() { r.PartitionOf(10) },
		func() { r.Range(3) },
		func() { r.PartitionApp(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// --- Frontend.Route partition boundaries ---

func TestFrontendRoutePartitionBoundaries(t *testing.T) {
	cp := New(Limits{
		PartitionMaxServers: 100, PartitionMaxShards: 1000,
		MiniSMMaxServers: 100, MiniSMMaxShards: 1000,
	})
	// 250 servers -> 3 partitions, each on its own mini-SM (limits allow one
	// partition per mini-SM).
	parts, err := cp.RegisterApp(AppSpec{App: "a", Servers: 250, Shards: 300,
		Regions: []topology.RegionID{"r1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("partitions = %d, want 3", len(parts))
	}
	f := NewFrontend(cp)
	if _, err := f.Route("a", -1); err == nil {
		t.Fatal("negative partition accepted")
	}
	seen := map[MiniSMID]bool{}
	for p := 0; p < 3; p++ {
		id, err := f.Route("a", p)
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		seen[id] = true
	}
	if len(seen) != 3 {
		t.Fatalf("3 partitions landed on %d mini-SMs, want 3 (limits force 1:1)", len(seen))
	}
	if _, err := f.Route("a", 3); err == nil {
		t.Fatal("one-past-the-end partition accepted")
	}
}

// --- Scaler.Tick edge cases ---

// boundaryTarget reports loads exactly at the thresholds.
type boundaryTarget struct {
	ids      []shard.ID
	loads    map[shard.ID]float64
	replicas map[shard.ID]int
	sets     int
}

func (f *boundaryTarget) ShardIDs() []shard.ID                                   { return f.ids }
func (f *boundaryTarget) ShardLoadValue(s shard.ID, _ topology.Resource) float64 { return f.loads[s] }
func (f *boundaryTarget) TotalReplicas(s shard.ID) int                           { return f.replicas[s] }
func (f *boundaryTarget) SetReplicas(s shard.ID, n int) {
	f.replicas[s] = n
	f.sets++
}

func TestScalerTickThresholdBoundaries(t *testing.T) {
	target := &boundaryTarget{
		ids: []shard.ID{"at-up", "at-down", "zero-replicas"},
		loads: map[shard.ID]float64{
			"at-up":   80, // exactly ScaleUpAt: strict >, no action
			"at-down": 10, // exactly ScaleDownAt: strict <, no action
		},
		replicas: map[shard.ID]int{"at-up": 2, "at-down": 2, "zero-replicas": 0},
	}
	s, err := NewScaler(target, ScalerPolicy{
		Metric: topology.ResourceCPU, ScaleUpAt: 80, ScaleDownAt: 10,
		MinReplicas: 1, MaxReplicas: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Tick()
	if target.sets != 0 {
		t.Fatalf("threshold-boundary loads triggered %d adjustments, want 0", target.sets)
	}
	if s.ScaleUps != 0 || s.ScaleDowns != 0 {
		t.Fatalf("counters = %d/%d, want 0/0", s.ScaleUps, s.ScaleDowns)
	}
	// Repeated ticks on a shard pinned at a bound never oscillate.
	target.loads["at-up"] = 100
	target.replicas["at-up"] = 5 // already at MaxReplicas
	for i := 0; i < 3; i++ {
		s.Tick()
	}
	if target.replicas["at-up"] != 5 || s.ScaleUps != 0 {
		t.Fatalf("MaxReplicas not respected across ticks: %d replicas, %d ups",
			target.replicas["at-up"], s.ScaleUps)
	}
}

// --- PartitionPublisher ---

func buildPartitionMap(app shard.AppID, shards int) *shard.Map {
	m := shard.NewMap(app)
	for i := 0; i < shards; i++ {
		m.Entries[shard.ID(fmt.Sprintf("s%05d", i))] = []shard.Assignment{
			{Server: shard.ServerID(fmt.Sprintf("srv%03d", i%7)), Role: shard.RolePrimary},
		}
	}
	return m
}

// TestPartitionPublisherDeltaMatchesFull drives churn through a publisher and
// checks that what a subscriber reads — fed by deltas only, after the first
// snapshot — is at every version the full map an independent mirror of the
// same edits holds, while a delta moves far fewer bytes than that map.
func TestPartitionPublisherDeltaMatchesFull(t *testing.T) {
	const shards = 500
	loop := sim.NewLoop(3)
	disc := discovery.NewService(loop, discovery.FixedDelay(time.Millisecond))
	full := buildPartitionMap("app/p000", shards) // the mirror
	pub := NewPartitionPublisher(disc, "app/p000", full.Clone())
	var got discovery.View
	disc.Subscribe("app/p000", func(v discovery.View) { got = v })
	var firstBytes int64
	for round := 0; round < 12; round++ {
		for k := 0; k < 20; k++ {
			id := shard.ID(fmt.Sprintf("s%05d", (round*37+k*13)%shards))
			server := shard.ServerID(fmt.Sprintf("srv%03d", (round+k)%11))
			pub.SetOne(id, server, shard.RolePrimary)
			full.Entries[id] = []shard.Assignment{{Server: server, Role: shard.RolePrimary}}
		}
		if round%5 == 4 {
			id := shard.ID(fmt.Sprintf("s%05d", round%shards))
			pub.Remove(id)
			delete(full.Entries, id)
		}
		pub.Flush()
		loop.RunFor(10 * time.Millisecond)
		full.Version++
		if round == 0 {
			firstBytes = pub.Stats.Bytes
		}
		if got.Version != full.Version || pub.Version() != full.Version {
			t.Fatalf("round %d: subscriber at v%d, publisher at v%d, want v%d", round, got.Version, pub.Version(), full.Version)
		}
		if m := got.Map(); !reflect.DeepEqual(m.Entries, full.Entries) {
			t.Fatalf("round %d: subscriber's map differs from the mirror", round)
		}
	}
	// The first flush carried the whole partition under its 20 edits, the
	// other 11 only their churn — 20 edits, twice 21 — which must be at least
	// 10x smaller than the map.
	if pub.Stats.Publishes != 12 || pub.Stats.ChangedEntries != shards+12*20+2 {
		t.Fatalf("publisher stats: %+v", pub.Stats)
	}
	if firstBytes < full.ApproxBytes() {
		t.Fatalf("first flush moved %d bytes, less than the %d-byte map", firstBytes, full.ApproxBytes())
	}
	perDelta := (pub.Stats.Bytes - firstBytes) / (pub.Stats.Publishes - 1)
	if perDelta*10 >= full.ApproxBytes() {
		t.Fatalf("delta bytes/publish %d not <10%% of the map's %d", perDelta, full.ApproxBytes())
	}
}

// TestPartitionPublisherSteadyStateAllocs pins the warm-path contract: a
// stage+flush+deliver cycle allocates what discovery stores for the one
// changed entry, and nothing that grows with the partition.
func TestPartitionPublisherSteadyStateAllocs(t *testing.T) {
	loop := sim.NewLoop(1)
	disc := discovery.NewService(loop, discovery.FixedDelay(time.Millisecond))
	pub := NewPartitionPublisher(disc, "app/p000", buildPartitionMap("app/p000", 200))
	var got discovery.View
	disc.Subscribe("app/p000", func(v discovery.View) { got = v })
	servers := make([]shard.ServerID, 7)
	for i := range servers {
		servers[i] = shard.ServerID(fmt.Sprintf("srv%03d", i))
	}
	for i := 0; i < 4; i++ { // warm the staging buffer and delivery freelist
		pub.SetOne("s00005", servers[i], shard.RolePrimary)
		pub.Flush()
		loop.RunFor(10 * time.Millisecond)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		pub.SetOne("s00005", servers[i%len(servers)], shard.RolePrimary)
		pub.Flush()
		loop.RunFor(10 * time.Millisecond)
		i++
	})
	if allocs > 2 {
		t.Fatalf("steady-state stage+flush allocates %.1f/run, want at most 2", allocs)
	}
	if got.Version != pub.Version() || got.Replicas("s00005")[0].Server != servers[(i-1)%len(servers)] {
		t.Fatalf("subscriber at v%d, publisher at v%d", got.Version, pub.Version())
	}
}

func TestFlushWaveBatchesAndCompletes(t *testing.T) {
	loop := sim.NewLoop(1)
	disc := discovery.NewService(loop, discovery.FixedDelay(time.Millisecond))
	const parts = 10
	pubs := make([]*PartitionPublisher, parts)
	for i := range pubs {
		app := shard.AppID(fmt.Sprintf("app/p%03d", i))
		pubs[i] = NewPartitionPublisher(disc, app, buildPartitionMap(app, 10))
	}
	var doneAt time.Duration
	FlushWave(loop, pubs, 4, 10*time.Millisecond, func() { doneAt = loop.Now() })
	loop.RunFor(time.Second)
	// 10 publishers in batches of 4 -> 3 groups at 0/10/20ms.
	if doneAt != 20*time.Millisecond {
		t.Fatalf("wave completed at %v, want 20ms", doneAt)
	}
	for i, p := range pubs {
		if p.Version() != 1 {
			t.Fatalf("publisher %d not flushed (v%d)", i, p.Version())
		}
	}
}
