package controlplane

import (
	"fmt"
	"testing"

	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

func TestSmallAppSinglePartition(t *testing.T) {
	cp := New(DefaultLimits())
	parts, err := cp.RegisterApp(AppSpec{
		App: "small", Servers: 100, Shards: 5000,
		Regions: []topology.RegionID{"r1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("partitions = %d, want 1", len(parts))
	}
	if parts[0].Servers != 100 || parts[0].Shards != 5000 {
		t.Fatalf("partition = %+v", parts[0])
	}
}

func TestLargeAppSplitsIntoPartitions(t *testing.T) {
	cp := New(DefaultLimits())
	// 19K servers / 2.6M shards (Fig 15's largest deployment): shards
	// dominate: ceil(2.6M / 500K) = 6 partitions.
	parts, err := cp.RegisterApp(AppSpec{
		App: "huge", Servers: 19000, Shards: 2600000,
		Regions: []topology.RegionID{"r1", "r2", "r3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 6 {
		t.Fatalf("partitions = %d, want 6", len(parts))
	}
	totalServers, totalShards := 0, 0
	for _, p := range parts {
		totalServers += p.Servers
		totalShards += p.Shards
		if p.Servers > DefaultLimits().PartitionMaxServers ||
			p.Shards > DefaultLimits().PartitionMaxShards {
			t.Fatalf("partition over limit: %+v", p)
		}
	}
	if totalServers != 19000 || totalShards != 2600000 {
		t.Fatalf("totals = %d/%d", totalServers, totalShards)
	}
}

func TestKindSeparation(t *testing.T) {
	cp := New(DefaultLimits())
	cp.RegisterApp(AppSpec{App: "reg", Servers: 100, Shards: 100, Regions: []topology.RegionID{"r1"}})
	cp.RegisterApp(AppSpec{App: "geo", Servers: 100, Shards: 100, Regions: []topology.RegionID{"r1", "r2"}})
	regional, geo := 0, 0
	for _, m := range cp.MiniSMs() {
		switch m.Kind {
		case Regional:
			regional++
		case Geo:
			geo++
		}
		for _, p := range m.Partitions {
			want := Regional
			if len(p.Regions) > 1 {
				want = Geo
			}
			if m.Kind != want {
				t.Fatalf("partition %s on wrong mini-SM kind", p.ID)
			}
		}
	}
	if regional != 1 || geo != 1 {
		t.Fatalf("mini-SMs = %d regional, %d geo", regional, geo)
	}
}

func TestMiniSMPoolGrowsUnderLoad(t *testing.T) {
	limits := Limits{
		PartitionMaxServers: 1000,
		PartitionMaxShards:  100000,
		MiniSMMaxServers:    2000,
		MiniSMMaxShards:     200000,
	}
	cp := New(limits)
	for i := 0; i < 10; i++ {
		_, err := cp.RegisterApp(AppSpec{
			App: shard.AppID(fmt.Sprintf("app%d", i)), Servers: 1000, Shards: 1000,
			Regions: []topology.RegionID{"r1"},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// 10 x 1000 servers with 2000/miniSM => 5 mini-SMs.
	if got := len(cp.MiniSMs()); got != 5 {
		t.Fatalf("mini-SMs = %d, want 5", got)
	}
	for _, m := range cp.MiniSMs() {
		if m.Servers() > limits.MiniSMMaxServers {
			t.Fatalf("mini-SM %s over capacity: %d", m.ID, m.Servers())
		}
	}
}

func TestRegisterAppErrors(t *testing.T) {
	cp := New(DefaultLimits())
	if _, err := cp.RegisterApp(AppSpec{App: "x"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	cp.RegisterApp(AppSpec{App: "a", Servers: 1, Shards: 1, Regions: []topology.RegionID{"r"}})
	if _, err := cp.RegisterApp(AppSpec{App: "a", Servers: 1, Shards: 1, Regions: []topology.RegionID{"r"}}); err == nil {
		t.Fatal("duplicate app accepted")
	}
}

func TestFrontendRouting(t *testing.T) {
	cp := New(DefaultLimits())
	cp.RegisterApp(AppSpec{App: "a", Servers: 12000, Shards: 100, Regions: []topology.RegionID{"r1"}})
	f := NewFrontend(cp)
	id0, err := f.Route("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if id0 == "" {
		t.Fatal("empty mini-SM id")
	}
	if _, err := f.Route("a", 99); err == nil {
		t.Fatal("bad partition index accepted")
	}
	if _, err := f.Route("ghost", 0); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestReadServiceStats(t *testing.T) {
	cp := New(DefaultLimits())
	cp.RegisterApp(AppSpec{App: "a", Servers: 3000, Shards: 30000, Regions: []topology.RegionID{"r1"}})
	cp.RegisterApp(AppSpec{App: "b", Servers: 1000, Shards: 5000, Regions: []topology.RegionID{"r1", "r2"}})
	rs := NewReadService(cp)
	st := rs.Stats()
	if st.RegionalMiniSMs != 1 || st.GeoMiniSMs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalServers != 4000 || st.TotalShards != 35000 {
		t.Fatalf("totals = %+v", st)
	}
	apps := rs.AppsBySize()
	if len(apps) != 2 || apps[0].App != "a" {
		t.Fatalf("AppsBySize = %v", apps)
	}
}

func TestMiniSMForUnknownPartition(t *testing.T) {
	cp := New(DefaultLimits())
	if _, err := cp.MiniSMFor("ghost"); err == nil {
		t.Fatal("unknown partition accepted")
	}
}

func TestNewPanicsOnBadLimits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Limits{})
}

// fakeTarget implements ScalerTarget.
type fakeTarget struct {
	loads    map[shard.ID]float64
	replicas map[shard.ID]int
}

func (f *fakeTarget) ShardIDs() []shard.ID {
	return []shard.ID{"hot", "cold", "steady"}
}
func (f *fakeTarget) ShardLoadValue(s shard.ID, _ topology.Resource) float64 { return f.loads[s] }
func (f *fakeTarget) TotalReplicas(s shard.ID) int                           { return f.replicas[s] }
func (f *fakeTarget) SetReplicas(s shard.ID, n int)                          { f.replicas[s] = n }

func TestScalerTick(t *testing.T) {
	target := &fakeTarget{
		loads:    map[shard.ID]float64{"hot": 95, "cold": 2, "steady": 50},
		replicas: map[shard.ID]int{"hot": 2, "cold": 3, "steady": 2},
	}
	s, err := NewScaler(target, ScalerPolicy{
		Metric: topology.ResourceCPU, ScaleUpAt: 80, ScaleDownAt: 10,
		MinReplicas: 1, MaxReplicas: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Tick()
	if target.replicas["hot"] != 3 {
		t.Fatalf("hot replicas = %d, want 3", target.replicas["hot"])
	}
	if target.replicas["cold"] != 2 {
		t.Fatalf("cold replicas = %d, want 2", target.replicas["cold"])
	}
	if target.replicas["steady"] != 2 {
		t.Fatalf("steady replicas = %d, want unchanged", target.replicas["steady"])
	}
	if s.ScaleUps != 1 || s.ScaleDowns != 1 {
		t.Fatalf("counters = %d/%d", s.ScaleUps, s.ScaleDowns)
	}
}

func TestScalerRespectsBounds(t *testing.T) {
	target := &fakeTarget{
		loads:    map[shard.ID]float64{"hot": 100, "cold": 0, "steady": 50},
		replicas: map[shard.ID]int{"hot": 5, "cold": 1, "steady": 2},
	}
	s, _ := NewScaler(target, ScalerPolicy{
		Metric: topology.ResourceCPU, ScaleUpAt: 80, ScaleDownAt: 10,
		MinReplicas: 1, MaxReplicas: 5,
	})
	s.Tick()
	if target.replicas["hot"] != 5 || target.replicas["cold"] != 1 {
		t.Fatalf("bounds violated: %+v", target.replicas)
	}
}

func TestScalerPolicyValidation(t *testing.T) {
	bad := []ScalerPolicy{
		{ScaleUpAt: 1, ScaleDownAt: 2, MinReplicas: 1, MaxReplicas: 2},
		{ScaleUpAt: 2, ScaleDownAt: 1, MinReplicas: 0, MaxReplicas: 2},
		{ScaleUpAt: 2, ScaleDownAt: 1, MinReplicas: 3, MaxReplicas: 2},
	}
	for i, p := range bad {
		if _, err := NewScaler(&fakeTarget{}, p); err == nil {
			t.Fatalf("policy %d accepted", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if Regional.String() != "regional" || Geo.String() != "geo-distributed" {
		t.Fatal("kind names wrong")
	}
}

// --- chunk boundary behavior ---

// TestChunkPartitionsExactly pins chunk's off-by-one behavior: the parts sum
// to the total, differ by at most one, and the larger parts come first —
// exactly the remainder spread split() assumes.
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
