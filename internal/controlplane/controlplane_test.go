package controlplane

import (
	"fmt"
	"strings"
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
	kindOf := map[*Partition]Kind{}
	for _, spec := range []AppSpec{
		{App: "reg", Servers: 100, Shards: 100, Regions: []topology.RegionID{"r1"}},
		{App: "geo", Servers: 100, Shards: 100, Regions: []topology.RegionID{"r1", "r2"}},
	} {
		parts, err := cp.RegisterApp(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			kindOf[p] = spec.Kind()
		}
	}
	regional, geo := 0, 0
	for i, m := range cp.miniSMs {
		switch m.Kind {
		case Regional:
			regional++
		case Geo:
			geo++
		}
		for _, p := range m.Partitions {
			if m.Kind != kindOf[p] {
				t.Fatalf("a %v partition on mini-SM %d of kind %v", kindOf[p], i, m.Kind)
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
	if got := len(cp.miniSMs); got != 5 {
		t.Fatalf("mini-SMs = %d, want 5", got)
	}
	for i, m := range cp.miniSMs {
		if m.Servers() > limits.MiniSMMaxServers {
			t.Fatalf("mini-SM %d over capacity: %d", i, m.Servers())
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

func TestStats(t *testing.T) {
	cp := New(DefaultLimits())
	cp.RegisterApp(AppSpec{App: "a", Servers: 3000, Shards: 30000, Regions: []topology.RegionID{"r1"}})
	cp.RegisterApp(AppSpec{App: "b", Servers: 1000, Shards: 5000, Regions: []topology.RegionID{"r1", "r2"}})
	st := cp.Stats()
	if st.RegionalMiniSMs != 1 || st.GeoMiniSMs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalServers != 4000 || st.TotalShards != 35000 {
		t.Fatalf("totals = %+v", st)
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

// TestSplitAndPackingAtTheLimits pins what one application at each Limits
// bound, and one past it, turns into: the partitions RegisterApp returns
// (servers/shards each) and the mini-SMs they are packed onto. The rows were
// recorded before the registry was trimmed to what Fig 16 executes.
func TestSplitAndPackingAtTheLimits(t *testing.T) {
	cases := []struct {
		bound           string
		servers, shards int
		parts, pool     string
	}{
		{"PartitionMaxServers", 5000, 1000,
			"5000/1000",
			"minism-001=1x5000/1000"},
		{"PartitionMaxServers+1", 5001, 1000,
			"2501/500 2500/500",
			"minism-001=2x5001/1000"},
		{"PartitionMaxShards", 100, 500000,
			"100/500000",
			"minism-001=1x100/500000"},
		{"PartitionMaxShards+1", 100, 500001,
			"50/250001 50/250000",
			"minism-001=2x100/500001"},
		{"MiniSMMaxServers", 50000, 1000,
			"5000/100 5000/100 5000/100 5000/100 5000/100 5000/100 5000/100 5000/100 5000/100 5000/100",
			"minism-001=10x50000/1000"},
		{"MiniSMMaxServers+1", 50001, 1000,
			"4546/91 4546/91 4546/91 4546/91 4546/91 4546/91 4545/91 4545/91 4545/91 4545/91 4545/90",
			"minism-001=10x45456/910 minism-002=1x4545/90"},
		{"MiniSMMaxShards", 100, 1300000,
			"34/433334 33/433333 33/433333",
			"minism-001=3x100/1300000"},
		{"MiniSMMaxShards+1", 100, 1300001,
			"34/433334 33/433334 33/433333",
			"minism-001=2x67/866668 minism-002=1x33/433333"},
	}
	for _, c := range cases {
		cp := New(DefaultLimits())
		parts, err := cp.RegisterApp(AppSpec{App: "a", Servers: c.servers, Shards: c.shards,
			Regions: []topology.RegionID{"r1"}})
		if err != nil {
			t.Fatalf("%s: %v", c.bound, err)
		}
		var ps, ms []string
		for _, p := range parts {
			ps = append(ps, fmt.Sprintf("%d/%d", p.Servers, p.Shards))
		}
		for i, m := range cp.miniSMs {
			ms = append(ms, fmt.Sprintf("minism-%03d=%dx%d/%d", i+1, len(m.Partitions), m.Servers(), m.Shards()))
		}
		if got := strings.Join(ps, " "); got != c.parts {
			t.Errorf("%s: partitions = %q, want %q", c.bound, got, c.parts)
		}
		if got := strings.Join(ms, " "); got != c.pool {
			t.Errorf("%s: pool = %q, want %q", c.bound, got, c.pool)
		}
	}
}
