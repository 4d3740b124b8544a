package discovery

import (
	"fmt"
	"testing"
	"time"

	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
)

// BenchmarkPublishFanout measures publishing a 1,000-shard snapshot to 100
// subscribers, including delivery.
func BenchmarkPublishFanout(b *testing.B) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Millisecond))
	delivered := 0
	for i := 0; i < 100; i++ {
		svc.Subscribe("app", func(View) { delivered++ })
	}
	m := &shard.Map{App: "app", Entries: map[shard.ID][]shard.Assignment{}}
	for i := 0; i < 1000; i++ {
		id := shard.ID(fmt.Sprintf("s%04d", i))
		m.Entries[id] = []shard.Assignment{{Server: "srv", Role: shard.RolePrimary}}
	}
	d := snap(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ToVersion, d.Gen = int64(i+1), int64(i+1)
		svc.Publish(d)
		loop.RunFor(10 * time.Millisecond)
	}
	if delivered == 0 {
		b.Fatal("nothing delivered")
	}
}

// benchMap builds an n-shard single-primary map.
func benchMap(n int) *shard.Map {
	m := &shard.Map{App: "app", Entries: map[shard.ID][]shard.Assignment{}}
	m.Version, m.Gen = 1, 1
	for i := 0; i < n; i++ {
		id := shard.ID(fmt.Sprintf("s%07d", i))
		m.Entries[id] = []shard.Assignment{{Server: shard.ServerID(fmt.Sprintf("srv%05d", i%512)), Role: shard.RolePrimary}}
	}
	return m
}

// BenchmarkPublishDelta measures single-entry churn published and delivered:
// cost is O(changed entries) regardless of map size (the 1M point is where a
// whole-map copy per publish used to cost ~1.1 s).
func BenchmarkPublishDelta(b *testing.B) {
	for _, n := range []int{10_000, 120_000, 1_000_000} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			loop := sim.NewLoop(1)
			svc := NewService(loop, FixedDelay(time.Millisecond))
			f := &follower{}
			svc.Subscribe("app", f.on)
			m := benchMap(n)
			svc.Publish(snap(m))
			loop.RunFor(10 * time.Millisecond)
			d := shard.NewDelta("app")
			version := m.Version
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Reset("app", version, version+1, version+1)
				d.Set("s0000000", []shard.Assignment{{Server: shard.ServerID(fmt.Sprintf("srv%05d", i%512)), Role: shard.RolePrimary}})
				version++
				svc.Publish(d)
				loop.RunFor(10 * time.Millisecond)
			}
			b.StopTimer()
			if f.delivered < 2 {
				b.Fatal("no deltas delivered")
			}
		})
	}
}

// TestPublishDeltaSteadyStateAllocs pins what a publish costs once the staging
// delta and delivery records have warmed up: a publish-and-deliver cycle
// allocates the revision it stores — the one changed entry's assignment list
// and, now and then, room in that shard's revision list — and nothing that
// grows with the 1,000-shard map.
func TestPublishDeltaSteadyStateAllocs(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Millisecond))
	f := &follower{}
	svc.Subscribe("app", f.on)
	m := benchMap(1000)
	svc.Publish(snap(m))
	loop.RunFor(10 * time.Millisecond)
	version := m.Version
	d := shard.NewDelta("app")
	publish := func(server shard.ServerID) {
		d.Reset("app", version, version+1, version+1)
		d.Set("s0000100", []shard.Assignment{{Server: server, Role: shard.RolePrimary}})
		version++
		svc.Publish(d)
		loop.RunFor(10 * time.Millisecond)
	}
	for i := 0; i < 3; i++ { // warm up the staging delta and the delivery freelist
		publish("srvX")
	}
	allocs := testing.AllocsPerRun(100, func() { publish("srvY") })
	if allocs > 2 {
		t.Fatalf("steady-state delta publish allocates %.1f/run, want at most 2", allocs)
	}
	if f.v.Version != version || f.v.Replicas("s0000100")[0].Server != "srvY" {
		t.Fatalf("follower at v%d, want v%d", f.v.Version, version)
	}
}
