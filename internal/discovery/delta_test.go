package discovery

import (
	"testing"
	"time"

	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
)

// deltaFollower is a test subscriber that maintains its own map the way a
// routing client in delta mode does: full snapshots clone, deltas apply in
// place.
type deltaFollower struct {
	m       *shard.Map
	fulls   int
	deltas  int
	applyNG *testing.T
}

func (f *deltaFollower) onFull(m *shard.Map) {
	f.m = m.CloneInto(f.m)
	f.fulls++
}

func (f *deltaFollower) onDelta(d *shard.Delta) {
	if err := f.m.ApplyDelta(d); err != nil {
		f.applyNG.Fatalf("follower ApplyDelta: %v", err)
	}
	f.deltas++
}

func stageDelta(d *shard.Delta, from, to, gen int64, server shard.ServerID) *shard.Delta {
	if d == nil {
		d = shard.NewDelta("app")
	}
	d.Reset("app", from, to, gen)
	d.SetOne("s1", server, shard.RolePrimary)
	return d
}

func TestPublishDeltaInOrderChaining(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	f := &deltaFollower{applyNG: t}
	svc.SubscribeDelta("app", f.onFull, f.onDelta)
	svc.Publish(mapV(1))
	loop.RunFor(2 * time.Second)
	if f.fulls != 1 || f.m.Version != 1 {
		t.Fatalf("catch-up: fulls=%d v=%d", f.fulls, f.m.Version)
	}

	var scratch *shard.Delta
	for v := int64(1); v < 5; v++ {
		scratch = svc.PublishDelta(stageDelta(scratch, v, v+1, 0, shard.ServerID("srv2")))
		loop.RunFor(2 * time.Second)
	}
	if f.deltas != 4 || f.fulls != 1 {
		t.Fatalf("deltas=%d fulls=%d, want 4/1", f.deltas, f.fulls)
	}
	if f.m.Version != 5 {
		t.Fatalf("follower at v%d, want 5", f.m.Version)
	}
	if cur := svc.Current("app"); cur.Version != 5 ||
		cur.Entries["s1"][0].Server != "srv2" {
		t.Fatalf("service current: %+v", cur)
	}
	// The first PublishDelta had no prior delta to recycle; later ones hand
	// back the previously retained buffer.
	if scratch == nil {
		t.Fatal("no recycled delta buffer returned")
	}
}

func TestPublishDeltaGapTriggersResync(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	svc.Publish(mapV(1))
	loop.RunFor(2 * time.Second)

	f := &deltaFollower{applyNG: t}
	var statuses []string
	svc.AddObserver(func(app shard.AppID, version int64, lag time.Duration, status string) {
		statuses = append(statuses, status)
	})
	svc.SubscribeDelta("app", f.onFull, f.onDelta)
	loop.RunFor(2 * time.Second) // catch-up at v1

	// Two deltas published back-to-back: the follower receives 1→2 in order,
	// but a delta jumping straight past its version forces a full resync.
	d1 := stageDelta(nil, 1, 2, 0, shard.ServerID("a"))
	svc.PublishDelta(d1)
	loop.RunFor(2 * time.Second)
	d3 := stageDelta(nil, 3, 4, 0, shard.ServerID("b"))
	d3.ToVersion = 4
	// Force the service itself past v3 so the delta chains there but not at
	// the follower: publish v3 as a full map with no propagation to f by
	// cancelling... simpler: publish full v3, let it deliver, then make the
	// follower stale by hand.
	m3 := mapV(3)
	m3.Entries["s1"] = []shard.Assignment{{Server: shard.ServerID("c"), Role: shard.RolePrimary}}
	svc.Publish(m3)
	loop.RunFor(2 * time.Second)
	// Follower is now at v3 via the full path. Rewind it to simulate a missed
	// version, then publish the 3→4 delta: lastSeen(2) != FromVersion(3).
	f.m.Version = 2
	subRewind(svc, "app", 2)
	svc.PublishDelta(d3)
	loop.RunFor(2 * time.Second)

	if f.m.Version != 4 {
		t.Fatalf("follower at v%d after resync, want 4", f.m.Version)
	}
	last := statuses[len(statuses)-1]
	if last != "resync" {
		t.Fatalf("last delivery status %q, want resync (all: %v)", last, statuses)
	}
	if f.m.Entries["s1"][0].Server != "b" {
		t.Fatalf("resync content: %+v", f.m.Entries["s1"])
	}
}

// subRewind forces app's subscribers' lastSeen to v, simulating a missed
// delivery window.
func subRewind(s *Service, app shard.AppID, v int64) {
	for _, sub := range s.state(app).subs {
		sub.lastSeen = v
	}
}

func TestPublishDeltaStaleAndGapDrops(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	svc.Publish(mapV(5))

	// Stale: target version behind current.
	d := stageDelta(nil, 4, 5, 0, shard.ServerID("x"))
	if got := svc.PublishDelta(d); got != d {
		t.Fatal("stale delta not returned to caller")
	}
	// Gap: FromVersion doesn't match the current map.
	d.Reset("app", 6, 7, 0)
	d.SetOne("s1", shard.ServerID("x"), shard.RolePrimary)
	if got := svc.PublishDelta(d); got != d {
		t.Fatal("gap delta not returned to caller")
	}
	if svc.Current("app").Version != 5 || svc.Publications != 1 {
		t.Fatalf("dropped deltas mutated state: v%d pubs=%d",
			svc.Current("app").Version, svc.Publications)
	}

	// Generation ordering: a delta with an older gen is stale even with a
	// newer version.
	m := mapV(5)
	m.Gen = 10
	svc.Publish(mapV(6)) // bump version first so the gen-stamped map lands
	mg := mapV(7)
	mg.Gen = 10
	svc.Publish(mg)
	d.Reset("app", 7, 8, 9) // gen 9 < current gen 10
	if got := svc.PublishDelta(d); got != d {
		t.Fatal("gen-stale delta accepted")
	}
}

func TestPublishDeltaLegacySubscriberGetsFullMaps(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	var got []int64
	svc.Subscribe("app", func(m *shard.Map) { got = append(got, m.Version) })
	svc.Publish(mapV(1))
	loop.RunFor(2 * time.Second)
	svc.PublishDelta(stageDelta(nil, 1, 2, 0, shard.ServerID("y")))
	loop.RunFor(2 * time.Second)
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("legacy subscriber deliveries = %v, want [1 2]", got)
	}
}

// TestPublishDeltaRNGParityWithFull pins the schedule-identity contract: a
// run where the publisher uses deltas consumes exactly the same delay draws
// as one using full maps, so every delivery lands at the same instant.
func TestPublishDeltaRNGParityWithFull(t *testing.T) {
	run := func(useDelta bool) []time.Duration {
		loop := sim.NewLoop(42)
		svc := NewService(loop, nil) // DefaultDelay: real RNG draws
		var at []time.Duration
		for i := 0; i < 5; i++ {
			svc.Subscribe("app", func(*shard.Map) { at = append(at, loop.Now()) })
		}
		f := &deltaFollower{applyNG: t}
		svc.SubscribeDelta("app", func(m *shard.Map) {
			f.onFull(m)
			at = append(at, loop.Now())
		}, func(d *shard.Delta) {
			f.onDelta(d)
			at = append(at, loop.Now())
		})
		svc.Publish(mapV(1))
		loop.RunFor(5 * time.Second)
		for v := int64(1); v <= 3; v++ {
			if useDelta {
				svc.PublishDelta(stageDelta(nil, v, v+1, 0, shard.ServerID("z")))
			} else {
				m := mapV(v + 1)
				m.Entries["s1"] = []shard.Assignment{{Server: shard.ServerID("z"), Role: shard.RolePrimary}}
				svc.Publish(m)
			}
			loop.RunFor(5 * time.Second)
		}
		return at
	}
	full, delta := run(false), run(true)
	if len(full) != len(delta) {
		t.Fatalf("delivery counts differ: %d vs %d", len(full), len(delta))
	}
	for i := range full {
		if full[i] != delta[i] {
			t.Fatalf("delivery %d at %v (full) vs %v (delta)", i, full[i], delta[i])
		}
	}
}

func TestPublishDeltaBatchFanout(t *testing.T) {
	loop := sim.NewLoop(7)
	svc := NewService(loop, FixedDelay(time.Second))
	svc.SetFanoutBatch(4)
	const subs = 10
	fs := make([]*deltaFollower, subs)
	for i := range fs {
		fs[i] = &deltaFollower{applyNG: t}
		svc.SubscribeDelta("app", fs[i].onFull, fs[i].onDelta)
	}
	svc.Publish(mapV(1))
	loop.RunFor(2 * time.Second)
	var scratch *shard.Delta
	for v := int64(1); v <= 4; v++ {
		scratch = svc.PublishDelta(stageDelta(scratch, v, v+1, 0, shard.ServerID("b")))
		loop.RunFor(2 * time.Second)
	}
	for i, f := range fs {
		if f.m.Version != 5 || f.deltas != 4 {
			t.Fatalf("sub %d: v%d deltas=%d, want v5/4", i, f.m.Version, f.deltas)
		}
	}
}

func TestCurrentMetaAndCurrentInto(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	if _, _, ok := svc.CurrentMeta("app"); ok {
		t.Fatal("CurrentMeta ok before publish")
	}
	if svc.CurrentInto("app", nil) != nil {
		t.Fatal("CurrentInto non-nil before publish")
	}
	m := mapV(3)
	m.Gen = 11
	svc.Publish(m)
	v, g, ok := svc.CurrentMeta("app")
	if !ok || v != 3 || g != 11 {
		t.Fatalf("CurrentMeta = (%d,%d,%v)", v, g, ok)
	}
	dst := shard.NewMap("app")
	got := svc.CurrentInto("app", dst)
	if got != dst || got.Version != 3 || len(got.Entries) != 1 {
		t.Fatalf("CurrentInto: %+v", got)
	}
	// Reusing dst must not alias service state.
	got.Entries["s1"][0].Server = "mutated"
	if svc.Current("app").Entries["s1"][0].Server == "mutated" {
		t.Fatal("CurrentInto aliased the service's map")
	}
}
