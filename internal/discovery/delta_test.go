package discovery

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
)

// follower is a test subscriber that routes the way a client does: it keeps
// the delivered View and reads it in place.
type follower struct {
	v         View
	delivered int
}

func (f *follower) on(v View) {
	f.v = v
	f.delivered++
}

// primary returns the server s1's only replica is on in the follower's view.
func (f *follower) primary() shard.ServerID { return f.v.Replicas("s1")[0].Server }

func stageDelta(d *shard.Delta, from, to, gen int64, server shard.ServerID) *shard.Delta {
	if d == nil {
		d = shard.NewDelta("app")
	}
	d.Reset("app", from, to, gen)
	d.Set("s1", []shard.Assignment{{Server: server, Role: shard.RolePrimary}})
	return d
}

func TestPublishDeltaInOrderChaining(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	f := &follower{}
	svc.Subscribe("app", f.on)
	svc.Publish(snap(mapV(1)))
	loop.RunFor(2 * time.Second)
	if f.delivered != 1 || f.v.Version != 1 || f.primary() != "srv" {
		t.Fatalf("catch-up: delivered=%d v=%d", f.delivered, f.v.Version)
	}

	// One staging buffer, restaged for every publish: Publish copies out of it.
	d := shard.NewDelta("app")
	servers := []shard.ServerID{"a", "b", "c", "srv2"}
	for v := int64(1); v < 5; v++ {
		svc.Publish(stageDelta(d, v, v+1, v+1, servers[v-1]))
		loop.RunFor(2 * time.Second)
		if f.v.Version != v+1 || f.primary() != servers[v-1] {
			t.Fatalf("after %d->%d: follower at v%d on %s", v, v+1, f.v.Version, f.primary())
		}
	}
	if f.delivered != 5 {
		t.Fatalf("delivered=%d, want 5", f.delivered)
	}
	if cur := svc.Latest("app"); cur.Version != 5 || cur.Replicas("s1")[0].Server != "srv2" {
		t.Fatalf("service latest: %+v", cur)
	}
}

// TestPublishDeltaGapTriggersResync: a publisher whose delta no longer chains
// onto the service's latest version (it was made against a base the service
// never saw) is dropped; the publisher notices Latest is not where it left it
// and resyncs with a snapshot. A subscriber that the dropped and overtaken
// versions never reached jumps straight to the snapshot's version.
func TestPublishDeltaGapTriggersResync(t *testing.T) {
	loop := sim.NewLoop(1)
	// The 1->2 delivery is slow, everything else fast: v2 is overtaken.
	delays := []time.Duration{time.Second, 5 * time.Second, time.Second}
	i := 0
	svc := NewService(loop, func(*sim.RNG) time.Duration {
		d := delays[i%len(delays)]
		i++
		return d
	})
	f := &follower{}
	var statuses []string
	svc.AddObserver(func(_ shard.AppID, version int64, _ time.Duration, status string) {
		statuses = append(statuses, status)
	})
	svc.Subscribe("app", f.on)
	svc.Publish(snap(mapV(1)))
	loop.RunFor(2 * time.Second)
	svc.Publish(stageDelta(nil, 1, 2, 2, "a"))

	// The publisher believes the service is at v3; the service is at v2.
	svc.Publish(stageDelta(nil, 3, 4, 4, "b"))
	if got := svc.Latest("app"); got.Version != 2 || svc.Publications != 2 {
		t.Fatalf("gap delta applied: latest v%d, %d publications", got.Version, svc.Publications)
	}
	// Resync: the publisher's whole map at v4, which also drops nothing the
	// snapshot lists and removes what it does not.
	m4 := mapV(4)
	m4.Entries["s1"][0].Server = "b"
	m4.Entries["s2"] = []shard.Assignment{{Server: "c", Role: shard.RolePrimary}}
	svc.Publish(snap(m4))
	loop.RunFor(10 * time.Second)

	if f.v.Version != 4 || f.primary() != "b" || len(f.v.Replicas("s2")) != 1 {
		t.Fatalf("follower after resync: v%d s1=%v s2=%v", f.v.Version, f.v.Replicas("s1"), f.v.Replicas("s2"))
	}
	// v1 delivered, v4 delivered (jumping over v2), then the slow v2 stale.
	want := []string{"delivered", "delivered", "stale"}
	if len(statuses) != len(want) {
		t.Fatalf("statuses = %v, want %v", statuses, want)
	}
	for i := range want {
		if statuses[i] != want[i] {
			t.Fatalf("statuses = %v, want %v", statuses, want)
		}
	}
}

func TestPublishDeltaStaleAndGapDrops(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))

	// Gap: a delta onto a map the service never had.
	svc.Publish(stageDelta(nil, 4, 5, 5, "x"))
	if svc.Latest("app") != (View{}) || svc.Publications != 0 {
		t.Fatal("delta onto nothing accepted")
	}
	svc.Publish(snap(mapV(5)))

	// Stale: target version behind current.
	svc.Publish(stageDelta(nil, 4, 5, 5, "x"))
	// Gap: FromVersion doesn't match the latest version.
	svc.Publish(stageDelta(nil, 6, 7, 7, "x"))
	if cur := svc.Latest("app"); cur.Version != 5 || svc.Publications != 1 || cur.Replicas("s1")[0].Server != "srv" {
		t.Fatalf("dropped deltas changed the store: v%d pubs=%d", cur.Version, svc.Publications)
	}

	// Generation ordering: a delta with an older gen is stale even with a
	// newer version.
	svc.Publish(stageDelta(nil, 5, 6, 10, "y"))
	svc.Publish(stageDelta(nil, 6, 7, 9, "z")) // gen 9 < latest gen 10
	if cur := svc.Latest("app"); cur.Version != 6 || cur.Gen != 10 || cur.Replicas("s1")[0].Server != "y" {
		t.Fatalf("gen-stale delta accepted: v%d g%d", cur.Version, cur.Gen)
	}
}

// TestPublishDeltaLegacySubscriberGetsFullMaps: a subscriber that treats every
// delivery as a whole map — materialising it, as subscribers had to before
// views — gets the complete map after a delta publish, the entries the delta
// did not touch included.
func TestPublishDeltaLegacySubscriberGetsFullMaps(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	var got []*shard.Map
	svc.Subscribe("app", func(v View) { got = append(got, v.Map()) })
	m := mapV(1)
	m.Entries["s2"] = []shard.Assignment{{Server: "other", Role: shard.RolePrimary}}
	svc.Publish(snap(m))
	loop.RunFor(2 * time.Second)
	svc.Publish(stageDelta(nil, 1, 2, 2, "y"))
	loop.RunFor(2 * time.Second)
	if len(got) != 2 || got[1].Version != 2 {
		t.Fatalf("deliveries = %v, want versions [1 2]", got)
	}
	if len(got[1].Entries) != 2 || got[1].Entries["s1"][0].Server != "y" || got[1].Entries["s2"][0].Server != "other" {
		t.Fatalf("map after the delta: %+v", got[1].Entries)
	}
	if got[0].Entries["s1"][0].Server != "srv" {
		t.Fatalf("the earlier materialised map changed: %+v", got[0].Entries)
	}
}

// TestPublishDeltaRNGParityWithFull pins the schedule-identity contract: a
// run where the publisher sends incremental deltas consumes exactly the same
// delay draws as one that resends the whole map as a snapshot every time, so
// every delivery lands at the same instant.
func TestPublishDeltaRNGParityWithFull(t *testing.T) {
	run := func(useDelta bool) []time.Duration {
		loop := sim.NewLoop(42)
		svc := NewService(loop, nil) // DefaultDelay: real RNG draws
		var at []time.Duration
		for i := 0; i < 6; i++ {
			svc.Subscribe("app", func(View) { at = append(at, loop.Now()) })
		}
		svc.Publish(snap(mapV(1)))
		loop.RunFor(5 * time.Second)
		for v := int64(1); v <= 3; v++ {
			if useDelta {
				svc.Publish(stageDelta(nil, v, v+1, v+1, "z"))
			} else {
				m := mapV(v + 1)
				m.Entries["s1"][0].Server = "z"
				svc.Publish(snap(m))
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
			t.Fatalf("delivery %d at %v (snapshots) vs %v (deltas)", i, full[i], delta[i])
		}
	}
}

func TestLatestViewAndMap(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	if v := svc.Latest("app"); v != (View{}) || v.Map() != nil {
		t.Fatalf("Latest before publish = %+v", v)
	}
	m := mapV(3)
	m.Gen = 11
	svc.Publish(snap(m))
	v := svc.Latest("app")
	if v.Version != 3 || v.Gen != 11 {
		t.Fatalf("Latest = v%d g%d", v.Version, v.Gen)
	}
	got := v.Map()
	if got.App != "app" || got.Version != 3 || got.Gen != 11 || len(got.Entries) != 1 {
		t.Fatalf("Map: %+v", got)
	}
	// The materialised map is the caller's: changing it must not reach the store.
	got.Entries["s1"][0].Server = "mutated"
	if svc.Latest("app").Replicas("s1")[0].Server == "mutated" {
		t.Fatal("Map aliased the store's revisions")
	}
}

// TestReclaimedViewPanics: a view kept past the last subscription at or below
// it is reclaimed, and reading it panics instead of answering from a newer
// revision; a view a live subscription still holds stays readable.
func TestReclaimedViewPanics(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	f := &follower{}
	sub := svc.Subscribe("app", f.on)
	svc.Publish(snap(mapV(1)))
	loop.RunFor(2 * time.Second)
	held := f.v // v1, pinned by sub's cursor
	d := shard.NewDelta("app")
	for v := int64(1); v <= 8; v++ {
		svc.Publish(stageDelta(d, v, v+1, v+1, "later"))
	}
	if held.Replicas("s1")[0].Server != "srv" {
		t.Fatal("a view its subscription still holds was reclaimed")
	}
	sub.Cancel()
	for v := int64(9); v <= 16; v++ {
		svc.Publish(stageDelta(d, v, v+1, v+1, "later"))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading a reclaimed view did not panic")
		}
	}()
	held.Replicas("s1")
}

// TestCellOutlivesItsShardAndBelongsToOneStore: a cell resolved before the
// first publish reads every later version — through the shard's removal, the
// sweeps that empty the cell, and the shard's return — and is still the cell
// Cells hands the next client; a view of another app read through it panics.
func TestCellOutlivesItsShardAndBelongsToOneStore(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	ks, err := shard.NewKeyspace([]shard.ID{"s1", "s2"}, []string{"", "m"})
	if err != nil {
		t.Fatal(err)
	}
	cell := svc.Cells("app", ks)[0]
	if got := svc.Latest("app").At(cell); got != nil {
		t.Fatalf("nothing published, cell reads %v", got)
	}
	svc.Publish(snap(mapV(1)))
	if got := svc.Latest("app").At(cell); len(got) != 1 || got[0].Server != "srv" {
		t.Fatalf("v1 through the cell: %v", got)
	}
	gone := shard.NewDelta("app").Reset("app", 1, 2, 2)
	gone.Remove("s1")
	svc.Publish(gone)
	d := shard.NewDelta("app")
	for v := int64(2); v <= 12; v++ { // no subscriber: every sweep reclaims all but the latest
		d.Reset("app", v, v+1, v+1)
		d.Set("s2", []shard.Assignment{{Server: "other"}})
		svc.Publish(d)
	}
	if st := svc.state("app"); len(cell.revs) != 0 || st.cells["s1"] != cell {
		t.Fatalf("removed and swept: cell holds %v, store has it: %v", cell.revs, st.cells["s1"] == cell)
	}
	if got := svc.Latest("app").At(cell); got != nil {
		t.Fatalf("removed shard reads %v", got)
	}
	svc.Publish(stageDelta(d, 13, 14, 14, "back"))
	if got := svc.Latest("app").At(cell); len(got) != 1 || got[0].Server != "back" {
		t.Fatalf("shard placed again, through the old cell: %v", got)
	}
	if again := svc.Cells("app", ks); again[0] != cell {
		t.Fatal("Cells resolved the keyspace a second time")
	}

	svc.Publish(snap(&shard.Map{App: "other", Version: 1, Gen: 1, Entries: map[shard.ID][]shard.Assignment{"s1": {{Server: "x"}}}}))
	defer func() {
		if recover() == nil {
			t.Fatal("a view of another app's store read through the cell did not panic")
		}
	}()
	svc.Latest("other").At(cell)
}

// TestOvertakenDeliveryOfReclaimedVersionIsStale: a new control-plane
// generation may restart version numbering, so a delivery can be overtaken by
// one that carries a lower version. When the overtaken version has been
// reclaimed by the time it arrives, the subscriber is told nothing — handing
// it over would take the subscriber back a generation, to a view that panics
// on read.
func TestOvertakenDeliveryOfReclaimedVersionIsStale(t *testing.T) {
	loop := sim.NewLoop(1)
	delays := []time.Duration{time.Second, 5 * time.Second, time.Second} // v1, v10 (slow), v3
	svc := NewService(loop, func(*sim.RNG) time.Duration {
		d := delays[0]
		delays = delays[1:]
		return d
	})
	f := &follower{}
	svc.Subscribe("app", f.on)
	var statuses []string
	svc.AddObserver(func(_ shard.AppID, version int64, _ time.Duration, status string) {
		statuses = append(statuses, fmt.Sprintf("v%d %s", version, status))
	})
	publish := func(version, gen int64, server shard.ServerID) {
		m := mapV(version)
		m.Gen = gen
		m.Entries["s1"][0].Server = server
		svc.Publish(snap(m))
	}
	publish(1, 1, "a")
	loop.RunFor(2 * time.Second)
	publish(10, 2, "b") // in flight for 5 s
	publish(3, 3, "c")  // generation 3 restarts numbering; arrives first
	loop.RunFor(2 * time.Second)
	if f.v.Version != 3 || f.primary() != "c" {
		t.Fatalf("follower at v%d on %s, want v3 on c", f.v.Version, f.primary())
	}
	svc.state("app").sweep() // the only cursor is at v3: v1 and v10 go
	loop.RunFor(5 * time.Second)
	if want := []string{"v1 delivered", "v3 delivered", "v10 stale"}; !slices.Equal(statuses, want) {
		t.Fatalf("deliveries = %v, want %v", statuses, want)
	}
	if f.v.Version != 3 || f.primary() != "c" {
		t.Fatalf("follower moved to v%d after the overtaken delivery", f.v.Version)
	}
}
