package discovery

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
)

// storeFuzz drives one Service from a byte string and checks it, after every
// step, against reference maps built with shard.Map.ApplyDelta.
type storeFuzz struct {
	t    *testing.T
	data []byte
	loop *sim.Loop
	svc  *Service

	// ref[i] is the reference map of store sequence i+1.
	ref []*shard.Map
	gen int64 // last generation handed out

	subs []*fuzzSub
	// loose are views nothing pins: kept after their subscription was
	// cancelled, or taken with Latest and held on to.
	loose []View

	// cells are the handles a reader would keep, resolved once and never
	// again: s0-s2 through Cells before anything was published, the rest the
	// first time a view is checked. nums is the number each server was first
	// read with.
	cells map[shard.ID]*Cell
	nums  map[shard.ServerID]uint32
}

type fuzzSub struct {
	sub  *Subscription
	held View
}

var (
	fuzzShards  = []shard.ID{"s0", "s1", "s2", "s3", "s4", "s5"}
	fuzzServers = []shard.ServerID{"a", "b", "c", "d"}
)

func (z *storeFuzz) next() int {
	if len(z.data) == 0 {
		return 0
	}
	b := z.data[0]
	z.data = z.data[1:]
	return int(b)
}

func (z *storeFuzz) state() *appState { return z.svc.state("app") }

func (z *storeFuzz) latestRef() *shard.Map {
	if len(z.ref) == 0 {
		return nil
	}
	return z.ref[len(z.ref)-1]
}

// stage fills d with a few random edits: assignment lists of length 0-2
// (an empty list is an entry, not a removal), sometimes a removal, sometimes
// the same shard twice.
func (z *storeFuzz) stage(d *shard.Delta) {
	for n := 1 + z.next()%3; n > 0; n-- {
		as := make([]shard.Assignment, z.next()%3)
		for i := range as {
			as[i] = shard.Assignment{Server: fuzzServers[z.next()%len(fuzzServers)], Role: shard.Role(z.next() % 2)}
		}
		d.Set(fuzzShards[z.next()%len(fuzzShards)], as)
	}
	if z.next()%3 == 0 {
		d.Remove(fuzzShards[z.next()%len(fuzzShards)])
	}
}

// publish hands d to the service and, from the reference alone, decides
// whether it must have been accepted.
func (z *storeFuzz) publish(d *shard.Delta) {
	cur := z.latestRef()
	accept := d.FromVersion == 0 || (cur != nil && d.FromVersion == cur.Version)
	if cur != nil {
		accept = accept && d.Gen > cur.Gen
	}
	before := z.svc.Publications
	z.svc.Publish(d)
	if got := z.svc.Publications > before; got != accept {
		z.t.Fatalf("publish %d->%d g%d onto %v: accepted=%v, want %v", d.FromVersion, d.ToVersion, d.Gen, cur, got, accept)
	}
	if !accept {
		return
	}
	next := &shard.Map{App: "app", Entries: map[shard.ID][]shard.Assignment{}}
	if d.FromVersion != 0 {
		next = cur.Clone()
	}
	if err := next.ApplyDelta(d); err != nil {
		z.t.Fatal(err)
	}
	z.ref = append(z.ref, next)
}

func (z *storeFuzz) step() {
	var version int64
	if cur := z.latestRef(); cur != nil {
		version = cur.Version
	}
	stamp := func() int64 { // most publishes take a new generation; some repeat the last one
		if z.next()%4 == 0 && z.gen > 0 {
			return z.gen
		}
		z.gen++
		return z.gen
	}
	switch z.next() % 10 {
	case 0, 1: // a delta that chains
		d := shard.NewDelta("app").Reset("app", version, version+1+int64(z.next()%2), stamp())
		z.stage(d)
		z.publish(d)
	case 2: // a snapshot
		d := shard.NewDelta("app").Reset("app", 0, version+1, stamp())
		z.stage(d)
		z.publish(d)
	case 3: // behind: an old generation, an old version, or a base the service is not at
		d := shard.NewDelta("app").Reset("app", version, version+1, stamp())
		switch z.next() % 3 {
		case 0:
			d.Gen = 1
		case 1:
			d.FromVersion, d.ToVersion = version-1, version
		case 2:
			d.FromVersion, d.ToVersion = version+3, version+4
		}
		z.stage(d)
		z.publish(d)
	case 9: // a new generation that restarts version numbering below the current one
		z.gen++
		d := shard.NewDelta("app").Reset("app", 0, 1+int64(z.next()%3), z.gen)
		z.stage(d)
		z.publish(d)
	case 4:
		if len(z.subs) < 6 {
			fs := &fuzzSub{}
			fs.sub = z.svc.Subscribe("app", func(v View) {
				if v.seq < 1 || int(v.seq) > len(z.ref) || v.Version != z.ref[v.seq-1].Version {
					z.t.Fatalf("delivered view seq %d v%d, reference has %d versions", v.seq, v.Version, len(z.ref))
				}
				z.checkView(v, "delivery")
				fs.held = v
			})
			z.subs = append(z.subs, fs)
		}
	case 5:
		if len(z.subs) > 0 {
			i := z.next() % len(z.subs)
			fs := z.subs[i]
			fs.sub.Cancel()
			z.loose = append(z.loose, fs.held)
			z.subs = append(z.subs[:i], z.subs[i+1:]...)
		}
	case 6:
		z.loop.RunFor(time.Duration(z.next()%6) * time.Millisecond)
	case 7:
		z.loose = append(z.loose, z.svc.Latest("app"))
	case 8:
		st := z.state()
		st.sweep()
		// Everything reclaimable is gone: per shard at most one revision at
		// or below the floor, and no removal standing alone.
		for id, c := range st.cells {
			old := 0
			for _, r := range c.revs {
				if r.since <= st.floor {
					old++
				}
			}
			if old > 1 || (len(c.revs) == 1 && c.revs[0].as == nil) {
				z.t.Fatalf("after sweep at floor %d, shard %s keeps %+v", st.floor, id, c.revs)
			}
		}
	}
}

// checkView compares v with the reference map of its sequence, or, when v is
// below the reclaimed floor, requires reading it to panic.
func (z *storeFuzz) checkView(v View, what string) {
	if v == (View{}) {
		return
	}
	if v.seq < z.state().floor {
		for name, read := range map[string]func(){
			"Replicas": func() { v.Replicas(fuzzShards[0]) },
			"At":       func() { v.At(z.cells[fuzzShards[0]]) },
			"Map":      func() { v.Map() },
		} {
			func() {
				defer func() {
					if recover() == nil {
						z.t.Fatalf("%s: %s of view seq %d below floor %d did not panic", what, name, v.seq, z.state().floor)
					}
				}()
				read()
			}()
		}
		return
	}
	want := z.ref[v.seq-1]
	if v.Version != want.Version || v.Gen != want.Gen {
		z.t.Fatalf("%s: view seq %d is v%d g%d, reference v%d g%d", what, v.seq, v.Version, v.Gen, want.Version, want.Gen)
	}
	m := v.Map()
	if m.App != want.App || m.Version != want.Version || m.Gen != want.Gen || len(m.Entries) != len(want.Entries) {
		z.t.Fatalf("%s: Map() of seq %d = %+v, reference %+v", what, v.seq, m, want)
	}
	for _, id := range fuzzShards {
		was, ok := want.Entries[id]
		got := v.Replicas(id)
		if !slices.EqualFunc(got, was, func(r Replica, a shard.Assignment) bool { return r.Assignment == a }) || (got != nil) != ok {
			z.t.Fatalf("%s: seq %d shard %s: Replicas %v, reference %v (present %v)", what, v.seq, id, got, was, ok)
		}
		// The same read through the handle kept since it was first resolved,
		// whatever sweeps and snapshots the cell has been through since.
		cell := z.cells[id]
		if cell == nil {
			cell = z.state().cell(id)
			z.cells[id] = cell
		}
		if z.state().cells[id] != cell || cell.id != id {
			z.t.Fatalf("%s: the store's cell for %s is no longer the one first resolved", what, id)
		}
		if through := v.At(cell); !slices.Equal(through, got) || (through != nil) != ok {
			z.t.Fatalf("%s: seq %d shard %s: through its cell %v, by name %v", what, v.seq, id, through, got)
		}
		for _, r := range got {
			if num, seen := z.nums[r.Server]; seen && num != r.Num {
				z.t.Fatalf("%s: server %s read as number %d, earlier as %d", what, r.Server, r.Num, num)
			}
			z.nums[r.Server] = r.Num
		}
		mas, mok := m.Entries[id]
		if !slices.Equal(mas, was) || mok != ok {
			z.t.Fatalf("%s: seq %d shard %s: Map() has %v (present %v), reference %v (present %v)", what, v.seq, id, mas, mok, was, ok)
		}
	}
}

func (z *storeFuzz) check() {
	st := z.state()
	for i, fs := range z.subs {
		if fs.held != fs.sub.cursor {
			z.t.Fatalf("sub %d holds seq %d, its cursor is at %d", i, fs.held.seq, fs.sub.cursor.seq)
		}
		if fs.held != (View{}) && fs.held.seq < st.floor {
			z.t.Fatalf("floor %d passed live sub %d's cursor %d", st.floor, i, fs.held.seq)
		}
		z.checkView(fs.held, fmt.Sprintf("sub %d", i))
	}
	for i, v := range z.loose {
		z.checkView(v, fmt.Sprintf("loose view %d", i))
	}
	z.checkView(z.svc.Latest("app"), "Latest")

	stored, live := 0, 0
	for _, c := range st.cells { // an emptied cell stays, holding nothing
		stored += len(c.revs)
		if n := len(c.revs); n > 0 && c.revs[n-1].as != nil {
			live++
		}
	}
	if stored != st.stored || live != st.live {
		z.t.Fatalf("accounting: stored %d live %d, counted %d and %d", st.stored, st.live, stored, live)
	}
	byNum := map[uint32]shard.ServerID{}
	for srv, num := range z.nums {
		if other, dup := byNum[num]; dup {
			z.t.Fatalf("servers %s and %s share number %d", srv, other, num)
		}
		byNum[num] = srv
	}
	if cur := z.latestRef(); cur != nil && live != len(cur.Entries) {
		z.t.Fatalf("live %d, reference has %d entries", live, len(cur.Entries))
	}
	// At most twice the live entries, plus what the last sweep found pinned
	// by the slowest cursor.
	if st.stored > 2*st.live+st.kept {
		z.t.Fatalf("store holds %d revisions for %d live entries with %d pinned", st.stored, st.live, st.kept)
	}
}

// FuzzVersionedStore interleaves deltas, snapshots, new generations that
// restart version numbering, publishes that must be dropped (stale
// generation, stale version, a base the service is not at), subscribe,
// cancel, deliveries in any order and reclamation. After every
// step each live subscriber's View reads exactly the reference map of its
// version — entry by entry through Replicas, the same through the cell
// resolved for the shard once (some before the first publish) and kept across
// every sweep that emptied it and every snapshot that removed the shard and
// brought it back, and whole through Map — every server reads with one number
// and no two share one, a view below the reclaimed floor panics, the floor
// never passes a live cursor, and the store holds at most two revisions per
// live entry plus those a live cursor pins.
func FuzzVersionedStore(f *testing.F) {
	f.Add([]byte{2, 1, 1, 0, 1, 1, 2, 4, 6, 5, 0, 1, 2, 0, 0, 1, 6, 3})
	f.Add([]byte{4, 4, 2, 1, 2, 0, 1, 1, 0, 0, 1, 1, 1, 2, 1, 0, 0, 6, 1, 0, 3, 1, 1, 1, 0, 7, 5, 0, 0, 2, 2, 1, 1, 8, 6, 5})
	f.Add([]byte("\x04\x02\x01\x00\x00\x01\x01\x01\x07\x00\x02\x00\x00\x00\x01\x00\x03\x02\x05\x00\x00\x02\x01\x00\x08\x06\x04\x08\x03\x00\x01\x01\x00\x02\x00\x00\x02\x00\x00\x00\x06\x05\x08"))
	var churn []byte // one subscriber pinned early while many versions pass
	churn = append(churn, 2, 1, 1, 0, 1, 0, 0, 0, 4, 6, 5)
	for i := 0; i < 40; i++ {
		churn = append(churn, 0, 1, 0, 1, byte(i), 1, byte(i), 1, 0, 1)
	}
	churn = append(churn, 5, 0, 8, 7)
	f.Add(churn)
	// A snapshot of two shards, then one that lists only the first.
	f.Add([]byte{2, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1, 2, 1, 0, 1, 0, 0, 0, 1})
	// A subscriber at v1; v3 published on a slow delivery, then generation 3
	// restarts numbering at v2 and arrives first; a sweep reclaims v3 before it
	// lands.
	f.Add([]byte{4, 2, 1, 0, 1, 0, 0, 0, 1, 1, 6, 2, 0, 1, 1, 0, 1, 1, 0, 0, 1, 5,
		9, 1, 0, 1, 2, 0, 0, 1, 1, 6, 2, 8, 6, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		z := &storeFuzz{t: t, data: data, loop: sim.NewLoop(1),
			cells: map[shard.ID]*Cell{}, nums: map[shard.ServerID]uint32{}}
		z.svc = NewService(z.loop, func(*sim.RNG) time.Duration {
			return time.Duration(z.next()%8) * time.Millisecond
		})
		early, err := shard.NewKeyspace(fuzzShards[:3], []string{"", "b", "c"})
		if err != nil {
			t.Fatal(err)
		}
		for pos, cell := range z.svc.Cells("app", early) {
			z.cells[early.At(pos)] = cell
		}
		for len(z.data) > 0 {
			z.step()
			z.check()
		}
		z.loop.RunFor(time.Second)
		z.check()
	})
}
