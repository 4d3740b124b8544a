package shard

import (
	"fmt"
	"sort"
)

// DeltaEntry is one changed shard in a Delta: the shard's complete new
// assignment list. Whole-entry granularity (rather than per-replica edits)
// keeps application order-independent and idempotent per shard, which is
// what lets consumers apply a delta's entries in any order.
type DeltaEntry struct {
	Shard       ID
	Assignments []Assignment
}

// Delta is a compact edit script between two consecutive shard-map
// versions: applying it to a map at FromVersion yields the map at
// ToVersion. It is the one form a shard map is published in, so publication
// costs O(changed entries) instead of O(shards), which is what makes
// frequent republication affordable at millions of shards.
//
// A Delta is a reusable buffer: Reset rewinds it in place, and staging
// methods (Set, Remove) recycle the Changed backing array and each
// entry's Assignments slice, so a publisher that restages one delta
// allocates nothing at steady state.
type Delta struct {
	App AppID
	// FromVersion is the map version this delta applies on top of;
	// ToVersion is the resulting version. FromVersion 0 marks a snapshot:
	// Changed carries every entry of the target map and a consumer replaces
	// whatever it held (the first publication, and a publisher's resync).
	FromVersion int64
	ToVersion   int64
	// Gen is the coordination epoch stamped on the resulting map, with the
	// same total-order semantics as Map.Gen.
	Gen int64
	// Changed holds added or reassigned shards with their new assignments.
	Changed []DeltaEntry
	// Removed lists shards absent from the target map.
	Removed []ID
}

// NewDelta returns an empty delta buffer for app.
func NewDelta(app AppID) *Delta { return &Delta{App: app} }

// Reset rewinds the delta in place for reuse, keeping the backing arrays:
// version bounds and generation are restamped, Changed and Removed empty.
// Returns d.
func (d *Delta) Reset(app AppID, from, to, gen int64) *Delta {
	d.App, d.FromVersion, d.ToVersion, d.Gen = app, from, to, gen
	d.Changed = d.Changed[:0]
	d.Removed = d.Removed[:0]
	return d
}

// entry appends one (possibly recycled) changed entry and returns it.
func (d *Delta) entry(s ID) *DeltaEntry {
	if len(d.Changed) < cap(d.Changed) {
		d.Changed = d.Changed[:len(d.Changed)+1]
	} else {
		d.Changed = append(d.Changed, DeltaEntry{})
	}
	e := &d.Changed[len(d.Changed)-1]
	e.Shard = s
	return e
}

// Set stages shard s's new assignment list, copying as into recycled
// storage (the caller may keep mutating its slice). Staging the same shard
// twice records it twice; the last entry wins on apply, but publishers
// should coalesce (stage each shard at most once per delta) to keep deltas
// minimal.
func (d *Delta) Set(s ID, as []Assignment) {
	e := d.entry(s)
	e.Assignments = append(e.Assignments[:0], as...)
}

// Remove stages shard s for removal from the map.
func (d *Delta) Remove(s ID) { d.Removed = append(d.Removed, s) }

// ApproxBytes estimates the map's wire size: shard/server ID bytes plus a
// small fixed per-record overhead. It is not a real codec.
func (m *Map) ApproxBytes() int64 {
	n := int64(32) // header: app/version/gen
	for s, as := range m.Entries {
		n += int64(len(s)) + 4
		for _, a := range as {
			n += int64(len(a.Server)) + 5 // server id + role + framing
		}
	}
	return n
}

// assignmentsEqual reports whether two assignment lists are identical
// including order (publication order is part of map identity: routing
// iterates replica lists in order).
func assignmentsEqual(a, b []Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Diff computes the delta that turns prev into m, reusing scratch's storage
// when non-nil; a nil prev yields m's snapshot (FromVersion 0, every entry).
// Entries are emitted in sorted shard order so the result is deterministic
// regardless of map iteration order. Cost is O(|m| + |prev|) plus a sort of
// the changed set — publishers that already know their churn set should
// stage a Delta directly instead and skip the scan.
func (m *Map) Diff(prev *Map, scratch *Delta) *Delta {
	if prev == nil {
		prev = &Map{}
	}
	d := scratch
	if d == nil {
		d = NewDelta(m.App)
	}
	d.Reset(m.App, prev.Version, m.Version, m.Gen)
	for s, as := range m.Entries {
		if pas, ok := prev.Entries[s]; !ok || !assignmentsEqual(as, pas) {
			d.Set(s, as)
		}
	}
	for s := range prev.Entries {
		if _, ok := m.Entries[s]; !ok {
			d.Remove(s)
		}
	}
	sort.Slice(d.Changed, func(i, j int) bool { return d.Changed[i].Shard < d.Changed[j].Shard })
	sort.Slice(d.Removed, func(i, j int) bool { return d.Removed[i] < d.Removed[j] })
	return d
}

// ApplyDelta applies d to m in place, advancing it from d.FromVersion to
// d.ToVersion. Per-shard assignment slices are recycled, so applying a
// steady-state delta (same shards churning) allocates nothing. It is the
// consumer-side counterpart of Diff: for any maps A, B with the same App,
// A.Clone() + ApplyDelta(B.Diff(A)) is deep-equal to B.
//
// The version must match exactly; a snapshot (FromVersion 0) therefore
// applies only to a map that has no version yet.
func (m *Map) ApplyDelta(d *Delta) error {
	if m.App != d.App {
		return fmt.Errorf("shard: delta for app %q applied to map of %q", d.App, m.App)
	}
	if m.Version != d.FromVersion {
		return fmt.Errorf("shard: delta %d->%d applied to map at version %d",
			d.FromVersion, d.ToVersion, m.Version)
	}
	for i := range d.Changed {
		e := &d.Changed[i]
		m.Entries[e.Shard] = append(m.Entries[e.Shard][:0], e.Assignments...)
	}
	for _, s := range d.Removed {
		delete(m.Entries, s)
	}
	m.Version = d.ToVersion
	if d.Gen > 0 {
		m.Gen = d.Gen
	}
	return nil
}
