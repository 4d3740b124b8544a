package orchestrator

import (
	"math"
	"time"

	"shardmanager/internal/allocator"
)

// solveMemo remembers the last allocation problem solved and what came of it.
// An allocator run is a pure function of the problem and the mode for a fixed
// policy and seed, and an idle control plane asks the question it asked one
// AllocInterval ago; solve answers that from here. Whether the question is
// the same is not found by comparing problems: the orchestrator is the only
// writer of what refresh reads, and every write that changes a problem value
// bumps the epoch (touch; a load report, checked value by value, is not
// checked once the epoch has moved). The one value nothing writes is a
// server's liveness, which the clock turns false when a dead server's grace
// runs out; until bounds a replay to before the first such instant.
type solveMemo struct {
	epoch uint64            // bumped by touch
	res   *allocator.Result // the last fresh solve's result; nil: nothing remembered
	seen  uint64            // the epoch res was solved at
	mode  allocator.Mode    // and the mode
	at    time.Duration     // and the instant
	until time.Duration     // res stands only before this instant (graceEnd)
	// solved, when set, is told every result solve returned and whether it was
	// a remembered one: the seam through which the tests run the allocator
	// fresh beside the memo.
	solved func(mode allocator.Mode, res *allocator.Result, remembered bool)
}

// touch records that a value refresh reads has changed.
func (o *Orchestrator) touch() { o.memo.epoch++ }

// markShard records that the shard's load or placement may have changed, for
// the next refresh to restate. Unlike touch it is not checked against the
// value held: restating an unchanged shard costs its slot and nothing else.
func (o *Orchestrator) markShard(ss *shardState) {
	if !ss.stale {
		ss.stale = true
		o.stale = append(o.stale, ss)
	}
}

// markServers records that a server joined, died, came back, changed domains
// or started or stopped draining, for the next refresh to restate the server
// list.
func (o *Orchestrator) markServers() { o.serversStale = true }

// replayable reports whether no input value has changed since the remembered
// solve — so that a write may still need to bump the epoch.
func (m *solveMemo) replayable() bool { return m.res != nil && m.seen == m.epoch }

// solve runs the kept problem, refreshed, behind the memo: when no problem
// value was written since the last fresh solve, the mode is the same and no
// grace has run out, nothing is refreshed or run and that solve's result
// comes back. It returns nil while no server is known. A result must not be
// modified.
func (o *Orchestrator) solve(mode allocator.Mode) *allocator.Result {
	m := &o.memo
	now := o.loop.Now()
	remembered := m.replayable() && m.mode == mode && now < m.until
	if !remembered {
		if len(o.byID) == 0 {
			return nil
		}
		o.refresh()
		m.res = o.prob.Run(mode)
		m.seen, m.mode, m.at = m.epoch, mode, now
		m.until = o.graceEnd()
	}
	if m.solved != nil {
		m.solved(mode, m.res, remembered)
	}
	return m.res
}

// graceEnd returns the first instant after the remembered solve at which a
// server now dead drops out of the problem (refresh's Alive turns false),
// or the end of time. A death bumps nothing — the server stays in the problem
// through its grace — so this is recomputed at every fresh solve and every
// membership change.
func (o *Orchestrator) graceEnd() time.Duration {
	end := time.Duration(math.MaxInt64)
	for _, st := range o.byID {
		if t := st.deadSince + o.cfg.FailoverGrace; !st.alive && t > o.memo.at && t < end {
			end = t
		}
	}
	return end
}

// refresh restates the kept problem where the orchestrator's state changed
// since the last fresh solve, so that it is the problem of the state as it
// now stands. The server list is restated when a writer marked it, or when a
// dead server's grace ran out (nothing writes that; bucketsUntil says when);
// a server whose bucket number changed has its shards restated with the
// marked ones, whose load slot and placement are read afresh.
func (o *Orchestrator) refresh() {
	now := o.loop.Now()
	if o.serversStale || now >= o.bucketsUntil {
		o.serversStale = false
		o.bucketsUntil = math.MaxInt64
		infos := o.infos[:0]
		for _, st := range o.byID {
			// A server dead for less than the failover grace (e.g. a quick
			// in-place restart) keeps its replicas: treating it as dead
			// would make every planned restart churn the whole placement.
			end := st.deadSince + o.cfg.FailoverGrace
			alive := st.alive || now < end
			if !st.alive && alive {
				o.bucketsUntil = min(o.bucketsUntil, end)
			}
			infos = append(infos, allocator.ServerInfo{
				ID:       st.id,
				Domains:  st.domains,
				Capacity: o.cfg.ServerCapacity,
				Alive:    alive,
				Draining: st.draining,
			})
		}
		o.infos = infos
		for i, b := range o.prob.SetServers(infos) {
			if st := o.byID[i]; st.bucket != b {
				st.bucket = b
				for _, e := range st.shards {
					o.markShard(o.shards[e.Shard])
				}
			}
		}
	}
	for _, ss := range o.stale {
		o.prob.SetShard(ss.pos, allocator.ShardSpec{
			ID:               ss.cfg.ID,
			Replicas:         ss.cfg.Replicas,
			Load:             o.shardLoad(ss),
			RegionPreference: ss.cfg.RegionPreference,
			PreferenceWeight: ss.cfg.PreferenceWeight,
		})
		cur := o.cur[:0]
		for _, st := range ss.hosts {
			b := -1
			if st != nil {
				b = st.bucket
			}
			cur = append(cur, b)
		}
		o.cur = cur
		o.prob.SetCurrent(ss.pos, cur)
		ss.stale = false
	}
	o.stale = o.stale[:0]
}
