package orchestrator

import "shardmanager/internal/allocator"

// markShard records that the shard's load or placement may have changed, for
// the next refresh to restate. It is not checked against the value held:
// restating an unchanged shard costs its slot and nothing else, since the kept
// problem compares what it is told.
func (o *Orchestrator) markShard(ss *shardState) {
	if !ss.stale {
		ss.stale = true
		o.stale = append(o.stale, ss)
	}
}

// solve refreshes the kept problem and runs it. An idle control plane asks
// the question it asked one AllocInterval ago, and a problem the refresh
// wrote no differing value into answers with its last run's result, the same
// pointer (allocator.Problem.Run): such a solve costs the refresh and no
// search. It returns nil while no server is known. A result
// must not be modified.
func (o *Orchestrator) solve(mode allocator.Mode) *allocator.Result {
	if len(o.byID) == 0 {
		return nil
	}
	o.refresh()
	res := o.prob.Run(mode)
	if o.solved != nil {
		o.solved(mode, res)
	}
	return res
}

// refresh restates the kept problem so that it is the problem of the
// orchestrator's state as it now stands. The server list is restated every
// time: its liveness is read off the clock, since a dead server drops out of
// the problem when its grace runs out and nothing writes that. The shards
// marked, and every shard on a server whose bucket number changed, have their
// load slot and placement read afresh.
func (o *Orchestrator) refresh() {
	now := o.loop.Now()
	infos := o.infos[:0]
	for _, st := range o.byID {
		infos = append(infos, allocator.ServerInfo{
			ID:       st.id,
			Domains:  st.domains,
			Capacity: o.cfg.ServerCapacity,
			// A server dead for less than the failover grace (e.g. a quick
			// in-place restart) keeps its replicas: treating it as dead
			// would make every planned restart churn the whole placement.
			Alive:    st.alive || now < st.deadSince+o.cfg.FailoverGrace,
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
	for _, ss := range o.stale {
		o.prob.SetLoad(ss.pos, o.shardLoad(ss))
		o.prob.SetPreference(ss.pos, ss.cfg.RegionPreference, ss.cfg.PreferenceWeight)
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
