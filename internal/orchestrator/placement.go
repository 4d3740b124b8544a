package orchestrator

import (
	"cmp"
	"slices"

	"shardmanager/internal/appserver"
	"shardmanager/internal/shard"
)

// The placement — which replicas sit on which server — is kept once: each
// shard's replica list (shardState.replicas), of the type the shard map
// publishes. Three things are derived from it and must never fall out of
// step: every server's index of the shards it holds (serverState.shards, which
// is also what its assignment node should contain, in the node's order: by
// shard name), the list of shards changed since the last publication
// (Orchestrator.changed) and every replica's server (shardState.hosts). The
// four mutators below are the only code that writes a replica list, and each
// brings all three up to date in the same breath; every other function reads.
// They are also all a standby needs to rebuild the placement from the coord
// assignment nodes. The three that change which server holds a replica bump
// the allocation problem's epoch and mark the shard for the refresh
// (memo.go); setRole does neither, since the allocator is told servers, not
// roles.

// addReplica appends a replica of ss on server.
func (o *Orchestrator) addReplica(ss *shardState, server shard.ServerID, role shard.Role) {
	ss.replicas = append(ss.replicas, shard.Assignment{Server: server, Role: role})
	ss.hosts = append(ss.hosts, o.servers[server])
	if len(ss.replicas) == 1 {
		o.placed++
	}
	o.touch()
	o.markShard(ss)
	o.reindex(ss, server)
}

// removeReplica deletes replica i of ss, a second copy of an earlier one
// (sanitizeReplicas), so the list never empties.
func (o *Orchestrator) removeReplica(ss *shardState, i int) {
	server := ss.replicas[i].Server
	ss.replicas = slices.Delete(ss.replicas, i, i+1)
	ss.hosts = slices.Delete(ss.hosts, i, i+1)
	o.touch()
	o.markShard(ss)
	o.reindex(ss, server)
}

// setRole changes the role of replica i of ss.
func (o *Orchestrator) setRole(ss *shardState, i int, role shard.Role) {
	ss.replicas[i].Role = role
	o.reindex(ss, ss.replicas[i].Server)
}

// rehomeReplica moves replica i of ss to another server, keeping its role and
// its place in the list.
func (o *Orchestrator) rehomeReplica(ss *shardState, i int, to shard.ServerID) {
	from := ss.replicas[i].Server
	ss.replicas[i].Server = to
	ss.hosts[i] = o.servers[to]
	o.touch()
	o.markShard(ss)
	o.reindex(ss, from)
	o.reindex(ss, to)
}

// reindex is the mutators' common tail: ss goes on the changed list (once),
// and server's index entry for it is read back from the list just written —
// so a list that names a server twice, which only sanitizeReplicas ever
// sees, still leaves the index right — and its assignment node is stale.
func (o *Orchestrator) reindex(ss *shardState, server shard.ServerID) {
	if !ss.changed {
		ss.changed = true
		o.changed = append(o.changed, ss)
	}
	st := o.servers[server]
	if st == nil {
		return
	}
	at, held := slices.BinarySearchFunc(st.shards, ss.cfg.ID, func(e appserver.AssignEntry, id shard.ID) int {
		return cmp.Compare(e.Shard, id)
	})
	switch i := ss.find(server); {
	case i != -1 && held:
		st.shards[at].Role = ss.replicas[i].Role
	case i != -1:
		st.shards = slices.Insert(st.shards, at, appserver.AssignEntry{Shard: ss.cfg.ID, Role: ss.replicas[i].Role})
	case held:
		st.shards = slices.Delete(st.shards, at, at+1)
	}
	st.nodeStale = true
}

// find returns the index of the shard's replica on server, or -1.
func (ss *shardState) find(server shard.ServerID) int {
	for i, a := range ss.replicas {
		if a.Server == server {
			return i
		}
	}
	return -1
}

// byPos orders shards by configuration index.
func byPos(a, b *shardState) int { return a.pos - b.pos }

// shardsOn returns the shards with a replica on st in configuration order —
// the order to walk them in wherever an RPC is issued, an epoch drawn or an
// event scheduled.
func (o *Orchestrator) shardsOn(st *serverState) []*shardState {
	out := make([]*shardState, 0, len(st.shards))
	for _, e := range st.shards {
		out = append(out, o.shards[e.Shard])
	}
	slices.SortFunc(out, byPos)
	return out
}

// sanitizeReplicas repairs a shard's replica list so the published map always
// satisfies Validate: duplicate servers collapse to the first occurrence
// (preferring the primary) and surplus primaries demote. Repairs are counted
// via orchestrator_publish_rejected_total; they indicate a planning bug
// upstream but must not take the control plane down.
func (o *Orchestrator) sanitizeReplicas(ss *shardState) {
	for i := 0; i < len(ss.replicas); {
		a := ss.replicas[i]
		first := ss.find(a.Server)
		if first == i {
			i++
			continue
		}
		if a.Role == shard.RolePrimary {
			o.setRole(ss, first, shard.RolePrimary)
		}
		o.removeReplica(ss, i)
		o.publishRejected("duplicate_replica")
	}
	primaries := 0
	for i, a := range ss.replicas {
		if a.Role != shard.RolePrimary {
			continue
		}
		primaries++
		if primaries > 1 {
			o.setRole(ss, i, shard.RoleSecondary)
			o.publishRejected("surplus_primary")
		}
	}
}
