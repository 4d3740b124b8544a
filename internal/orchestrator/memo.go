package orchestrator

import (
	"math"
	"time"

	"shardmanager/internal/allocator"
)

// solveMemo remembers the last allocation problem solved and what came of it.
// allocator.Run is a pure function of (Input, Mode) for a fixed policy and
// seed, and an idle control plane asks the question it asked one
// AllocInterval ago; solve answers that from here. Whether the question is
// the same is not found by comparing problems: the orchestrator is the only
// writer of what buildInput reads, and every write that changes an input value
// bumps the epoch (touch; a load report, checked value by value, is not
// checked once the epoch has moved). The one input nothing writes is
// ServerInfo.Alive, which the clock turns false when a dead server's grace
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

// touch records that a value buildInput reads has changed.
func (o *Orchestrator) touch() { o.memo.epoch++ }

// replayable reports whether no input value has changed since the remembered
// solve — so that a write may still need to bump the epoch.
func (m *solveMemo) replayable() bool { return m.res != nil && m.seen == m.epoch }

// solve is alloc.Run on buildInput's problem behind the memo: when no input
// value was written since the last fresh solve, the mode is the same and no
// grace has run out, neither is called and that solve's result comes back. It
// returns nil while no server is known. A result must not be modified.
func (o *Orchestrator) solve(mode allocator.Mode) *allocator.Result {
	m := &o.memo
	now := o.loop.Now()
	remembered := m.replayable() && m.mode == mode && now < m.until
	if !remembered {
		in := o.buildInput()
		if len(in.Servers) == 0 {
			return nil
		}
		m.res = o.alloc.Run(in, mode)
		m.seen, m.mode, m.at = m.epoch, mode, now
		m.until = o.graceEnd()
	}
	if m.solved != nil {
		m.solved(mode, m.res, remembered)
	}
	return m.res
}

// graceEnd returns the first instant after the remembered solve at which a
// server now dead drops out of the problem (buildInput's Alive turns false),
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
