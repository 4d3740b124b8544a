package orchestrator

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"

	"shardmanager/internal/allocator"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// solveMemo remembers the last allocation problem solved and what came of it.
// allocator.Run is a pure function of (Input, Mode) for a fixed policy and
// seed, and an idle control plane asks the question it asked one
// AllocInterval ago; solve answers that from here. The problem is held as an
// encoding rather than as the Input: a few hundred pointer-free kilobytes
// instead of megabytes of live maps.
type solveMemo struct {
	key   problemKey
	res   *allocator.Result // what the allocator made of the problem key encodes; nil: nothing remembered
	names []string          // map-key sorting scratch
	loads []resourceLoad    // the same for a Capacity
	// solved, when set, is told every problem solve was given, the result it
	// returned and whether that result was a remembered one: the seam through
	// which the tests run the allocator fresh beside the memo.
	solved func(in allocator.Input, mode allocator.Mode, res *allocator.Result, remembered bool)
}

// solve is alloc.Run behind the memo. A remembered result comes back without
// its Assignment map — nothing here reads it, and it is most of a Result's
// size — and must not be modified.
func (o *Orchestrator) solve(in allocator.Input, mode allocator.Mode) *allocator.Result {
	m := &o.memo
	remembered := m.rekey(&in, mode) && m.res != nil
	if !remembered {
		m.res = o.alloc.Run(in, mode)
		m.res.Assignment = nil
	}
	if m.solved != nil {
		m.solved(in, mode, m.res, remembered)
	}
	return m.res
}

// problemKey is an encoding of one allocation problem, written over the
// previous problem's and compared with it on the way: while what is written
// equals what was there nothing is copied, and from the first difference on
// the old tail is dropped and the new one appended. One buffer holds the
// remembered problem and serves to encode the next.
type problemKey struct {
	buf  []byte
	n    int  // bytes of the problem being written so far
	same bool // buf[:n] is still what the previous problem had there
}

func (k *problemKey) begin() { k.n, k.same = 0, true }

// end reports whether the problem written is byte for byte the previous one.
func (k *problemKey) end() bool {
	same := k.same && k.n == len(k.buf)
	k.buf = k.buf[:k.n]
	return same
}

// str writes a string with its length.
func (k *problemKey) str(s string) {
	k.uint(uint64(len(s)))
	k.raw(s)
}

func (k *problemKey) uint(v uint64) {
	if v < 0x80 && k.same && k.n < len(k.buf) && k.buf[k.n] == byte(v) {
		k.n++ // the one-byte varint that nearly every length and count is
		return
	}
	var b [binary.MaxVarintLen64]byte
	k.raw(string(b[:binary.PutUvarint(b[:], v)]))
}

func (k *problemKey) float(f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	k.raw(string(b[:]))
}

func (k *problemKey) bool(v bool) {
	if v {
		k.uint(1)
	} else {
		k.uint(0)
	}
}

// raw writes bytes with no length prefix.
func (k *problemKey) raw(p string) {
	if k.same && len(k.buf)-k.n >= len(p) && string(k.buf[k.n:k.n+len(p)]) == p {
		k.n += len(p)
		return
	}
	k.buf, k.same = append(k.buf[:k.n], p...), false
	k.n = len(k.buf)
}

// rekey makes m.key the encoding of (mode, in) and reports whether it already
// was. Two problems share an encoding only if they are equal by value in
// every field of Input, ServerInfo and ShardSpec: strings and lists carry
// their length, maps are written in key order, floats bit for bit.
func (m *solveMemo) rekey(in *allocator.Input, mode allocator.Mode) bool {
	k := &m.key
	k.begin()
	k.uint(uint64(mode))
	k.uint(uint64(len(in.Servers)))
	for i := range in.Servers {
		sv := &in.Servers[i]
		k.str(string(sv.ID))
		m.names = m.names[:0]
		for level := range sv.Domains {
			m.names = append(m.names, level)
		}
		slices.Sort(m.names)
		k.uint(uint64(len(m.names)))
		for _, level := range m.names {
			k.str(level)
			k.str(sv.Domains[level])
		}
		m.capacity(sv.Capacity)
		k.bool(sv.Alive)
		k.bool(sv.Draining)
	}
	k.uint(uint64(len(in.Shards)))
	// Each shard's Current entry is written with its spec. That covers the
	// whole map when the specs' IDs are strictly ascending (so none repeats)
	// and every key was met; otherwise the map is written again on its own,
	// in key order.
	ascending, met := true, 0
	for i := range in.Shards {
		sp := &in.Shards[i]
		if i > 0 && sp.ID <= in.Shards[i-1].ID {
			ascending = false
		}
		k.str(string(sp.ID))
		k.uint(uint64(int64(sp.Replicas)))
		m.capacity(sp.Load)
		k.str(string(sp.RegionPreference))
		k.float(sp.PreferenceWeight)
		cur, ok := in.Current[sp.ID]
		if ok {
			met++
		}
		m.servers(cur)
	}
	whole := ascending && met == len(in.Current)
	k.bool(whole)
	if !whole {
		m.names = m.names[:0]
		for id := range in.Current {
			m.names = append(m.names, string(id))
		}
		slices.Sort(m.names)
		k.uint(uint64(len(m.names)))
		for _, id := range m.names {
			k.str(id)
			m.servers(in.Current[shard.ID(id)])
		}
	}
	return k.end()
}

func (m *solveMemo) servers(ids []shard.ServerID) {
	m.key.uint(uint64(len(ids)))
	for _, id := range ids {
		m.key.str(string(id))
	}
}

func (m *solveMemo) capacity(c topology.Capacity) {
	m.loads = m.loads[:0]
	for res, v := range c {
		m.loads = append(m.loads, resourceLoad{res, v})
	}
	slices.SortFunc(m.loads, func(a, b resourceLoad) int { return strings.Compare(string(a.res), string(b.res)) })
	m.key.uint(uint64(len(m.loads)))
	for _, l := range m.loads {
		m.key.str(string(l.res))
		m.key.float(l.v)
	}
}

type resourceLoad struct {
	res topology.Resource
	v   float64
}
