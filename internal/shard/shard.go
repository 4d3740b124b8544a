// Package shard defines the core data model shared across the Shard Manager
// reproduction: applications, shards, replica roles, shard-to-server
// assignments, versioned shard maps, and the app-defined keyspace.
//
// SM uses the app-key, app-sharding abstraction (§3.1): the application
// decides how its key space divides into shards (possibly unevenly, e.g.
// S0:[1,9], S1:[10,99], S2:[100,100000]) and SM never splits or merges
// shards. A Keyspace captures that app-owned mapping; both application
// clients and servers share it.
package shard

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// AppID names a sharded application.
type AppID string

// ID names one shard of an application.
type ID string

// ServerID names an application server (one container). It equals the
// cluster manager's container ID textually.
type ServerID string

// Role is a replica's role.
type Role int

// Replica roles (§2.2.3).
const (
	RolePrimary Role = iota
	RoleSecondary
)

// String returns "primary" or "secondary".
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleSecondary:
		return "secondary"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// ReplicationStrategy classifies an application per §2.2.3.
type ReplicationStrategy int

// Replication strategies.
const (
	// PrimaryOnly: each shard has a single primary replica; SM guarantees
	// no two servers serve the same shard at once.
	PrimaryOnly ReplicationStrategy = iota
	// SecondaryOnly: each shard has multiple equal replicas.
	SecondaryOnly
	// PrimarySecondary: one SM-elected primary plus >= 1 secondaries.
	PrimarySecondary
)

// String returns the strategy name.
func (s ReplicationStrategy) String() string {
	switch s {
	case PrimaryOnly:
		return "primary-only"
	case SecondaryOnly:
		return "secondary-only"
	case PrimarySecondary:
		return "primary-secondary"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Assignment is one replica's placement: which server and in which role.
type Assignment struct {
	Server ServerID
	Role   Role
}

// Map is a versioned shard-to-server assignment for one application.
// Versions increase monotonically with every publication; the service
// discovery system disseminates maps to clients with a delay, so clients may
// briefly act on stale versions (which is exactly what the graceful
// migration protocol of §4.3 must tolerate).
type Map struct {
	App     AppID
	Version int64
	// Gen is the coordination epoch (fencing token) stamped at publish
	// time. Generations are drawn from the coord store's global epoch
	// counter, so they are totally ordered with session generations and
	// role grants: a consumer may safely discard any map whose Gen is
	// behind one it has already applied, and a server fenced at session
	// generation g trusts only grants with Gen > g.
	Gen     int64
	Entries map[ID][]Assignment
}

// Clone returns a deep copy.
func (m *Map) Clone() *Map {
	out := &Map{App: m.App, Version: m.Version, Gen: m.Gen, Entries: make(map[ID][]Assignment, len(m.Entries))}
	for s, as := range m.Entries {
		out.Entries[s] = append([]Assignment(nil), as...)
	}
	return out
}

// Primary returns the server holding the shard's primary replica, if any.
func (m *Map) Primary(s ID) (ServerID, bool) {
	for _, a := range m.Entries[s] {
		if a.Role == RolePrimary {
			return a.Server, true
		}
	}
	return "", false
}

// Replicas returns all assignments of a shard (nil if unknown).
func (m *Map) Replicas(s ID) []Assignment { return m.Entries[s] }

// Servers returns the sorted distinct servers appearing in the map.
func (m *Map) Servers() []ServerID {
	set := make(map[ServerID]struct{})
	for _, as := range m.Entries {
		for _, a := range as {
			set[a.Server] = struct{}{}
		}
	}
	out := make([]ServerID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks every entry with ValidateEntry.
func (m *Map) Validate() error {
	for s, as := range m.Entries {
		if err := ValidateEntry(s, as); err != nil {
			return err
		}
	}
	return nil
}

// ValidateEntry checks one shard's assignment list against the map
// invariants: at most one primary and no server listed twice. Entries are
// independent, so a publisher that validates each entry it changes keeps the
// whole map valid.
func ValidateEntry(s ID, as []Assignment) error {
	primaries := 0
	seen := make(map[ServerID]struct{}, len(as))
	for _, a := range as {
		if a.Role == RolePrimary {
			primaries++
		}
		if _, dup := seen[a.Server]; dup {
			return fmt.Errorf("shard %s: duplicate replica on server %s", s, a.Server)
		}
		seen[a.Server] = struct{}{}
	}
	if primaries > 1 {
		return fmt.Errorf("shard %s: %d primaries", s, primaries)
	}
	return nil
}

// Keyspace is the application-owned mapping from keys to shards: an ordered
// list of non-overlapping ranges. Because SM uses app-sharding, the
// application constructs the Keyspace and both clients and servers consult
// it; SM itself never changes it.
type Keyspace struct {
	shards []ID
	starts []string // starts[i] is the inclusive start key of shards[i]
	// levels is Locate's index. levels[0][i] packs the first 8 bytes of
	// starts[i], big-endian and zero-padded, so that Locate compares machine
	// words side by side instead of chasing 3,000 string headers across the
	// heap; levels[l+1] holds every 16th entry of levels[l], and the last
	// level has at most 16. A level's length is its entry count, and its
	// capacity runs on to a whole block of 16, padded with all-ones, so that
	// every block reads as one array. Packed order agrees with string order
	// wherever the packed values differ; on a tie (keys equal in their first
	// 8 bytes, or differing only in trailing zero bytes) the strings decide.
	levels [][]uint64
}

// blockLen is how many entries of a level Locate counts at a time, and a
// level's entry i leads the block of the level below that starts at entry
// i<<blockBits.
const (
	blockBits = 4
	blockLen  = 1 << blockBits
)

// NewKeyspace builds a keyspace from ordered (shard, startKey) boundaries.
// The first start key must be "" (covers the smallest keys) and starts must
// be strictly increasing.
func NewKeyspace(shards []ID, starts []string) (*Keyspace, error) {
	if len(shards) == 0 || len(shards) != len(starts) {
		return nil, fmt.Errorf("shard: keyspace needs equal non-empty shards/starts, got %d/%d", len(shards), len(starts))
	}
	if starts[0] != "" {
		return nil, fmt.Errorf("shard: first start key must be empty, got %q", starts[0])
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			return nil, fmt.Errorf("shard: start keys not increasing at %d (%q <= %q)", i, starts[i], starts[i-1])
		}
	}
	ks := &Keyspace{
		shards: append([]ID(nil), shards...),
		starts: append([]string(nil), starts...),
	}
	lv := padded(len(starts))
	for i, s := range starts {
		lv[i] = packPrefix(s)
	}
	ks.levels = append(ks.levels, lv)
	for len(lv) > blockLen {
		up := padded((len(lv) + blockLen - 1) / blockLen)
		for i := range up {
			up[i] = lv[i*blockLen]
		}
		ks.levels = append(ks.levels, up)
		lv = up
	}
	return ks, nil
}

// padded returns a level of n entries whose capacity, up to the next whole
// block, is filled with all-ones.
func padded(n int) []uint64 {
	lv := make([]uint64, (n+blockLen-1)/blockLen*blockLen)
	for i := n; i < len(lv); i++ {
		lv[i] = ^uint64(0)
	}
	return lv[:n]
}

// packPrefix returns the first 8 bytes of s as a big-endian integer, padded
// with zero bytes when s is shorter.
func packPrefix(s string) uint64 {
	if len(s) >= 8 { // one load and a byte swap
		return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
			uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
	}
	var p uint64
	for i := 0; i < 8; i++ {
		p <<= 8
		if i < len(s) {
			p |= uint64(s[i])
		}
	}
	return p
}

// Locate returns the position, in Shards order, of the shard owning key. A
// position is a stable handle: a keyspace never changes, so whoever needs
// something per shard can keep it in a slice indexed by position and never
// look the shard's name up again.
//
// It searches for the last start <= key from the top level down: at each
// level, i is the last entry <= key, and the next level's block under it
// holds the entries from i's up to (not including) i+1's. A block's entries
// are counted against the key's packed prefix without a branch; the count is
// clamped to the level's length, since an all-ones prefix counts the padding,
// and a tie on the prefix steps back while the start string is above the
// key, never past the block's first entry, which is <= key.
func (k *Keyspace) Locate(key string) int {
	p := packPrefix(key)
	i := 0
	for l := len(k.levels) - 1; l >= 0; l-- {
		lv := k.levels[l]
		j := i << blockBits
		i = min(j+countAtMost((*[blockLen]uint64)(lv[j:j+blockLen]), p)-1, len(lv)-1)
		for lv[i] == p && k.starts[i<<(blockBits*l)] > key {
			i--
		}
	}
	return i
}

// countAtMost returns how many of the block's entries are <= p: 16 less the
// borrows of p minus each entry, written out and summed as a tree rather than
// in one chain of adds, which measured faster than a loop.
func countAtMost(b *[blockLen]uint64, p uint64) int {
	_, a0 := bits.Sub64(p, b[0], 0)
	_, a1 := bits.Sub64(p, b[1], 0)
	_, a2 := bits.Sub64(p, b[2], 0)
	_, a3 := bits.Sub64(p, b[3], 0)
	_, a4 := bits.Sub64(p, b[4], 0)
	_, a5 := bits.Sub64(p, b[5], 0)
	_, a6 := bits.Sub64(p, b[6], 0)
	_, a7 := bits.Sub64(p, b[7], 0)
	_, a8 := bits.Sub64(p, b[8], 0)
	_, a9 := bits.Sub64(p, b[9], 0)
	_, a10 := bits.Sub64(p, b[10], 0)
	_, a11 := bits.Sub64(p, b[11], 0)
	_, a12 := bits.Sub64(p, b[12], 0)
	_, a13 := bits.Sub64(p, b[13], 0)
	_, a14 := bits.Sub64(p, b[14], 0)
	_, a15 := bits.Sub64(p, b[15], 0)
	above := ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)) + ((a8 + a9) + (a10 + a11)) + ((a12 + a13) + (a14 + a15))
	return blockLen - int(above)
}

// At returns the shard at position pos.
func (k *Keyspace) At(pos int) ID { return k.shards[pos] }

// Shards returns the shard IDs in order.
func (k *Keyspace) Shards() []ID {
	out := make([]ID, len(k.shards))
	copy(out, k.shards)
	return out
}

// Len returns the number of shards.
func (k *Keyspace) Len() int { return len(k.shards) }

// FormatAssignments renders assignments compactly for logs and smctl.
func FormatAssignments(as []Assignment) string {
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = fmt.Sprintf("%s(%s)", a.Server, a.Role)
	}
	return strings.Join(parts, ",")
}
