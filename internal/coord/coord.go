// Package coord implements a ZooKeeper-like coordination store.
//
// Shard Manager uses ZooKeeper for three things (§3.2): storing the
// orchestrator's persistent state, letting application servers read their
// shard assignment at start-up without the SM control plane, and detecting
// application-server failures by watching ephemeral nodes created by the SM
// library. This package provides the needed primitives: a hierarchical
// namespace of versioned znodes, sessions with session-bound ephemeral
// nodes, and watches on a node's children.
//
// The store is an in-process substitute for a real ZooKeeper ensemble. It is
// safe for concurrent use; watch callbacks are invoked outside the store's
// lock, after the mutation that triggered them committed.
package coord

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Errors returned by store operations.
var (
	ErrNoNode        = errors.New("coord: node does not exist")
	ErrNodeExists    = errors.New("coord: node already exists")
	ErrBadVersion    = errors.New("coord: version mismatch")
	ErrNotEmpty      = errors.New("coord: node has children")
	ErrSessionClosed = errors.New("coord: session closed")
	ErrBadPath       = errors.New("coord: malformed path")
	ErrUnavailable   = errors.New("coord: service unavailable")
)

// EventType describes what changed at a watched path.
type EventType int

// Watch event types.
const (
	EventDeleted EventType = iota
	EventChildrenChanged
)

// String returns the event-type name.
func (e EventType) String() string {
	switch e {
	case EventDeleted:
		return "deleted"
	case EventChildrenChanged:
		return "children-changed"
	default:
		return fmt.Sprintf("event(%d)", int(e))
	}
}

// Event is delivered to watchers.
type Event struct {
	Type EventType
	Path string
}

// Watcher receives watch events. Like ZooKeeper watches, a watcher fires
// once and must be re-registered; this forces callers to re-read state and
// keeps the notify path simple.
type Watcher func(Event)

// Stat carries node metadata.
type Stat struct {
	Version   int
	Ephemeral bool
}

type node struct {
	data     []byte
	version  int
	ephem    bool
	owner    *Session // non-nil for ephemeral nodes
	children map[string]*node
	// one-shot child watches
	childWatch []Watcher
}

func newNode() *node {
	return &node{children: make(map[string]*node)}
}

// Store is the coordination service. Create one with NewStore.
type Store struct {
	mu   sync.Mutex
	root *node
	// epoch is the store-wide fencing counter. Every session and every
	// orchestrator publish draws a fresh value, so "newer" is totally
	// ordered across sessions, role grants, and shard-map generations —
	// the fencing-token construction from the MIT 6.824 Spanner lecture's
	// "two servers both believe they own a shard" discussion.
	epoch int64
	// writeGate, if set, is consulted before every mutating client
	// operation (Create/Set/Delete) and may veto it, typically with
	// ErrUnavailable. Fault injection uses it to model znode-write stalls;
	// server-side cleanup (ephemeral deletion on session expiry) is not
	// gated, matching a ZooKeeper ensemble that can still expire sessions
	// while rejecting client writes.
	writeGate func(op, path string) error
	// writeObs observe every committed mutation (op "create", "set",
	// "delete", or "session-expire") after it applied. They fire outside
	// the store's lock and must draw no randomness; the runtime auditor
	// uses them for ownership timelines.
	writeObs []func(op, path string)
}

// AddWriteObserver registers an observer of committed mutations
// (append-only; observers cannot be removed).
func (s *Store) AddWriteObserver(fn func(op, path string)) {
	if fn == nil {
		panic("coord: AddWriteObserver(nil)")
	}
	s.mu.Lock()
	s.writeObs = append(s.writeObs, fn)
	s.mu.Unlock()
}

// notifyWrite reports one committed mutation to the write observers.
func (s *Store) notifyWrite(op, path string) {
	s.mu.Lock()
	obs := s.writeObs
	s.mu.Unlock()
	for _, fn := range obs {
		fn(op, path)
	}
}

// SetWriteGate installs (or, with nil, removes) the write gate.
func (s *Store) SetWriteGate(gate func(op, path string) error) {
	s.mu.Lock()
	s.writeGate = gate
	s.mu.Unlock()
}

// gated returns the gate's verdict for one mutating op (nil when open).
func (s *Store) gated(op, path string) error {
	s.mu.Lock()
	g := s.writeGate
	s.mu.Unlock()
	if g == nil {
		return nil
	}
	return g(op, path)
}

// NewStore returns an empty store containing only the root node "/".
func NewStore() *Store {
	return &Store{root: newNode()}
}

// NextEpoch atomically increments and returns the store's fencing epoch.
// Values are strictly positive and never reused.
func (s *Store) NextEpoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	return s.epoch
}

// Epoch returns the last epoch handed out by NextEpoch (0 before any).
func (s *Store) Epoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Session groups ephemeral nodes; closing or expiring the session deletes
// them, which is how the orchestrator detects server failures.
type Session struct {
	store    *Store
	gen      int64
	closed   bool
	ephem    map[string]struct{}
	onExpire []func()
}

// NewSession opens a session.
func (s *Store) NewSession() *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	return &Session{store: s, gen: s.epoch, ephem: make(map[string]struct{})}
}

// Generation returns the fencing epoch assigned when the session was
// created. Any epoch drawn after this session opened — in particular the
// generation of any shard-map publish or role grant issued after the
// session expired — is strictly greater, so a server that fences itself at
// its session generation can never outrank a post-expiry grant.
func (sess *Session) Generation() int64 { return sess.gen }

// OnExpire registers fn to run when the session closes or expires. Hooks
// fire outside the store's lock, after the session's ephemeral nodes are
// deleted and their watches dispatched; they must draw no randomness. The
// SM library uses this as the lease-loss signal that triggers self-fencing.
func (sess *Session) OnExpire(fn func()) {
	if fn == nil {
		panic("coord: OnExpire(nil)")
	}
	sess.store.mu.Lock()
	if sess.closed {
		sess.store.mu.Unlock()
		fn()
		return
	}
	sess.onExpire = append(sess.onExpire, fn)
	sess.store.mu.Unlock()
}

// Closed reports whether the session has been closed or expired.
func (sess *Session) Closed() bool {
	sess.store.mu.Lock()
	defer sess.store.mu.Unlock()
	return sess.closed
}

// Expire ends the session, deleting its ephemeral nodes and firing their
// watches. Expiring twice is a no-op.
func (sess *Session) Expire() { sess.store.expire(sess) }

func (s *Store) expire(sess *Session) {
	s.mu.Lock()
	if sess.closed {
		s.mu.Unlock()
		return
	}
	sess.closed = true
	paths := make([]string, 0, len(sess.ephem))
	for p := range sess.ephem {
		paths = append(paths, p)
	}
	// Delete deepest-first so parents empty out correctly.
	sort.Slice(paths, func(i, j int) bool { return len(paths[i]) > len(paths[j]) })
	var fire []pendingEvent
	for _, p := range paths {
		fire = append(fire, s.deleteLocked(p)...)
	}
	hooks := sess.onExpire
	sess.onExpire = nil
	s.mu.Unlock()
	s.dispatch(fire)
	for _, p := range paths {
		s.notifyWrite("session-expire", p)
	}
	for _, fn := range hooks {
		fn()
	}
}

type pendingEvent struct {
	watchers []Watcher
	ev       Event
}

// dispatch fires watch callbacks outside the store's lock.
func (s *Store) dispatch(pend []pendingEvent) {
	for _, p := range pend {
		for _, w := range p.watchers {
			w(p.ev)
		}
	}
}

// checkPath validates an absolute path like "/a/b/c": "/" or a slash
// followed by non-empty names separated by single slashes.
func checkPath(path string) error {
	if path == "/" {
		return nil
	}
	if !strings.HasPrefix(path, "/") || strings.HasSuffix(path, "/") || strings.Contains(path, "//") {
		return fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	return nil
}

// splitPath validates and splits an absolute path like "/a/b/c".
func splitPath(path string) ([]string, error) {
	if err := checkPath(path); err != nil || path == "/" {
		return nil, err
	}
	return strings.Split(path[1:], "/"), nil
}

// lookup finds the node at path. It validates the whole path before walking
// it, so a malformed path is ErrBadPath even where a prefix is missing, and
// it allocates nothing unless it fails.
func (s *Store) lookup(path string) (*node, error) {
	if err := checkPath(path); err != nil {
		return nil, err
	}
	n := s.root
	for rest := path[1:]; rest != ""; {
		var name string
		name, rest, _ = strings.Cut(rest, "/")
		if n = n.children[name]; n == nil {
			return nil, fmt.Errorf("%w: %q", ErrNoNode, path)
		}
	}
	return n, nil
}

func parentPath(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// Create makes a new node at path with data. Parent must exist. If sess is
// non-nil the node is ephemeral and bound to the session.
func (s *Store) Create(path string, data []byte, sess *Session) error {
	if err := s.gated("create", path); err != nil {
		return err
	}
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: cannot create root", ErrNodeExists)
	}
	s.mu.Lock()
	if sess != nil && sess.closed {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	parent := s.root
	for _, p := range parts[:len(parts)-1] {
		child, ok := parent.children[p]
		if !ok {
			s.mu.Unlock()
			return fmt.Errorf("%w: parent of %q", ErrNoNode, path)
		}
		parent = child
	}
	name := parts[len(parts)-1]
	if _, dup := parent.children[name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNodeExists, path)
	}
	n := newNode()
	n.data = append([]byte(nil), data...)
	if sess != nil {
		n.ephem = true
		n.owner = sess
		sess.ephem[path] = struct{}{}
	}
	parent.children[name] = n
	var fire []pendingEvent
	if len(parent.childWatch) > 0 {
		fire = append(fire, pendingEvent{parent.childWatch, Event{EventChildrenChanged, parentPath(path)}})
		parent.childWatch = nil
	}
	s.mu.Unlock()
	s.dispatch(fire)
	s.notifyWrite("create", path)
	return nil
}

// CreateAll creates any missing intermediate nodes (persistent, empty) and
// then the final node with data.
func (s *Store) CreateAll(path string, data []byte, sess *Session) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	prefix := ""
	for _, p := range parts[:max(0, len(parts)-1)] {
		prefix += "/" + p
		if err := s.Create(prefix, nil, nil); err != nil && !errors.Is(err, ErrNodeExists) {
			return err
		}
	}
	return s.Create(path, data, sess)
}

// Get returns the data and stat at path.
func (s *Store) Get(path string) ([]byte, Stat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookup(path)
	if err != nil {
		return nil, Stat{}, err
	}
	return append([]byte(nil), n.data...), statOf(n), nil
}

func statOf(n *node) Stat {
	return Stat{Version: n.version, Ephemeral: n.ephem}
}

// Set replaces the data at path. If version >= 0 it must match the node's
// current version (compare-and-swap); pass -1 to overwrite unconditionally.
// The data is copied into the node's own bytes, so the caller may reuse its
// buffer, and a write no longer than the node's largest earlier one
// allocates nothing.
func (s *Store) Set(path string, data []byte, version int) (Stat, error) {
	if err := s.gated("set", path); err != nil {
		return Stat{}, err
	}
	s.mu.Lock()
	n, err := s.lookup(path)
	if err != nil {
		s.mu.Unlock()
		return Stat{}, err
	}
	if version >= 0 && version != n.version {
		s.mu.Unlock()
		return Stat{}, fmt.Errorf("%w: %q have %d want %d", ErrBadVersion, path, n.version, version)
	}
	n.data = append(n.data[:0], data...) // Get copies out, so no caller holds these bytes
	n.version++
	st := statOf(n)
	s.mu.Unlock()
	s.notifyWrite("set", path)
	return st, nil
}

// Delete removes the node at path. If version >= 0 it must match. Nodes with
// children cannot be deleted.
func (s *Store) Delete(path string, version int) error {
	if err := s.gated("delete", path); err != nil {
		return err
	}
	s.mu.Lock()
	n, err := s.lookup(path)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if version >= 0 && version != n.version {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q have %d want %d", ErrBadVersion, path, n.version, version)
	}
	if len(n.children) > 0 {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotEmpty, path)
	}
	fire := s.deleteLocked(path)
	s.mu.Unlock()
	s.dispatch(fire)
	s.notifyWrite("delete", path)
	return nil
}

// deleteLocked removes path (which must exist and be childless) and returns
// the watch events to dispatch. Caller holds the lock.
func (s *Store) deleteLocked(path string) []pendingEvent {
	parts, err := splitPath(path)
	if err != nil || len(parts) == 0 {
		return nil
	}
	parent := s.root
	for _, p := range parts[:len(parts)-1] {
		child, ok := parent.children[p]
		if !ok {
			return nil
		}
		parent = child
	}
	name := parts[len(parts)-1]
	n, ok := parent.children[name]
	if !ok {
		return nil
	}
	delete(parent.children, name)
	if n.owner != nil {
		delete(n.owner.ephem, path)
	}
	var fire []pendingEvent
	if len(n.childWatch) > 0 {
		fire = append(fire, pendingEvent{n.childWatch, Event{EventDeleted, path}})
	}
	if len(parent.childWatch) > 0 {
		fire = append(fire, pendingEvent{parent.childWatch, Event{EventChildrenChanged, parentPath(path)}})
		parent.childWatch = nil
	}
	return fire
}

// Exists reports whether a node exists at path (false on malformed paths).
func (s *Store) Exists(path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.lookup(path)
	return err == nil
}

// Children returns the sorted child names of path.
func (s *Store) Children(path string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookup(path)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// WatchChildren registers a one-shot watcher for child creation/deletion
// under path (or deletion of path itself). The node must exist.
func (s *Store) WatchChildren(path string, w Watcher) error {
	if w == nil {
		return errors.New("coord: nil watcher")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookup(path)
	if err != nil {
		return err
	}
	n.childWatch = append(n.childWatch, w)
	return nil
}
