// Package appserver implements the application-server side of Shard
// Manager: the SM library that is linked into application servers (§3.2)
// and the simple programming model of §3.3 — add_shard / drop_shard /
// change_role / prepare_add_shard / prepare_drop_shard — plus the
// request-forwarding machinery that makes graceful primary-replica
// migration drop zero requests (§4.3).
//
// A Host bridges the cluster manager and the application: whenever a
// container of the application's job starts, the Host spins up a Server
// (registering it on the network and creating its ephemeral liveness node
// in the coordination store); when the container stops, the Server dies
// with it. The orchestrator discovers server liveness through those
// ephemeral nodes, exactly as SM does with ZooKeeper.
package appserver

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"shardmanager/internal/cluster"
	"shardmanager/internal/coord"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
)

// Application is the programming model implemented by application owners
// (Fig 11). The runtime invokes these callbacks; the application manages
// its own per-shard state.
type Application interface {
	// AddShard makes the server officially own the shard in the given
	// role and accept requests for it. The requests carry the shard's
	// number (Request.ShardNum), which the server's ShardNum gives for s.
	AddShard(s shard.ID, role shard.Role)
	// DropShard releases the shard.
	DropShard(s shard.ID)
	// ChangeRole switches the shard's replica between primary and
	// secondary (demotion ahead of maintenance, promotion on failover).
	ChangeRole(s shard.ID, from, to shard.Role)
	// HandleRequest processes one client request for an owned shard and
	// returns the response payload or an error. req is valid only for the
	// duration of the call: the sender reuses it for its next request, so an
	// application that needs a field later copies it.
	HandleRequest(req *Request) (any, error)
}

// LoadReporter is optionally implemented by applications that report
// per-shard load for load balancing (§2.2.4). Servers without it report
// shard count only. ShardLoad writes the shard's load into into, a map the
// server owns and has cleared, and keeps no reference to it: the values of
// the metrics the orchestrator balances on are copied out as the report is
// made, as if they had crossed the network, so nothing the application does
// afterwards reaches what the orchestrator holds. A server asks for a
// replica's load when the replica is new and after that only once its shard
// is marked (Server.LoadChanged): an application whose ShardLoad can change
// must mark the shard whenever it may have, or the orchestrator keeps the old
// value. A constant load needs no mark.
type LoadReporter interface {
	ShardLoad(s shard.ID, into topology.Capacity)
}

// Request is one client request routed to a server.
type Request struct {
	Shard shard.ID
	// ShardNum is Shard's number in the serving Directory (Directory.ShardNum),
	// by which a server finds its replica and an application the shard's
	// state. A sender that has resolved it sets it; Serve resolves it from
	// Shard when it is 0.
	ShardNum ShardNum
	Key      string
	// Write marks primary-related requests that only the primary may
	// handle.
	Write bool
	// Forwarded marks requests relayed from the old primary during
	// migration (§4.3 step 1).
	Forwarded bool
	// Op and Payload carry application-specific data.
	Op      string
	Payload any
	// TraceSpan is the client request span this RPC belongs to (0 when
	// tracing is disabled); servers attach forwarding events to it.
	TraceSpan trace.SpanID
}

// Response is the outcome of one request.
type Response struct {
	OK      bool
	Err     string
	Payload any
	// Server that finally handled (or rejected) the request.
	Server shard.ServerID
	// Hops counts forwarding hops beyond the first delivery.
	Hops int
}

// Phase is the runtime state of one shard replica on one server. It is
// exported so observers (the runtime auditor) can reason about the §4.3
// protocol steps a replica is in.
type Phase uint8

// Replica phases, in rough lifecycle order.
const (
	// PhaseNone: zero value; a replica in the map never keeps it.
	PhaseNone Phase = iota
	// PhaseLoading: the replica is loading shard state (LoadTime) and
	// cannot serve yet.
	PhaseLoading
	// PhasePreparingAdd: loaded and ready to take over; serves only
	// forwarded requests.
	PhasePreparingAdd
	// PhaseActive: owns the shard; serves matching requests.
	PhaseActive
	// PhaseForwarding: handing off; forwards requests to the new owner.
	PhaseForwarding
)

// String returns the phase name used in reports and timelines.
func (p Phase) String() string {
	switch p {
	case PhaseNone:
		return "none"
	case PhaseLoading:
		return "loading"
	case PhasePreparingAdd:
		return "preparing"
	case PhaseActive:
		return "active"
	case PhaseForwarding:
		return "forwarding"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// holder is one server's replica of one shard, an entry in the directory's
// list of the shard's replicas (Directory.holders). A server finds its replica
// by scanning that short list for itself, and the fields a request reads are
// here, by value, so that serving touches the replica's record only to
// forward. The entry is the one copy of them.
type holder struct {
	srv   *Server
	r     *replica
	role  shard.Role
	phase Phase
	// unconfirmed marks a primary restored from the persisted assignment
	// at start-up: that snapshot may be stale (assignment writes are
	// skipped while the coordination store is unavailable), so the replica
	// rejects writes until an authoritative orchestrator grant or sync
	// confirms the role. Reads still serve — the data is no worse than a
	// secondary's.
	unconfirmed bool
}

// replica is the rest of a replica's state: what a request does not read.
type replica struct {
	forwardTo shard.ServerID
	// pendingActive marks a replica that must activate as soon as its
	// state load completes (AddShard arrived during/starting the load).
	pendingActive bool
	// num is the shard the record holds.
	num ShardNum
	// reported is the shard's load generation (Directory.loadGens) at this
	// replica's last load report; 0 until the first.
	reported uint64
	// granted is the fencing generation of the last grant that set the
	// replica up (add, prepare_add, change_role, resume or sync): a sync
	// older than it leaves the replica alone.
	granted int64
}

// tombstoneTimer is one pending tombstone expiry, the argument of a post whose
// callback the server bound once (Server.expired): shard num's tombstone
// forwarding to to. The records are the server's, reused once they fire.
type tombstoneTimer struct {
	num ShardNum
	to  shard.ServerID
}

// tombstoneTTL is how long a server keeps forwarding requests for a shard
// after drop_shard; §4.3 step 5 says the old primary "keeps forwarding
// client requests ... and drops its replica when no more requests arrive".
const tombstoneTTL = 30 * time.Second

// Kernel-profiler attribution labels for server-side timers.
var (
	lbShardLoad        = sim.LabelFor("appserver", "shard_load")
	lbTombstoneGC      = sim.LabelFor("appserver", "tombstone_gc")
	lbServeDelay       = sim.LabelFor("appserver", "serve_delay")
	lbLivenessRetry    = sim.LabelFor("appserver", "liveness_retry")
	lbSessionReconnect = sim.LabelFor("appserver", "session_reconnect")
	lbFence            = sim.LabelFor("appserver", "fence")
)

// FenceDelay is how long after losing its coordination session the SM
// library takes to notice and self-fence (the client-side session-timeout
// detection). It is below the orchestrator's promote hold — which does not
// compile otherwise — so a false-dead server stops serving its primaries
// before a replacement can be promoted (§4.3 safety).
const FenceDelay = 2 * time.Second

// Server is one application server instance (the SM library + the app).
type Server struct {
	ID     shard.ServerID
	App    shard.AppID
	Region topology.RegionID

	// LoadTime is how long a newly assigned replica takes to load shard
	// state before it can serve (0 = instant). Graceful migration hides
	// it — the new primary loads during prepare_add_shard while the old
	// one keeps serving; without graceful migration the shard is simply
	// down for this long on every move (the Fig 17 gap).
	LoadTime time.Duration

	loop *sim.Loop
	net  *rpcnet.Network
	dir  *Directory
	app  Application
	// reporter is app as a LoadReporter, nil if it is not one: asserted once
	// here, because an interface assertion fills its call site's cache at
	// random (about 1 miss in 1024), and that allocation must not land in a
	// load report.
	reporter LoadReporter

	// serveDelay stalls every request by this much before processing — a
	// gray failure: the process is alive (liveness node intact, orchestrator
	// sees it healthy) but slow. Set by fault injection via SetServeDelay.
	// stalled counts the requests it holds, which are served when their stall
	// ends even if the server has left the directory (removed) meanwhile.
	serveDelay time.Duration
	stalled    int
	removed    bool

	// held lists the server's replicas: the walks read it, and a request
	// finds its replica in the directory's list for the shard instead
	// (holding). Anything that walks held sorts by the shard's name first
	// where order matters.
	held []*replica
	// tombstones is keyed by the shard's number in dir.
	tombstones map[ShardNum]shard.ServerID
	// dropped[num] is the granted generation of shard num's replica when it
	// was last dropped, so an older sync does not add it back; an add
	// forgets it.
	dropped map[ShardNum]int64
	// asked is the map LoadReport hands the application for each shard's
	// load, cleared before every ask: the server's one, made at its first
	// report.
	asked topology.Capacity
	// report and reportVals hold LoadReport's answer, its entries and their
	// values, until the next report. When a report needs more room, both are
	// remade for every replica the server holds, the most a report can carry,
	// and at least twice their old room, so a server whose replica count keeps
	// setting new highs remakes them a logarithmic number of times.
	report     []LoadEntry
	reportVals []float64

	// free holds the replica records the server released, for newReplica,
	// and tombs the tombstone timers that fired. loaded and expired are the
	// callbacks of a load's timer, whose argument is the replica, and of a
	// tombstone's, bound once.
	free            []*replica
	tombs           []*tombstoneTimer
	loaded, expired func(any)

	// fenced marks lost-lease state: the server's coordination session
	// expired and no newer-generation sync has arrived, so its primary
	// replicas neither serve nor accept writes ("fenced" rejection). The
	// fencing token is fenceGen — the lost session's generation; only a
	// SyncAssignment with a strictly greater generation lifts the fence.
	fenced   bool
	fenceGen int64
}

// requestMetric counts one request outcome in the loop's labeled registry.
// outcome is one of the fixed reject reasons, "ok", or "app_error" — never
// raw application error text, which would be an unbounded label. A nil
// registry is a valid sink, but the variadic label slice escapes into it and
// is built before the call, so this per-request site tests for nil first:
// with metrics off a request must not allocate.
func (s *Server) requestMetric(outcome string) {
	if mr := s.loop.Metrics(); mr != nil {
		mr.Counter("appserver_requests_total",
			"app", string(s.App), "outcome", outcome).Inc()
	}
}

// opMetric counts one SM-library shard operation (add/drop/change_role/
// prepare_add/prepare_drop).
func (s *Server) opMetric(op string) {
	s.loop.Metrics().Counter("appserver_shard_ops_total",
		"app", string(s.App), "op", op).Inc()
}

// replicaMetric moves the live-replica gauge when a replica is created or
// deleted on this server.
func (s *Server) replicaMetric(delta float64) {
	s.loop.Metrics().Gauge("appserver_replicas", "app", string(s.App)).Add(delta)
}

// reject counts and replies with one of the fixed rejection reasons.
func (s *Server) reject(sid shard.ID, reply func(Response), errMsg string) {
	s.requestMetric(errMsg)
	for i := range s.dir.observers {
		if fn := s.dir.observers[i].Rejected; fn != nil {
			fn(s.ID, sid, errMsg)
		}
	}
	reply(Response{Err: errMsg, Server: s.ID})
}

// Observer sees server-side ownership events across every server in a
// Directory. All callbacks fire synchronously inside existing events and
// must draw no randomness, so attaching one (the runtime auditor does)
// cannot perturb a seeded run. Any field may be nil.
type Observer struct {
	// ReplicaChanged fires after any replica state transition (add, prepare
	// add/drop, role change, load completion). peer is the forwarding target
	// while the replica forwards, else "".
	ReplicaChanged func(server shard.ServerID, s shard.ID, role shard.Role, phase Phase, peer shard.ServerID)
	// ReplicaDropped fires when drop_shard removes a replica; tombstone
	// reports whether a forwarding tombstone was left behind.
	ReplicaDropped func(server shard.ServerID, s shard.ID, tombstone bool)
	// Handled fires when a server executes a request locally, with the
	// phase the replica was in at execution time.
	Handled func(server shard.ServerID, s shard.ID, write, forwarded bool, phase Phase)
	// Rejected fires when a server turns a request away with one of the
	// fixed rejection reasons.
	Rejected func(server shard.ServerID, s shard.ID, reason string)
	// Fenced fires when a server enters (fenced=true) or leaves
	// (fenced=false) the lost-lease fenced state, with the generation the
	// transition happened at.
	Fenced func(server shard.ServerID, fenced bool, gen int64)
	// ReplicaConfirmed fires when a replica's confirmed flag changes:
	// false when start-up restores a primary from the (possibly stale)
	// persisted assignment, true when an authoritative grant confirms it.
	ReplicaConfirmed func(server shard.ServerID, s shard.ID, confirmed bool)
	// ServerRemoved fires when a server leaves the directory (its container
	// stopped): every replica it held died with the process.
	ServerRemoved func(server shard.ServerID)
}

// Directory is the in-process name service of one simulation: it resolves
// server IDs to live Server instances for the RPC layer and numbers shard IDs
// for the servers' replica tables. Both resolutions are stable — a server
// ID's Slot and a shard ID's number are made on first sight and never removed
// or changed — so a caller resolves a name once and keeps the result.
type Directory struct {
	slots     map[shard.ServerID]*Slot
	shardNums map[shard.ID]ShardNum
	shardIDs  []shard.ID // shardIDs[n-1] is the shard numbered n
	// holders[n] lists shard n's replicas, one entry per server that holds
	// one (holders[0] stays empty): a server serving a request scans it for
	// itself. A server leaving the directory takes its entries out.
	holders [][]holder
	// loadGens[n-1] counts, from 1, the marks of shard n's load
	// (Server.LoadChanged).
	loadGens []uint64
	// metrics are, per application, the metrics its orchestrator balances
	// on: a load report carries each replica's values in this order.
	metrics map[shard.AppID][]topology.Resource
	// byKeyspace holds, per keyspace a client routes by, the shard number at
	// each position: one table for all clients.
	byKeyspace map[*shard.Keyspace][]ShardNum
	observers  []Observer
}

// Slot is the directory's record of one server ID. The *Server in it changes
// when the server restarts and is nil while no live server has the ID; the
// Slot itself is what a caller keeps.
type Slot struct {
	srv *Server
}

// Server returns the live server in the slot, or nil.
func (sl *Slot) Server() *Server { return sl.srv }

// ShardNum is a shard ID's number in one Directory, from 1. 0 is "not
// resolved", and also what an ID no server was ever given resolves to: no
// table has an entry under it. Numbers follow first sight, so they carry no
// order worth having: they only index.
type ShardNum uint32

// AddObserver registers an ownership-event observer with every server that
// resolves through this directory (append-only; observers cannot be
// removed).
func (d *Directory) AddObserver(o Observer) { d.observers = append(d.observers, o) }

// notifyReplica reports a replica's post-transition state to observers.
func (s *Server) notifyReplica(id shard.ID, h *holder) {
	for i := range s.dir.observers {
		if fn := s.dir.observers[i].ReplicaChanged; fn != nil {
			fn(s.ID, id, h.role, h.phase, h.r.forwardTo)
		}
	}
}

// notifyFenced reports a fence transition to observers.
func (s *Server) notifyFenced() {
	for i := range s.dir.observers {
		if fn := s.dir.observers[i].Fenced; fn != nil {
			fn(s.ID, s.fenced, s.fenceGen)
		}
	}
}

// notifyConfirmed reports a replica's confirmed-flag change to observers.
func (s *Server) notifyConfirmed(id shard.ID, confirmed bool) {
	for i := range s.dir.observers {
		if fn := s.dir.observers[i].ReplicaConfirmed; fn != nil {
			fn(s.ID, id, confirmed)
		}
	}
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		slots:      make(map[shard.ServerID]*Slot),
		shardNums:  make(map[shard.ID]ShardNum),
		holders:    make([][]holder, 1),
		byKeyspace: make(map[*shard.Keyspace][]ShardNum),
		metrics:    make(map[shard.AppID][]topology.Resource),
	}
}

// SetMetrics states the metrics the application's orchestrator balances on,
// in its policy's order (allocator.Policy.Metrics): its servers' load reports
// carry those values, in that order, and no others.
func (d *Directory) SetMetrics(app shard.AppID, metrics []topology.Resource) {
	d.metrics[app] = metrics
}

// Slot resolves a server ID to its slot, making an empty one on first sight.
func (d *Directory) Slot(id shard.ServerID) *Slot {
	sl := d.slots[id]
	if sl == nil {
		sl = &Slot{}
		d.slots[id] = sl
	}
	return sl
}

// Lookup returns the live server with the given ID, or nil.
func (d *Directory) Lookup(id shard.ServerID) *Server {
	if sl := d.slots[id]; sl != nil {
		return sl.srv
	}
	return nil
}

// Register adds a server to the directory (Hosts do this automatically;
// exported for tests and hand-wired setups).
func (d *Directory) Register(s *Server) {
	d.Slot(s.ID).srv = s
}

// Remove deletes a server from the directory. A successor under the same ID
// is a server of its own, so it never finds the server's replicas, and they
// leave the directory's lists once no request the gray-failure stall holds can
// still reach the server (Server.release). Observers are told the server is
// gone: every replica it held died with the process, so ownership views must
// not keep counting them as live.
func (d *Directory) Remove(id shard.ServerID) {
	sl := d.slots[id]
	if sl == nil || sl.srv == nil {
		return
	}
	sl.srv.removed = true
	sl.srv.release()
	sl.srv = nil
	for i := range d.observers {
		if fn := d.observers[i].ServerRemoved; fn != nil {
			fn(id)
		}
	}
}

// ShardNum resolves a shard ID to its number, giving it the next one on first
// sight.
func (d *Directory) ShardNum(id shard.ID) ShardNum {
	n := d.shardNums[id]
	if n == 0 {
		d.shardIDs = append(d.shardIDs, id)
		d.loadGens = append(d.loadGens, 1)
		d.holders = append(d.holders, nil)
		n = ShardNum(len(d.shardIDs))
		d.shardNums[id] = n
	}
	return n
}

// shardID is ShardNum's inverse.
func (d *Directory) shardID(n ShardNum) shard.ID { return d.shardIDs[n-1] }

// unhold takes srv's entry out of shard num's list, if it has one.
func (d *Directory) unhold(srv *Server, num ShardNum) {
	d.holders[num] = slices.DeleteFunc(d.holders[num], func(h holder) bool { return h.srv == srv })
}

// ShardNums returns the shard number at each position of ks
// (shard.Keyspace.Locate). The slice is made on the first call for a keyspace
// and shared by every later one; read it, do not modify it.
func (d *Directory) ShardNums(ks *shard.Keyspace) []ShardNum {
	nums := d.byKeyspace[ks]
	if nums == nil {
		nums = make([]ShardNum, ks.Len())
		for pos := range nums {
			nums[pos] = d.ShardNum(ks.At(pos))
		}
		d.byKeyspace[ks] = nums
	}
	return nums
}

// NewServer constructs a server running the application newApp builds for
// it; Hosts normally do this.
func NewServer(loop *sim.Loop, net *rpcnet.Network, dir *Directory, newApp func(*Server) Application,
	appID shard.AppID, id shard.ServerID, region topology.RegionID) *Server {
	s := &Server{
		ID:         id,
		App:        appID,
		Region:     region,
		loop:       loop,
		net:        net,
		dir:        dir,
		tombstones: make(map[ShardNum]shard.ServerID),
		dropped:    make(map[ShardNum]int64),
	}
	s.app = newApp(s)
	s.reporter, _ = s.app.(LoadReporter)
	s.loaded, s.expired = s.loadDone, s.tombstoneDone
	return s
}

// ShardNum resolves a shard ID to its number in the server's directory
// (Directory.ShardNum), the number requests for the shard carry
// (Request.ShardNum): an application learns it when it is given the shard, so
// that serving finds the shard's state without hashing its name.
func (s *Server) ShardNum(id shard.ID) ShardNum { return s.dir.ShardNum(id) }

// --- SM library API, invoked by the orchestrator (Fig 11) ---

// acceptGrant screens one grant's fencing token. A generation at or below the
// fence generation belongs to a lease the server already lost, and generation
// 0 to none at all (coord's epochs start at 1): the grant is stale, so it is
// counted and dropped.
func (s *Server) acceptGrant(gen int64) bool {
	if gen <= s.fenceGen {
		s.loop.Metrics().Counter("appserver_stale_grants_total",
			"app", string(s.App)).Inc()
		return false
	}
	return true
}

// Fence puts the server into the fenced state at generation gen: primary
// replicas stop serving and reject everything with "fenced" until a
// SyncAssignment carrying a newer generation arrives. The SM library invokes
// this when it detects its coordination session expired (lost lease).
func (s *Server) Fence(gen int64) {
	if s.fenced && gen <= s.fenceGen {
		return
	}
	s.fenced = true
	if gen > s.fenceGen {
		s.fenceGen = gen
	}
	s.opMetric("fence")
	s.notifyFenced()
}

// AddShard gives the server official ownership of the shard. A replica that
// already prepared (or already served) activates immediately; a brand-new
// replica first loads shard state for LoadTime and rejects requests until
// done (step 3 of §4.3 when preceded by prepare_add_shard; a cold add
// otherwise). gen is the grant's fencing generation; stale grants (gen at or
// below the fence generation) are dropped.
func (s *Server) AddShard(id shard.ID, role shard.Role, gen int64) {
	if !s.acceptGrant(gen) {
		return
	}
	s.addShard(id, role, true, gen)
}

// addShard is AddShard after the screen, for a grant at gen (0 for a restore
// from the persisted assignment).
func (s *Server) addShard(id shard.ID, role shard.Role, confirmed bool, gen int64) {
	num := s.dir.ShardNum(id)
	h := s.newReplica(num)
	r := h.r
	s.opMetric("add")
	h.role = role
	r.granted = max(r.granted, gen)
	r.forwardTo = ""
	wasUnconfirmed := h.unconfirmed
	h.unconfirmed = !confirmed
	delete(s.tombstones, num)
	switch h.phase {
	case PhaseLoading:
		r.pendingActive = true
	case PhaseNone:
		if s.LoadTime > 0 {
			r.pendingActive = true
			s.startLoad(h)
		} else {
			h.phase = PhaseActive
		}
	default: // prepared, active, or forwarding: state already present
		h.phase = PhaseActive
	}
	if h.unconfirmed != wasUnconfirmed {
		s.notifyConfirmed(id, !h.unconfirmed)
	}
	s.notifyReplica(id, h)
	s.app.AddShard(id, role)
}

// release takes a removed server's entries out of the directory's lists once
// no stalled request can reach them.
func (s *Server) release() {
	if !s.removed || s.stalled > 0 {
		return
	}
	for _, r := range s.held {
		s.dir.unhold(s, r.num)
	}
	s.held = nil
}

// holding returns the server's entry in shard num's list, or nil if it holds
// no replica of the shard. The entry moves when a replica of the shard is
// added or dropped anywhere in the directory: use it before that.
func (s *Server) holding(num ShardNum) *holder {
	hs := s.dir.holders[num]
	for i := range hs {
		if hs[i].srv == s {
			return &hs[i]
		}
	}
	return nil
}

// newReplica returns shard num's replica, making it if the server holds none,
// from a record the server released if it has one; a new one forgets the
// shard's drop.
func (s *Server) newReplica(num ShardNum) *holder {
	if h := s.holding(num); h != nil {
		return h
	}
	var r *replica
	if n := len(s.free); n > 0 {
		r, s.free = s.free[n-1], s.free[:n-1]
		*r = replica{}
	} else {
		r = &replica{}
	}
	r.num = num
	s.held = append(s.held, r)
	hs := append(s.dir.holders[num], holder{srv: s, r: r})
	s.dir.holders[num] = hs
	delete(s.dropped, num)
	s.replicaMetric(1)
	return &hs[len(hs)-1]
}

// startLoad begins the replica's state load; on completion (loadDone) it
// becomes active (if AddShard already arrived) or prepared. A replica loads
// once, from PhaseNone, so its record has at most one load out.
func (s *Server) startLoad(h *holder) {
	h.phase = PhaseLoading
	s.loop.PostArgL(s.LoadTime, lbShardLoad, s.loaded, h.r)
}

// loadDone completes the replica's load, unless it was dropped since.
func (s *Server) loadDone(arg any) {
	r := arg.(*replica)
	h := s.holding(r.num)
	if h == nil || h.r != r || h.phase != PhaseLoading {
		return
	}
	if r.pendingActive {
		r.pendingActive = false
		h.phase = PhaseActive
	} else {
		h.phase = PhasePreparingAdd
	}
	s.notifyReplica(s.dir.shardID(r.num), h)
}

// tombstoneDone ends the tombstone its timer left, unless a newer one
// replaced it, and keeps the timer for the next.
func (s *Server) tombstoneDone(arg any) {
	t := arg.(*tombstoneTimer)
	if s.tombstones[t.num] == t.to {
		delete(s.tombstones, t.num)
	}
	*t = tombstoneTimer{}
	s.tombs = append(s.tombs, t)
}

// DropShard releases the shard. If the replica was forwarding, a tombstone
// keeps forwarding stragglers for tombstoneTTL (step 5 of §4.3).
func (s *Server) DropShard(id shard.ID) {
	num := s.dir.shardNums[id]
	h := s.holding(num)
	if h == nil {
		return
	}
	r := h.r
	if h.phase == PhaseForwarding && r.forwardTo != "" {
		s.tombstones[num] = r.forwardTo
		var t *tombstoneTimer
		if n := len(s.tombs); n > 0 {
			t, s.tombs = s.tombs[n-1], s.tombs[:n-1]
		} else {
			t = &tombstoneTimer{}
		}
		t.num, t.to = num, r.forwardTo
		s.loop.PostArgL(tombstoneTTL, lbTombstoneGC, s.expired, t)
	}
	if h.phase != PhaseLoading {
		// A record whose load is still out is left to the collector, so no
		// load timer ever finds a record reused.
		s.free = append(s.free, r)
	}
	s.dir.unhold(s, num) // h is gone
	i := slices.Index(s.held, r)
	s.held = slices.Delete(s.held, i, i+1)
	s.dropped[num] = r.granted
	s.replicaMetric(-1)
	s.opMetric("drop")
	_, tomb := s.tombstones[num]
	for i := range s.dir.observers {
		if fn := s.dir.observers[i].ReplicaDropped; fn != nil {
			fn(s.ID, id, tomb)
		}
	}
	s.app.DropShard(id)
}

// ChangeRole changes the replica's role in place (§2.2.3; also used to
// demote primaries ahead of non-negotiable maintenance, §4.2). gen is the
// grant's fencing generation; stale grants are dropped with an error.
func (s *Server) ChangeRole(id shard.ID, from, to shard.Role, gen int64) error {
	if !s.acceptGrant(gen) {
		return fmt.Errorf("appserver: stale role grant for %s (gen %d <= fence %d)", id, gen, s.fenceGen)
	}
	h := s.holding(s.dir.shardNums[id])
	if h == nil {
		return fmt.Errorf("appserver: %s does not hold shard %s", s.ID, id)
	}
	if h.role != from {
		return fmt.Errorf("appserver: shard %s role is %v, not %v", id, h.role, from)
	}
	h.role = to
	h.r.granted = max(h.r.granted, gen)
	if h.unconfirmed {
		h.unconfirmed = false
		s.notifyConfirmed(id, true)
	}
	s.opMetric("change_role")
	s.notifyReplica(id, h)
	s.app.ChangeRole(id, from, to)
	return nil
}

// PrepareAddShard readies this server to take over the shard: it loads
// state (LoadTime) and then processes only requests forwarded from the
// current owner (step 1 of §4.3). The old primary keeps serving clients
// throughout, which is why the load is invisible to them. gen is the grant's
// fencing generation; stale grants are dropped.
func (s *Server) PrepareAddShard(id shard.ID, currentOwner shard.ServerID, role shard.Role, gen int64) {
	if !s.acceptGrant(gen) {
		return
	}
	h := s.newReplica(s.dir.ShardNum(id))
	s.opMetric("prepare_add")
	h.role = role
	h.r.granted = max(h.r.granted, gen)
	if h.phase == PhaseNone && s.LoadTime > 0 {
		s.startLoad(h)
	} else if h.phase != PhaseLoading {
		h.phase = PhasePreparingAdd
	}
	s.notifyReplica(id, h)
}

// PrepareDropShard tells this server that newOwner is taking over: from now
// on it forwards the shard's requests to newOwner (step 2 of §4.3).
func (s *Server) PrepareDropShard(id shard.ID, newOwner shard.ServerID, role shard.Role) {
	h := s.holding(s.dir.shardNums[id])
	if h == nil {
		return
	}
	s.opMetric("prepare_drop")
	h.phase = PhaseForwarding
	h.r.forwardTo = newOwner
	s.notifyReplica(id, h)
}

// ResumeShard cancels a hand-off: a forwarding replica returns to active
// serving. The orchestrator issues it when a graceful migration aborts after
// its prepare_drop already executed on the old primary — without it the old
// primary would forward to a target that no longer holds the shard. No-op
// unless the replica is forwarding. gen is the grant's fencing generation;
// stale grants are dropped.
func (s *Server) ResumeShard(id shard.ID, gen int64) {
	if !s.acceptGrant(gen) {
		return
	}
	h := s.holding(s.dir.shardNums[id])
	if h == nil || h.phase != PhaseForwarding {
		return
	}
	s.opMetric("resume")
	h.r.granted = max(h.r.granted, gen)
	h.phase = PhaseActive
	h.r.forwardTo = ""
	s.notifyReplica(id, h)
}

// SyncAssignment reconciles this server's replica set against the
// orchestrator's authoritative view at generation gen — the anti-entropy
// step the orchestrator runs when a server rejoins (its liveness node
// reappeared after expiry or restart). A generation newer than the fence
// generation lifts the fence; an older one means the sync itself is stale
// and is ignored. Only settled (active-phase) replicas are corrected —
// replicas mid-migration (loading/preparing/forwarding) belong to the §4.3
// protocol and are left alone. Corrections: roles fixed in place,
// unconfirmed restores confirmed, active replicas absent from want dropped,
// and shards the orchestrator assigns that the server lost added cold.
//
// protect lists shards that an in-flight migration is handing to this server:
// the authoritative placement still names the old owner until the migration
// commits, so such replicas are neither dropped nor cold-added here — the
// migration's own add_shard grant settles them.
//
// The view is the one at gen, and a grant drawn after it may have reached the
// server first: a replica granted at a newer generation is neither dropped
// nor re-roled, and one dropped after such a grant is not added back.
func (s *Server) SyncAssignment(want map[shard.ID]shard.Role, protect map[shard.ID]bool, gen int64) {
	if !s.acceptGrant(gen) {
		return
	}
	s.opMetric("sync")
	for _, id := range s.shardIDs() {
		h := s.holding(s.dir.shardNums[id])
		if h.phase != PhaseActive || h.r.granted > gen {
			continue
		}
		h.r.granted = gen
		role, ok := want[id]
		if !ok {
			if !protect[id] {
				s.DropShard(id)
			}
			continue
		}
		if h.role != role {
			old := h.role
			h.role = role
			if h.unconfirmed {
				h.unconfirmed = false
				s.notifyConfirmed(id, true)
			}
			s.notifyReplica(id, h)
			s.app.ChangeRole(id, old, role)
		} else if h.unconfirmed {
			h.unconfirmed = false
			s.notifyConfirmed(id, true)
			s.notifyReplica(id, h)
		}
	}
	missing := make([]string, 0, len(want))
	for id := range want {
		num := s.dir.shardNums[id]
		if s.holding(num) == nil && s.dropped[num] <= gen {
			missing = append(missing, string(id))
		}
	}
	sort.Strings(missing)
	for _, sid := range missing {
		id := shard.ID(sid)
		s.addShard(id, want[id], true, gen)
	}
	// Unfence last: the fence may only lift once the replica set matches the
	// authoritative assignment — lifting it first would momentarily revive
	// stale primaries the reconcile above is about to drop or demote.
	if s.fenced {
		s.fenced = false
		s.opMetric("unfence")
		s.notifyFenced()
	}
}

// shardIDs returns the IDs of the shards the server holds a replica of (all
// phases), sorted: the order everything that walks the replicas uses, since
// the table's own keys are first-sight numbers.
func (s *Server) shardIDs() []shard.ID {
	ids := make([]shard.ID, 0, len(s.held))
	for _, r := range s.held {
		ids = append(ids, s.dir.shardID(r.num))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Shards returns a snapshot of owned shards and their roles (all phases).
func (s *Server) Shards() map[shard.ID]shard.Role {
	out := make(map[shard.ID]shard.Role, len(s.held))
	for _, r := range s.held {
		out[s.dir.shardID(r.num)] = s.holding(r.num).role
	}
	return out
}

// HoldsActive reports whether the server actively owns the shard.
func (s *Server) HoldsActive(id shard.ID) bool {
	h := s.holding(s.dir.shardNums[id])
	return h != nil && h.phase == PhaseActive
}

// LoadEntry is one shard's load in a load report: one value per metric the
// application's orchestrator balances on, in the order the directory was
// given (Directory.SetMetrics).
type LoadEntry struct {
	Shard shard.ID
	Load  []float64
}

// LoadReport returns, for the orchestrator's collection cycle, the load of
// every replica that is new or whose shard was marked (LoadChanged) since its
// last report, in no particular order; a replica left out reports what it
// reported last. Applications implementing LoadReporter control the numbers;
// otherwise each shard reports shard_count=1. A metric the application
// reports and its orchestrator does not balance on is left out, and one it
// balances on and the application does not report reads 0. A round in which
// nothing changed asks the application nothing and returns nil. The report
// is the server's until its next LoadReport: its entries and their values are
// written into two buffers the server keeps, and nothing the application
// does changes them.
func (s *Server) LoadReport() []LoadEntry {
	n := 0
	for _, r := range s.held {
		if r.reported != s.dir.loadGens[r.num-1] {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	metrics := s.dir.metrics[s.App]
	if len(s.report) < n {
		size := max(len(s.held), 2*len(s.report))
		s.report = make([]LoadEntry, size)
		s.reportVals = make([]float64, size*len(metrics))
	}
	out, vals := s.report[:0], s.reportVals[:0]
	if s.asked == nil {
		s.asked = make(topology.Capacity, len(metrics))
	}
	lr := s.reporter
	for _, r := range s.held {
		gen := s.dir.loadGens[r.num-1]
		if r.reported == gen {
			continue
		}
		r.reported = gen
		clear(s.asked)
		id := s.dir.shardID(r.num)
		if lr != nil {
			lr.ShardLoad(id, s.asked)
		} else {
			s.asked[topology.ResourceShardCount] = 1
		}
		at := len(vals)
		for _, m := range metrics {
			vals = append(vals, s.asked[m])
		}
		out = append(out, LoadEntry{Shard: id, Load: vals[at:len(vals):len(vals)]})
	}
	return out
}

// LoadChanged marks shard num's load (ShardNum) as possibly changed: at the
// next collection every server of the directory that holds a replica of it
// reports it again. Number 0 marks nothing.
func (s *Server) LoadChanged(num ShardNum) {
	if num != 0 {
		s.dir.loadGens[num-1]++
	}
}

// Serve processes one request, replying asynchronously (possibly after one
// or more forwarding hops). reply is invoked exactly once and must not be
// nil. A request that names its shard only by ID gets the number filled in
// here.
func (s *Server) Serve(req *Request, reply func(Response)) {
	if req.ShardNum == 0 {
		req.ShardNum = s.dir.shardNums[req.Shard]
	}
	if s.serveDelay > 0 {
		s.stalled++
		s.loop.AfterL(s.serveDelay, lbServeDelay, func() {
			s.stalled--
			s.serve(req, reply)
			s.release()
		})
		return
	}
	s.serve(req, reply)
}

// SetServeDelay sets the per-request gray-failure stall (0 restores normal
// service).
func (s *Server) SetServeDelay(d time.Duration) { s.serveDelay = d }

func (s *Server) serve(req *Request, reply func(Response)) {
	h := s.holding(req.ShardNum)
	if h == nil {
		if to, ok := s.tombstones[req.ShardNum]; ok {
			s.forward(req, to, reply)
			return
		}
		s.reject(req.Shard, reply, "not-owner")
		return
	}
	switch h.phase {
	case PhaseActive:
		// Lost lease: a fenced primary serves nothing — the orchestrator
		// may already have promoted a replacement, and any response from
		// here could contradict it. An unconfirmed (restored-from-store)
		// primary only blocks writes: its data is no staler than a
		// secondary's, but write ownership needs an authoritative grant.
		if h.role == shard.RolePrimary && (s.fenced || (req.Write && h.unconfirmed)) {
			s.reject(req.Shard, reply, "fenced")
			return
		}
		if req.Write && h.role != shard.RolePrimary {
			s.reject(req.Shard, reply, "not-primary")
			return
		}
		s.handle(req, h.phase, reply)
	case PhaseLoading:
		s.reject(req.Shard, reply, "loading")
	case PhasePreparingAdd:
		if req.Forwarded {
			s.handle(req, h.phase, reply)
			return
		}
		s.reject(req.Shard, reply, "preparing")
	case PhaseForwarding:
		s.forward(req, h.r.forwardTo, reply)
	default:
		panic("appserver: unknown replica phase")
	}
}

func (s *Server) handle(req *Request, phase Phase, reply func(Response)) {
	for i := range s.dir.observers {
		if fn := s.dir.observers[i].Handled; fn != nil {
			fn(s.ID, req.Shard, req.Write, req.Forwarded, phase)
		}
	}
	payload, err := s.app.HandleRequest(req)
	if err != nil {
		s.requestMetric("app_error")
		reply(Response{Err: err.Error(), Server: s.ID})
		return
	}
	s.requestMetric("ok")
	reply(Response{OK: true, Payload: payload, Server: s.ID})
}

// forward relays the request to the shard's new owner and relays the
// response back (one extra hop each way).
func (s *Server) forward(req *Request, to shard.ServerID, reply func(Response)) {
	if to == "" || to == s.ID {
		s.reject(req.Shard, reply, "forward-loop")
		return
	}
	if mr := s.loop.Metrics(); mr != nil { // per request: see requestMetric
		mr.Counter("appserver_forwarded_total", "app", string(s.App)).Inc()
	}
	if tr := s.loop.Tracer(); tr.Enabled() {
		tr.EndSpan(tr.StartSpan("appserver", "forward", req.TraceSpan,
			trace.String("from", string(s.ID)),
			trace.String("to", string(to)),
			trace.String("shard", string(req.Shard))))
	}
	fwd := *req
	fwd.Forwarded = true
	s.net.Send(s.Region, rpcnet.Endpoint(to), func() {
		target := s.dir.Lookup(to)
		if target == nil {
			reply(Response{Err: "forward-target-gone", Server: s.ID})
			return
		}
		target.Serve(&fwd, func(resp Response) {
			resp.Hops++
			// Relay the response back through this server's region.
			s.net.Send(target.Region, rpcnet.Endpoint(s.ID), func() {
				reply(resp)
			}, func() {
				// Original server died mid-relay; the client's
				// RPC times out and it retries.
				reply(Response{Err: "relay-lost", Server: s.ID, Hops: resp.Hops})
			})
		})
	}, func() {
		reply(Response{Err: "forward-failed", Server: s.ID})
	})
}

// --- Host: container lifecycle -> server lifecycle ---

// CoordPaths groups the coordination-store layout for one application.
type CoordPaths struct {
	// ServersPath is the parent of per-server ephemeral liveness nodes.
	ServersPath string
	// AssignPath is the parent of per-server persisted assignments.
	AssignPath string
}

// DefaultPaths returns the standard layout for an application.
func DefaultPaths(app shard.AppID) CoordPaths {
	return CoordPaths{
		ServersPath: "/apps/" + string(app) + "/servers",
		AssignPath:  "/apps/" + string(app) + "/assign",
	}
}

// EscapeID flattens a server ID (which may contain '/', e.g. "job/3") into
// a single coordination-store path segment.
func EscapeID(id shard.ServerID) string {
	return strings.ReplaceAll(string(id), "/", "~")
}

// ServerNode returns the liveness node path for a server.
func (p CoordPaths) ServerNode(id shard.ServerID) string {
	return p.ServersPath + "/" + EscapeID(id)
}

// AssignNode returns the persisted-assignment node path for a server.
func (p CoordPaths) AssignNode(id shard.ServerID) string {
	return p.AssignPath + "/" + EscapeID(id)
}

// Host materializes application servers for the containers of one job in
// one region. It implements cluster.Listener.
type Host struct {
	loop    *sim.Loop
	net     *rpcnet.Network
	dir     *Directory
	store   *coord.Store
	fleet   *topology.Fleet
	appID   shard.AppID
	job     cluster.JobID
	factory func(*Server) Application
	paths   CoordPaths

	servers  map[shard.ServerID]*Server
	sessions map[shard.ServerID]*coord.Session
	machines map[shard.ServerID]topology.MachineID
}

// NewHost creates the host and prepares the coordination-store layout. The
// factory builds the per-server application instance.
func NewHost(loop *sim.Loop, net *rpcnet.Network, dir *Directory, store *coord.Store,
	fleet *topology.Fleet, appID shard.AppID, job cluster.JobID,
	factory func(*Server) Application) *Host {
	paths := DefaultPaths(appID)
	mustCreateAll(store, paths.ServersPath)
	mustCreateAll(store, paths.AssignPath)
	return &Host{
		loop:     loop,
		net:      net,
		dir:      dir,
		store:    store,
		fleet:    fleet,
		appID:    appID,
		job:      job,
		factory:  factory,
		paths:    paths,
		servers:  make(map[shard.ServerID]*Server),
		sessions: make(map[shard.ServerID]*coord.Session),
		machines: make(map[shard.ServerID]topology.MachineID),
	}
}

func mustCreateAll(store *coord.Store, path string) {
	if err := store.CreateAll(path, nil, nil); err != nil && !store.Exists(path) {
		panic(fmt.Sprintf("appserver: creating %s: %v", path, err))
	}
}

// Server returns the live server for an ID, or nil.
func (h *Host) Server(id shard.ServerID) *Server { return h.servers[id] }

// ServerIDs returns the IDs of all live servers under this host, sorted —
// fault injection iterates this, so the order must be deterministic.
func (h *Host) ServerIDs() []shard.ServerID {
	ids := make([]shard.ServerID, 0, len(h.servers))
	for id := range h.servers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ContainerStarted implements cluster.Listener: boot a server.
func (h *Host) ContainerStarted(c cluster.Container) {
	if c.Job != h.job {
		return
	}
	id := shard.ServerID(c.ID)
	if _, dup := h.servers[id]; dup {
		return
	}
	machine := h.fleet.Machine(c.Machine)
	if machine == nil {
		panic(fmt.Sprintf("appserver: container %s on unknown machine %s", c.ID, c.Machine))
	}
	srv := NewServer(h.loop, h.net, h.dir, h.factory, h.appID, id, machine.Region)
	h.servers[id] = srv
	h.machines[id] = machine.ID
	h.dir.Register(srv)
	h.net.Register(rpcnet.Endpoint(id), machine.Region)

	// Liveness: ephemeral node, as the SM library does with ZooKeeper.
	sess := h.store.NewSession()
	h.sessions[id] = sess
	h.armFence(id, sess)
	path := h.paths.ServerNode(id)
	if h.store.Exists(path) {
		// Leftover from an earlier incarnation; replace it.
		_ = h.store.Delete(path, -1)
	}
	// The payload is the machine ID; the orchestrator resolves placement
	// metadata (region, datacenter, rack) from it.
	h.createLiveness(id, sess, []byte(machine.ID))

	// Start-up assignment: read persisted shard assignment directly from
	// the store, without the SM control plane (§3.2).
	h.restoreAssignment(srv)
}

// createLiveness publishes the server's ephemeral liveness node, retrying
// while the coordination service is unavailable (write-stall fault): a real
// SM library keeps reconnecting rather than crashing the container.
func (h *Host) createLiveness(id shard.ServerID, sess *coord.Session, payload []byte) {
	path := h.paths.ServerNode(id)
	err := h.store.Create(path, payload, sess)
	switch {
	case err == nil:
		return
	case errors.Is(err, coord.ErrUnavailable):
		h.loop.AfterL(livenessRetryDelay, lbLivenessRetry, func() {
			// Give up silently if the server died or reconnected with a
			// fresh session in the meantime.
			if h.servers[id] == nil || h.sessions[id] != sess {
				return
			}
			h.createLiveness(id, sess, payload)
		})
	case errors.Is(err, coord.ErrNodeExists):
		// Leftover from a racing earlier incarnation; replace it.
		_ = h.store.Delete(path, -1)
		h.createLiveness(id, sess, payload)
	default:
		panic(fmt.Sprintf("appserver: liveness node: %v", err))
	}
}

// livenessRetryDelay spaces liveness-publication retries while the
// coordination service rejects writes.
const livenessRetryDelay = 500 * time.Millisecond

// ExpireSession force-expires the coordination session of one live server —
// the classic ZooKeeper false-dead: the process is healthy but its ephemeral
// node vanishes, so the orchestrator begins failover. After reconnectAfter
// (0 = never) the server opens a fresh session and republishes its liveness
// node, as a real client would on reconnect.
func (h *Host) ExpireSession(id shard.ServerID, reconnectAfter time.Duration) bool {
	sess := h.sessions[id]
	if sess == nil {
		return false
	}
	sess.Expire()
	delete(h.sessions, id)
	if reconnectAfter > 0 {
		h.loop.AfterL(reconnectAfter, lbSessionReconnect, func() {
			if h.servers[id] == nil || h.sessions[id] != nil {
				return // died, or something else reconnected it
			}
			fresh := h.store.NewSession()
			h.sessions[id] = fresh
			h.armFence(id, fresh)
			h.createLiveness(id, fresh, []byte(h.machines[id]))
		})
	}
	return true
}

// armFence schedules self-fencing for a server when its coordination session
// expires: FenceDelay after the loss, the server stops serving primaries and
// rejects writes with a "fenced" error. The skip check consults the server's
// *current* session generation, not the grant stream — a false-dead server
// may legitimately receive new grants while the orchestrator still believes
// it alive, and those must not suppress the fence. Only a fresh session
// (reconnect) or an authoritative SyncAssignment lifts it.
func (h *Host) armFence(id shard.ServerID, sess *coord.Session) {
	gen := sess.Generation()
	sess.OnExpire(func() {
		h.loop.AfterL(FenceDelay, lbFence, func() {
			srv := h.servers[id]
			if srv == nil {
				return // container died; nothing to fence
			}
			if cur := h.sessions[id]; cur != nil && !cur.Closed() && cur.Generation() > gen {
				return // already reconnected with a fresh session
			}
			srv.Fence(gen)
		})
	})
}

// restoreAssignment loads the server's persisted shard list, if any.
// Restored primaries start unconfirmed: the persisted snapshot may be stale
// (assignment writes are skipped while the coordination store is
// unavailable), so write ownership waits for the orchestrator's rejoin sync.
func (h *Host) restoreAssignment(srv *Server) {
	data, _, err := h.store.Get(h.paths.AssignNode(srv.ID))
	if err != nil {
		return
	}
	for _, e := range splitAssign(string(data)) {
		srv.addShard(e.Shard, e.Role, e.Role != shard.RolePrimary, 0)
	}
}

// ContainerStopping implements cluster.Listener: the process dies now.
func (h *Host) ContainerStopping(c cluster.Container, reason string) {
	if c.Job != h.job {
		return
	}
	id := shard.ServerID(c.ID)
	if _, ok := h.servers[id]; !ok {
		return
	}
	h.net.Unregister(rpcnet.Endpoint(id))
	h.dir.Remove(id)
	delete(h.servers, id)
	delete(h.machines, id)
	if sess := h.sessions[id]; sess != nil {
		sess.Expire()
		delete(h.sessions, id)
	}
}

// --- persisted assignment encoding (tiny, line-based) ---

// AssignEntry is one shard of a server's persisted assignment.
type AssignEntry struct {
	Shard shard.ID
	Role  shard.Role
}

// EncodeAssignment renders a server's shard set for persistence.
func EncodeAssignment(shards map[shard.ID]shard.Role) []byte {
	entries := make([]AssignEntry, 0, len(shards))
	for id, role := range shards {
		entries = append(entries, AssignEntry{Shard: id, Role: role})
	}
	slices.SortFunc(entries, func(a, b AssignEntry) int { return cmp.Compare(a.Shard, b.Shard) })
	return AppendEntries(nil, entries)
}

// AppendEntries appends to dst the rendering of a server's assignment from
// its entries sorted by shard: a deterministic order, so that the store's
// contents are stable. A caller that keeps dst and passes dst[:0] encodes
// without allocating once the buffer has grown to its largest node.
func AppendEntries(dst []byte, entries []AssignEntry) []byte {
	out := slices.Grow(dst, len(entries)*16)
	for _, e := range entries {
		out = append(out, e.Shard...)
		out = append(out, ' ')
		if e.Role == shard.RolePrimary {
			out = append(out, 'p')
		} else {
			out = append(out, 's')
		}
		out = append(out, '\n')
	}
	return out
}

func splitAssign(s string) []AssignEntry {
	var out []AssignEntry
	for s != "" {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		if len(line) < 3 {
			continue
		}
		role := shard.RoleSecondary
		if line[len(line)-1] == 'p' {
			role = shard.RolePrimary
		}
		out = append(out, AssignEntry{Shard: shard.ID(line[:len(line)-2]), Role: role})
	}
	return out
}
