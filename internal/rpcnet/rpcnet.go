// Package rpcnet simulates the network fabric between regions: one-way
// message delivery with region-to-region latency taken from the fleet's
// latency model. Application clients, application servers, and the SM
// orchestrator all communicate through a Network so that experiments see
// realistic geo-distributed latencies (Fig 19/20) and so that failed
// endpoints drop traffic instead of magically responding.
//
// The fabric is also the injection point for network faults: per-directed-link
// latency inflation, packet loss, and full partitions (symmetric or
// asymmetric) installed via SetLinkFault. Failure detection is modeled
// explicitly: a sender learns that a message was lost only after sendTimeout,
// never "for free" at the would-be delivery instant — so injected latency can
// never make a timeout arrive faster than a slow success.
package rpcnet

import (
	"time"

	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
)

// Endpoint is anything reachable on the network.
type Endpoint string

const (
	// sendTimeout is how long a sender waits before concluding a message was
	// lost (down endpoint, partition, or packet loss). Failure callbacks fire
	// at send time + sendTimeout, decoupled from the (possibly inflated)
	// delivery latency.
	sendTimeout = 1 * time.Second
	// jitter is the largest extra random latency per hop, as a fraction of
	// the hop's latency.
	jitter = 0.1
)

// Kernel-profiler attribution labels, interned once so the per-message path
// never touches the label table.
var (
	lbDeliver = sim.LabelFor("rpcnet", "deliver")
	lbReply   = sim.LabelFor("rpcnet", "reply")
	lbTimeout = sim.LabelFor("rpcnet", "timeout")
)

// LinkFault describes an injected impairment of one directed region link.
// The zero value is a healthy link.
type LinkFault struct {
	// LatencyScale multiplies the link's base latency (0 or 1 = unchanged).
	LatencyScale float64
	// LatencyAdd is added to the link's latency after scaling.
	LatencyAdd time.Duration
	// DropProb is the probability a message on this link is lost
	// (1 = full partition).
	DropProb float64
}

// active reports whether the fault changes anything.
func (f LinkFault) active() bool {
	return f.DropProb > 0 || f.LatencyAdd > 0 || (f.LatencyScale > 0 && f.LatencyScale != 1)
}

// linkKey names a directed region link by the fleet's region numbers.
type linkKey struct {
	from, to int
}

// Peer is the fabric's record of one endpoint name: where it is registered
// and whether it is up. The network makes one the first time a name is
// registered or sent to and never removes or replaces it, so a sender that
// resolves a name once (Network.Peer) may keep the pointer for good — a
// restart re-registers the same record, possibly in another region, and the
// holder sees that through it.
type Peer struct {
	region topology.RegionID
	ri     int  // region's number in the fleet
	known  bool // registered at least once, so region means something
	down   bool
}

// RegionIndex returns the fleet's number for the region the endpoint was last
// registered in, or for the region "" while it has never been registered.
func (p *Peer) RegionIndex() int { return p.ri }

// Network delivers messages between regions with simulated latency.
type Network struct {
	loop  *sim.Loop
	fleet *topology.Fleet
	rng   *sim.RNG

	peers    map[Endpoint]*Peer
	noRegion int // the fleet's number for region "", where an unregistered peer is
	faults   map[linkKey]LinkFault

	// inflight counts messages currently riding the fabric (scheduled but
	// not yet delivered), exported as the rpcnet_inflight_messages gauge —
	// the delivery-queue depth the kernel profiler pairs with its
	// event-heap gauges.
	inflight int

	// Messages counts deliveries, Dropped counts messages lost to link
	// faults, for tests.
	Messages int64
	Dropped  int64

	// freeEnvs / freeCalls are deterministic freelists for the per-message
	// and per-RPC bookkeeping records. Pooling them (instead of capturing
	// the same state in closures) makes the send -> deliver -> reply path
	// allocation-free: the records are recycled the moment their terminal
	// callback runs, and peak in-flight traffic bounds the arena.
	freeEnvs  *envelope
	freeCalls *callState
}

// envelope is the pooled per-message state a Send or Reply carries through
// the fabric: everything the old closure captured, now recycled per message.
// Callbacks take the (func(any), any) shape so the event loop can dispatch
// them without allocating.
type envelope struct {
	n       *Network
	to      *Peer
	sentAt  time.Duration
	fn      func(any)
	arg     any
	onFail  func(any)
	failArg any
	next    *envelope
}

func (n *Network) allocEnv() *envelope {
	e := n.freeEnvs
	if e == nil {
		e = &envelope{n: n}
		return e
	}
	n.freeEnvs = e.next
	e.next = nil
	return e
}

func (n *Network) freeEnv(e *envelope) {
	*e = envelope{n: n, next: n.freeEnvs}
	n.freeEnvs = e
}

// callState is the pooled per-RPC state for Call: request leg, handler,
// reply leg, and completion callbacks.
type callState struct {
	n      *Network
	from   int // the caller's region number
	to     *Peer
	sp     trace.SpanID
	handle func()
	done   func()
	fail   func()
	next   *callState
}

func (n *Network) allocCall() *callState {
	c := n.freeCalls
	if c == nil {
		c = &callState{n: n}
		return c
	}
	n.freeCalls = c.next
	c.next = nil
	return c
}

func (n *Network) freeCall(c *callState) {
	*c = callState{n: n, next: n.freeCalls}
	n.freeCalls = c
}

// invoke0 adapts a plain func() callback to the arg-carrying shape. Func
// values are pointer-shaped, so boxing one into the arg slot is free.
func invoke0(a any) { a.(func())() }

// NewNetwork returns a network over the fleet's latency model.
func NewNetwork(loop *sim.Loop, fleet *topology.Fleet) *Network {
	return &Network{
		loop:     loop,
		fleet:    fleet,
		rng:      loop.RNG().Fork(),
		peers:    make(map[Endpoint]*Peer),
		noRegion: fleet.RegionIndex(""),
	}
}

// Peer resolves an endpoint name to the fabric's record of it, making the
// record (unregistered, unreachable) if the name is new.
func (n *Network) Peer(e Endpoint) *Peer {
	p := n.peers[e]
	if p == nil {
		p = &Peer{ri: n.noRegion}
		n.peers[e] = p
	}
	return p
}

// Register places an endpoint in a region and marks it reachable.
func (n *Network) Register(e Endpoint, region topology.RegionID) {
	p := n.Peer(e)
	p.region, p.ri = region, n.fleet.RegionIndex(region)
	p.known, p.down = true, false
}

// Unregister makes the endpoint unreachable (process death).
func (n *Network) Unregister(e Endpoint) { n.Peer(e).down = true }

// Reachable reports whether the endpoint is registered and up.
func (n *Network) Reachable(e Endpoint) bool {
	p := n.peers[e]
	return p != nil && p.reachable()
}

func (p *Peer) reachable() bool { return p.known && !p.down }

// Region returns the endpoint's region ("" if unknown).
func (n *Network) Region(e Endpoint) topology.RegionID {
	if p := n.peers[e]; p != nil {
		return p.region
	}
	return ""
}

func (n *Network) link(from, to topology.RegionID) linkKey {
	return linkKey{n.fleet.RegionIndex(from), n.fleet.RegionIndex(to)}
}

// SetLinkFault installs a fault on the directed link from -> to, replacing
// any previous fault on that link. A zero LinkFault clears it.
func (n *Network) SetLinkFault(from, to topology.RegionID, f LinkFault) {
	if !f.active() {
		n.ClearLinkFault(from, to)
		return
	}
	if n.faults == nil {
		n.faults = make(map[linkKey]LinkFault)
	}
	n.faults[n.link(from, to)] = f
}

// ClearLinkFault removes any fault on the directed link from -> to.
func (n *Network) ClearLinkFault(from, to topology.RegionID) {
	delete(n.faults, n.link(from, to))
}

// Partitioned reports whether the directed link from -> to currently drops
// all traffic.
func (n *Network) Partitioned(from, to topology.RegionID) bool {
	return n.faults[n.link(from, to)].DropProb >= 1
}

// Delay returns one sampled one-way latency between two regions, including
// any injected latency inflation on the link.
func (n *Network) Delay(from, to topology.RegionID) time.Duration {
	return n.delayAt(n.fleet.RegionIndex(from), n.fleet.RegionIndex(to))
}

// delayAt is Delay between the regions numbered from and to.
func (n *Network) delayAt(from, to int) time.Duration {
	base := n.fleet.LatencyAt(from, to)
	if len(n.faults) != 0 {
		if f, ok := n.faults[linkKey{from, to}]; ok {
			if f.LatencyScale > 0 {
				base = time.Duration(float64(base) * f.LatencyScale)
			}
			base += f.LatencyAdd
		}
	}
	return base + time.Duration(n.rng.Float64()*jitter*float64(base))
}

// trackInflight adjusts the fabric's in-flight message count and mirrors it
// into the metrics registry when one is attached.
func (n *Network) trackInflight(delta int) {
	n.inflight += delta
	if mr := n.loop.Metrics(); mr != nil {
		mr.Gauge("rpcnet_inflight_messages").Set(float64(n.inflight))
	}
}

// lost decides whether a message on the link from -> to (region numbers) is
// lost to an injected link fault. It consumes randomness only on lossy
// (0 < p < 1) links so that installing and removing faults perturbs the RNG
// stream minimally.
func (n *Network) lost(from, to int) bool {
	if len(n.faults) == 0 {
		return false
	}
	f, ok := n.faults[linkKey{from, to}]
	if !ok || f.DropProb <= 0 {
		return false
	}
	if f.DropProb >= 1 {
		return true
	}
	return n.rng.Float64() < f.DropProb
}

// Send schedules fn to run after the one-way latency from the sender's
// region to the destination endpoint's region. If the message is lost — the
// destination is unreachable at delivery time, or an injected link fault
// drops it — onFail runs at send time + sendTimeout instead: the sender
// learns of the failure only by timeout, never faster than a slow success
// could arrive. Either callback may be nil.
func (n *Network) Send(fromRegion topology.RegionID, to Endpoint, fn func(), onFail func()) {
	var fnA, failA func(any)
	var fnArg, failArg any
	if fn != nil {
		fnA, fnArg = invoke0, fn
	}
	if onFail != nil {
		failA, failArg = invoke0, onFail
	}
	n.SendTo(n.fleet.RegionIndex(fromRegion), n.Peer(to), fnA, fnArg, failA, failArg)
}

// SendTo sends from the region numbered from (topology.Fleet.RegionIndex) to a
// resolved peer: fn(arg) on delivery, onFail(failArg) on loss. Static
// callbacks plus pooled envelopes keep the per-message path free of closure
// allocations, and nothing on it looks a name up; either callback may be
// nil. Every message ends in exactly one of the two
// callbacks, run exactly once (a nil one is skipped, never replaced by the
// other): callers that recycle arg when a callback runs — routing's request
// record, Call's callState — depend on it. A peer that was never registered
// has no region: the message takes a same-region delay and fails at delivery.
func (n *Network) SendTo(from int, to *Peer, fn func(any), arg any, onFail func(any), failArg any) {
	var d time.Duration
	if to.known {
		d = n.delayAt(from, to.ri)
	} else {
		d = n.delayAt(from, from)
	}
	if to.known && n.lost(from, to.ri) {
		n.Dropped++
		e := n.allocEnv()
		e.onFail, e.failArg = onFail, failArg
		n.loop.PostArgL(sendTimeout, lbTimeout, envTimeout, e)
		return
	}
	e := n.allocEnv()
	e.to = to
	e.sentAt = n.loop.Now()
	e.fn, e.arg = fn, arg
	e.onFail, e.failArg = onFail, failArg
	n.trackInflight(1)
	n.loop.PostArgL(d, lbDeliver, envDeliver, e)
}

// envDeliver runs at the delivery instant of a sent message.
func envDeliver(a any) {
	e := a.(*envelope)
	n := e.n
	n.Messages++
	n.trackInflight(-1)
	if !e.to.reachable() {
		// Failure detection is by timeout from the send instant; if
		// the (possibly inflated) delivery delay already exceeds the
		// timeout the sender has been waiting long enough.
		wait := e.sentAt + sendTimeout - n.loop.Now()
		if wait > 0 {
			n.loop.PostArgL(wait, lbTimeout, envTimeout, e)
			return
		}
		envTimeout(e)
		return
	}
	fn, arg := e.fn, e.arg
	n.freeEnv(e)
	if fn != nil {
		fn(arg)
	}
}

// envTimeout reports a lost message to the sender at its detection instant.
func envTimeout(a any) {
	e := a.(*envelope)
	onFail, failArg := e.onFail, e.failArg
	e.n.freeEnv(e)
	if onFail != nil {
		onFail(failArg)
	}
}

// ReplyAt schedules fn(arg) after the one-way latency between the regions
// numbered from and to — the response leg of an RPC, where the receiver is
// not a registered endpoint. It honors injected link faults: a lost reply
// invokes onFail(failArg) at send time + sendTimeout. Like SendTo it runs
// exactly one of its two callbacks, exactly once.
func (n *Network) ReplyAt(from, to int, fn func(any), arg any, onFail func(any), failArg any) {
	if n.lost(from, to) {
		n.Dropped++
		if onFail != nil {
			e := n.allocEnv()
			e.fn, e.arg = onFail, failArg
			n.loop.PostArgL(sendTimeout, lbTimeout, envInvoke, e)
		}
		return
	}
	n.trackInflight(1)
	e := n.allocEnv()
	e.fn, e.arg = fn, arg
	n.loop.PostArgL(n.delayAt(from, to), lbReply, envReply, e)
}

// envReply runs at the delivery instant of a reply leg.
func envReply(a any) {
	e := a.(*envelope)
	n := e.n
	n.trackInflight(-1)
	fn, arg := e.fn, e.arg
	n.freeEnv(e)
	if fn != nil {
		fn(arg)
	}
}

// envInvoke runs a bare deferred callback (lost-reply timeout).
func envInvoke(a any) {
	e := a.(*envelope)
	fn, arg := e.fn, e.arg
	e.n.freeEnv(e)
	fn(arg)
}

// Call performs a round trip: deliver the request, run handle at the
// destination, then deliver the reply back and run done. If the destination
// is unreachable or either leg is lost, fail runs after the sender's timeout
// for that leg. handle runs only if the destination is reachable. Each call
// is one "rpc" span in the trace, the fabric's only record: a bare SendTo or
// ReplyAt message is the sending layer's to trace.
func (n *Network) Call(fromRegion topology.RegionID, to Endpoint, handle func(), done func(), fail func()) {
	c := n.allocCall()
	c.from, c.to = n.fleet.RegionIndex(fromRegion), n.Peer(to)
	c.handle, c.done, c.fail = handle, done, fail
	tr := n.loop.Tracer()
	if tr.Enabled() {
		c.sp = tr.StartSpan("rpcnet", "rpc", 0,
			trace.String("from", string(fromRegion)),
			trace.String("to", string(to)))
	}
	n.SendTo(c.from, c.to, callDelivered, c, callSendFailed, c)
}

// callDelivered runs the handler at the destination, then launches the
// reply leg: destination region back to caller region.
func callDelivered(a any) {
	c := a.(*callState)
	if c.handle != nil {
		c.handle()
	}
	n := c.n
	n.ReplyAt(c.to.ri, c.from, callReplied, c, callReplyLost, c)
}

func callDone(c *callState, status string, ok bool) {
	n := c.n
	tr := n.loop.Tracer()
	if tr.Enabled() {
		tr.EndSpan(c.sp, trace.String("status", status))
	}
	done, fail := c.done, c.fail
	n.freeCall(c)
	if ok {
		if done != nil {
			done()
		}
		return
	}
	if fail != nil {
		fail()
	}
}

func callReplied(a any)   { callDone(a.(*callState), "ok", true) }
func callReplyLost(a any) { callDone(a.(*callState), "reply-lost", false) }
func callSendFailed(a any) {
	callDone(a.(*callState), "failed", false)
}
