// Package routing implements the Service Router (SR) library linked into
// application clients (§3.2): it learns the application's shard map from
// the service discovery system, maps keys to shards through the app-owned
// keyspace, picks a replica (the primary for writes, the closest replica
// for reads), sends the request over the simulated network, and retries on
// failures and on "wrong owner" rejections caused by stale maps. A server a
// send found unreachable stays suspect until the client installs a newer map:
// until then reads try every other replica first, so a dead server costs each
// client one timeout per map generation rather than one per read.
//
// The client-facing API mirrors §3.3:
//
//	rpc_client = get_client(app_name, key)
//	rpc_client.function_foo(...)
//
// which here is Client.Do(key, ...).
package routing

import (
	"slices"
	"time"

	"shardmanager/internal/appserver"
	"shardmanager/internal/discovery"
	"shardmanager/internal/rpcnet"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
)

// lbRetry attributes request-retry timers in the kernel profiler.
var lbRetry = sim.LabelFor("routing", "retry")

// Options configure a client.
type Options struct {
	// MaxAttempts bounds total tries per request (default 4).
	MaxAttempts int
}

// The retry schedule: the wait before the first retry, doubling up to the
// cap, each wait stretched by up to retryJitter of itself.
const (
	retryBase   = 200 * time.Millisecond
	retryCap    = 5 * time.Second
	retryJitter = 0.2
)

// DefaultOptions returns sensible client settings.
func DefaultOptions() Options {
	return Options{MaxAttempts: 4}
}

// Result is the final outcome of one request as seen by the client.
type Result struct {
	OK       bool
	Err      string
	Payload  any
	Latency  time.Duration
	Attempts int
	// Hops counts server-side forwarding hops on the final attempt.
	Hops int
	// Server that handled the final attempt.
	Server shard.ServerID
	Shard  shard.ID
	// RejectedBy is the server the final failed attempt was sent to (the
	// rejecting server when the failure was a rejection; "" when no
	// candidate existed at all). Success results leave it empty.
	RejectedBy shard.ServerID
	// MapVersion is the client's shard-map version when the request
	// finished — the auditor uses it to distinguish transient staleness
	// from permanently stale routing.
	MapVersion int64
}

// Client is one application client instance located in a region.
type Client struct {
	App shard.AppID

	loop     *sim.Loop
	net      *rpcnet.Network
	dir      *appserver.Directory
	disc     *discovery.Service
	fleet    *topology.Fleet
	keyspace *shard.Keyspace
	opts     Options
	rng      *sim.RNG
	retryRNG *sim.RNG

	// Names resolved once, so that a request looks none up. region is Region's
	// number in the fleet. cells and shards give, for each position of the
	// keyspace, the discovery store's cell and the directory's shard number;
	// both tables belong to their owners and are shared by every client of the
	// app. servers is indexed by discovery's server number and filled on first
	// sight. All of it only indexes: a replica is still chosen by latency and
	// the RNG, in published order.
	region  int
	cells   []*discovery.Cell
	shards  []appserver.ShardNum
	servers []server

	// view is the shard-map version the client routes by: a cursor into the
	// discovery store, valid while the client's subscription is live.
	view discovery.View

	// MapUpdates counts received shard-map versions.
	MapUpdates int64

	// observers see every final Result at the simulated time it completes.
	// They must not draw randomness — healthmon hangs availability tracking
	// off this hook precisely because it cannot perturb the seeded RNG.
	observers []func(Result)

	// freeCalls is the free-list of request records; peak in-flight requests
	// bound it.
	freeCalls *call
}

// NewClient creates a client and subscribes it to the app's shard map.
func NewClient(loop *sim.Loop, net *rpcnet.Network, dir *appserver.Directory,
	disc *discovery.Service, fleet *topology.Fleet, app shard.AppID,
	keyspace *shard.Keyspace, region topology.RegionID, opts Options) *Client {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
	}
	c := &Client{
		App:      app,
		loop:     loop,
		net:      net,
		dir:      dir,
		disc:     disc,
		fleet:    fleet,
		keyspace: keyspace,
		opts:     opts,
		rng:      loop.RNG().Fork(),
		region:   fleet.RegionIndex(region),
		cells:    disc.Cells(app, keyspace),
		shards:   dir.ShardNums(keyspace),
	}
	// Retry jitter has its own stream forked from the client's RNG: drawing
	// jitter from c.rng directly would shift the read tie-break sequence
	// whenever a request happens to retry.
	c.retryRNG = c.rng.Fork()
	disc.Subscribe(app, func(v discovery.View) { c.install(v) })
	return c
}

// install adopts v unless the client already routes by something as new — an
// on-demand refresh may have run ahead of a delivery; a client never
// regresses — and reports whether it did.
func (c *Client) install(v discovery.View) bool {
	if !v.After(c.view) {
		return false
	}
	c.view = v
	c.MapUpdates++
	return true
}

// refreshMap pulls the discovery system's latest version immediately, without
// waiting for tree propagation. The SR library does this when a server's
// rejection implies the client's map is generation-behind ("fenced",
// "not-owner", "not-primary"): the map that fixes the routing already exists,
// so fetching it now closes the staleness window instead of retrying blind.
func (c *Client) refreshMap() {
	if c.install(c.disc.Latest(c.App)) {
		c.loop.Metrics().Counter("routing_map_refreshes_total",
			"app", string(c.App)).Inc()
	}
}

// OnResult registers fn to run on every final request Result.
func (c *Client) OnResult(fn func(Result)) {
	c.observers = append(c.observers, fn)
}

// MapVersion returns the client's current map version (0 if none).
func (c *Client) MapVersion() int64 { return c.view.Version }

// Do routes one request for key and invokes done with the final outcome.
// write selects primary-routed requests.
func (c *Client) Do(key string, write bool, op string, payload any, done func(Result)) {
	k := c.allocCall()
	k.pos = c.keyspace.Locate(key)
	// Set field by field: a literal would copy the whole request. Forwarded
	// stays false on a client's record (a server forwards a copy).
	r := &k.req
	r.Shard = c.keyspace.At(k.pos)
	r.ShardNum = c.shards[k.pos]
	r.Key = key
	r.Write = write
	r.Op = op
	r.Payload = payload
	r.TraceSpan = 0
	k.done = done
	k.start = c.loop.Now()
	if tr := c.loop.Tracer(); tr.Enabled() {
		k.req.TraceSpan = tr.StartSpan("routing", "request", 0,
			trace.String("key", key),
			trace.String("shard", string(k.req.Shard)),
			trace.Bool("write", write),
			trace.String("op", op))
	}
	k.try()
}

// call is the state of one request from Do to its Result, pooled on the
// client's free-list like rpcnet's envelopes so that a request allocates
// nothing. Do takes one, every leg of every attempt hands it to a static
// callback as its arg, and finish returns it before done runs. That is safe
// because each rpcnet SendTo/ReplyAt and each Server.Serve runs exactly one
// callback exactly once, so at most one callback is ever outstanding per
// record; live turns a second one — a bug, not a state — into a panic
// instead of a corrupted later request.
type call struct {
	c    *Client
	next *call // free-list link
	live bool

	// req is handed to servers as &k.req: valid until the reply, which is as
	// long as Application.HandleRequest may use it.
	req     appserver.Request
	pos     int // the shard's position in the keyspace
	done    func(Result)
	start   time.Duration
	attempt int
	// tried holds the numbers of the servers already sent to, at most
	// MaxAttempts of them. Its backing array stays with the record, grown on
	// the few that retry.
	tried []uint32
	// target is the server the current attempt was sent to; lastServer is its
	// ID, or that of the deeper server that rejected the attempt after a
	// forward.
	target     server
	lastServer shard.ServerID
	srvRegion  int // number of the region the current attempt's reply leg starts in
	resp       appserver.Response
	asp        trace.SpanID // the current attempt's span
	// onResponse is k.serverReplied, bound once per record so that
	// Server.Serve gets a func(Response) without a closure per request.
	onResponse func(appserver.Response)
}

func (c *Client) allocCall() *call {
	k := c.freeCalls
	if k == nil {
		k = &call{c: c}
		k.onResponse = k.serverReplied
	} else {
		c.freeCalls = k.next
		k.next = nil
	}
	k.live = true
	return k
}

// inFlight unboxes a callback's arg and asserts that its request has not
// completed.
func inFlight(a any) *call {
	k := a.(*call)
	if !k.live {
		panic("routing: callback for a request that already completed")
	}
	return k
}

// retryDelay returns the wait before attempt+1: capped exponential backoff
// from retryBase, plus deterministic jitter from the client's own forked RNG.
// A fixed delay synchronizes every client blocked by the same partition into
// one retry storm the instant it heals; the jitter spreads them out.
func (c *Client) retryDelay(attempt int) time.Duration {
	d := retryBase
	for i := 1; i < attempt && d < retryCap; i++ {
		d *= 2
	}
	if d > retryCap {
		d = retryCap
	}
	return d + time.Duration(c.retryRNG.Float64()*retryJitter*float64(d))
}

// try performs the next attempt: request leg (callDelivered | callUnreachable),
// the server's reply (serverReplied), reply leg (callReplied | callReplyLost).
func (k *call) try() {
	c := k.c
	k.attempt++
	k.lastServer = ""
	if tr := c.loop.Tracer(); tr.Enabled() {
		// Map version at attempt time shows which attempts ran on a stale
		// map — the "wrong owner" retry loop of §3.2 made visible.
		k.asp = tr.StartSpan("routing", "attempt", k.req.TraceSpan,
			trace.Int("attempt", k.attempt),
			trace.Int64("map_version", c.MapVersion()))
	}
	target, ok := c.pickServer(c.cells[k.pos], k.req.Write, k.tried)
	if !ok {
		// No candidate at all (no map or no replicas known): retry
		// with a fresh view; an updated map may have arrived by then.
		k.tried = k.tried[:0]
		k.fail("no-replica")
		return
	}
	k.tried = append(k.tried, target.Num)
	k.lastServer = target.Server
	k.target = c.resolve(target)
	c.net.SendTo(c.region, k.target.peer, callDelivered, k, callUnreachable, k)
}

// callDelivered runs at the target's endpoint: whichever server is in the
// directory slot now — the one the map meant, or its restarted successor —
// serves, and the reply leaves from where the fabric has the endpoint.
func callDelivered(a any) {
	k := inFlight(a)
	srv := k.target.slot.Server()
	if srv == nil {
		k.fail("server-gone")
		return
	}
	k.srvRegion = k.target.peer.RegionIndex()
	srv.Serve(&k.req, k.onResponse)
}

// callUnreachable marks the target suspect under the client's current map
// generation before failing the attempt: reads rank it last until a newer
// map arrives.
func callUnreachable(a any) {
	k := inFlight(a)
	k.c.servers[k.tried[len(k.tried)-1]].suspect = k.c.view.Gen
	k.fail("unreachable")
}

// serverReplied sends the response back to the client's region over the
// fabric, so injected link faults can lose or delay the reply leg too.
func (k *call) serverReplied(resp appserver.Response) {
	inFlight(k)
	k.resp = resp
	k.c.net.ReplyAt(k.srvRegion, k.c.region, callReplied, k, callReplyLost, k)
}

func callReplied(a any) {
	k := inFlight(a)
	c, resp := k.c, &k.resp
	if !resp.OK {
		if resp.Server != "" {
			// A forwarded request may be rejected deeper in the
			// chain; attribute the failure to the actual rejecter.
			k.lastServer = resp.Server
		}
		k.fail(resp.Err)
		return
	}
	if tr := c.loop.Tracer(); tr.Enabled() {
		tr.EndSpan(k.asp,
			trace.String("server", string(resp.Server)),
			trace.Int("hops", resp.Hops))
	}
	k.finish(Result{
		OK:         true,
		Payload:    resp.Payload,
		Latency:    c.loop.Now() - k.start,
		Attempts:   k.attempt,
		Hops:       resp.Hops,
		Server:     resp.Server,
		Shard:      k.req.Shard,
		MapVersion: c.MapVersion(),
	})
}

func callReplyLost(a any) { inFlight(a).fail("reply-lost") }

func callRetry(a any) { inFlight(a).try() }

// fail ends the current attempt and schedules the next, or finishes the
// request when the attempts are spent.
func (k *call) fail(errMsg string) {
	c := k.c
	if tr := c.loop.Tracer(); tr.Enabled() {
		tr.EndSpan(k.asp, trace.String("err", errMsg))
	}
	switch errMsg {
	case "fenced", "not-owner", "not-primary":
		// Ownership rejections mean the routing map is behind the
		// server's view; refresh before the retry (and even on the
		// final attempt, for the next request's benefit).
		c.refreshMap()
	}
	if k.attempt >= c.opts.MaxAttempts {
		k.finish(Result{
			Err:        errMsg,
			Latency:    c.loop.Now() - k.start,
			Attempts:   k.attempt,
			Shard:      k.req.Shard,
			RejectedBy: k.lastServer,
			MapVersion: c.MapVersion(),
		})
		return
	}
	c.loop.PostArgL(c.retryDelay(k.attempt), lbRetry, callRetry, k)
}

// finish recycles the record and then reports res — root span, metrics,
// observers, caller, in that order. Recycling first lets a done that issues
// the client's next request reuse the record it just finished with. Recycling
// resets what the next request does not set before reading it: the live flag,
// the attempt count and the tried list; done is dropped so that the idle
// record holds no caller's closure.
func (k *call) finish(res Result) {
	c, done, root := k.c, k.done, k.req.TraceSpan
	k.live, k.attempt, k.tried, k.done = false, 0, k.tried[:0], nil
	k.next, c.freeCalls = c.freeCalls, k

	if tr := c.loop.Tracer(); tr.Enabled() {
		tr.EndSpan(root,
			trace.Bool("ok", res.OK),
			trace.String("err", res.Err),
			trace.Int("attempts", res.Attempts),
			trace.Int("hops", res.Hops),
			trace.String("server", string(res.Server)))
	}
	if mr := c.loop.Metrics(); mr != nil {
		app := string(c.App)
		mr.Counter("routing_requests_total", "app", app).Inc()
		outcome := "ok"
		if !res.OK {
			// res.Err comes from a small fixed set of reject
			// reasons, so it is safe as a label value.
			outcome = res.Err
			if outcome == "" {
				outcome = "error"
			}
		}
		mr.Counter("routing_results_total", "app", app, "outcome", outcome).Inc()
		if res.Attempts > 1 {
			mr.Counter("routing_retries_total", "app", app).Add(int64(res.Attempts - 1))
		}
		if res.OK {
			mr.Histogram("routing_latency_ms", nil, "app", app).
				Observe(float64(res.Latency) / float64(time.Millisecond))
		}
	}
	for _, fn := range c.observers {
		fn(res)
	}
	done(res)
}

// server is what a client keeps per server number: the fabric's record of the
// endpoint and the directory's slot for the ID, both resolved once because
// they outlive restarts, and suspect, the map generation the client routed by
// when a send to the server last came back unreachable. The server is suspect
// while that generation is the client's current one; no generation is 0, so
// an entry never marked is not.
type server struct {
	peer    *rpcnet.Peer
	slot    *appserver.Slot
	suspect int64
}

// resolve returns the client's entry for r's server, looking the two names up
// the first time the number is seen.
func (c *Client) resolve(r discovery.Replica) server {
	if int(r.Num) >= len(c.servers) {
		c.servers = append(c.servers, make([]server, int(r.Num)+1-len(c.servers))...)
	}
	sv := &c.servers[r.Num]
	if sv.peer == nil {
		sv.peer = c.net.Peer(rpcnet.Endpoint(r.Server))
		sv.slot = c.dir.Slot(r.Server)
	}
	return *sv
}

// pickServer chooses a replica of the cell's shard for the request: the
// primary for writes, suspect or not; for reads the untried replica first by
// (suspect, latency, tie): one the client has not found unreachable under its
// current map, then the closest (locality-aware, which is what makes the Fig
// 19 latency curves move), ties broken randomly to spread load — one draw per
// untried replica, in replica order, so a client with no suspect makes the
// same draws and choices as one that keeps no marks. A suspect is chosen only
// when every untried replica is suspect. It is one pass that keeps the
// minimum; on a full tie the earlier replica stays. An endpoint the fabric has
// not seen registered is in region "", a default WAN hop from anywhere.
func (c *Client) pickServer(cell *discovery.Cell, write bool, tried []uint32) (discovery.Replica, bool) {
	replicas := c.view.At(cell)
	if write {
		for _, a := range replicas {
			if a.Role == shard.RolePrimary {
				if slices.Contains(tried, a.Num) {
					return discovery.Replica{}, false
				}
				return a, true
			}
		}
		return discovery.Replica{}, false
	}
	var (
		best  discovery.Replica
		bestR rank
		found bool
	)
	for _, a := range replicas {
		if slices.Contains(tried, a.Num) {
			continue
		}
		sv := c.resolve(a)
		r := rank{
			suspect: sv.suspect >= c.view.Gen,
			lat:     c.fleet.LatencyAt(c.region, sv.peer.RegionIndex()),
			tie:     c.rng.Uint64(),
		}
		if !found || r.closer(bestR) {
			best, bestR, found = a, r, true
		}
	}
	return best, found
}

// rank is a read candidate's sort key: whether the client has found it
// unreachable under its current map, its latency from the client's region,
// and the random tie-break.
type rank struct {
	suspect bool
	lat     time.Duration
	tie     uint64
}

// closer orders read candidates by (suspect, latency, tie): a replica not
// suspect before a suspect one, then the lower latency, then the lower draw.
func (r rank) closer(than rank) bool {
	if r.suspect != than.suspect {
		return !r.suspect
	}
	if r.lat != than.lat {
		return r.lat < than.lat
	}
	return r.tie < than.tie
}
