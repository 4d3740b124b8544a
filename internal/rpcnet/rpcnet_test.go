package rpcnet

import (
	"testing"
	"time"

	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
	"shardmanager/internal/trace"
)

func testNet(t *testing.T) (*sim.Loop, *Network) {
	t.Helper()
	fleet := topology.Build(topology.Spec{
		Regions:           []topology.RegionID{"a", "b"},
		MachinesPerRegion: 1,
		Latency:           map[[2]topology.RegionID]time.Duration{{"a", "b"}: 50 * time.Millisecond},
	})
	loop := sim.NewLoop(1)
	return loop, NewNetwork(loop, fleet)
}

// jittered reports whether d is base stretched by the fabric's jitter: in
// [base, (1+jitter)·base].
func jittered(d, base time.Duration) bool {
	return d >= base && d <= base+time.Duration(jitter*float64(base))
}

func TestSendDeliversWithLatency(t *testing.T) {
	loop, n := testNet(t)
	n.Register("dst", "b")
	var deliveredAt time.Duration
	n.Send("a", "dst", func() { deliveredAt = loop.Now() }, nil)
	loop.Run()
	if !jittered(deliveredAt, 50*time.Millisecond) {
		t.Fatalf("delivered at %v, want 50ms plus jitter", deliveredAt)
	}
	if n.Messages != 1 {
		t.Fatalf("Messages = %d", n.Messages)
	}
}

func TestSendToDownEndpointFails(t *testing.T) {
	loop, n := testNet(t)
	n.Register("dst", "b")
	n.Unregister("dst")
	ok, failed := false, false
	n.Send("a", "dst", func() { ok = true }, func() { failed = true })
	loop.Run()
	if ok || !failed {
		t.Fatalf("ok=%v failed=%v", ok, failed)
	}
}

func TestEndpointGoesDownInFlight(t *testing.T) {
	loop, n := testNet(t)
	n.Register("dst", "b")
	failed := false
	n.Send("a", "dst", nil, func() { failed = true })
	// Kill the endpoint before the message lands.
	loop.AfterL(10*time.Millisecond, 0, func() { n.Unregister("dst") })
	loop.Run()
	if !failed {
		t.Fatal("in-flight message delivered to dead endpoint")
	}
}

func TestReRegisterRevives(t *testing.T) {
	loop, n := testNet(t)
	n.Register("dst", "b")
	n.Unregister("dst")
	n.Register("dst", "b")
	if !n.Reachable("dst") {
		t.Fatal("re-registered endpoint unreachable")
	}
	ok := false
	n.Send("a", "dst", func() { ok = true }, nil)
	loop.Run()
	if !ok {
		t.Fatal("message not delivered after revive")
	}
}

func TestCallRoundTrip(t *testing.T) {
	loop, n := testNet(t)
	n.Register("dst", "b")
	var rtt time.Duration
	handled := false
	n.Call("a", "dst", func() { handled = true }, func() { rtt = loop.Now() }, nil)
	loop.Run()
	if !handled {
		t.Fatal("handler not invoked")
	}
	if !jittered(rtt, 100*time.Millisecond) {
		t.Fatalf("rtt = %v, want 100ms plus jitter", rtt)
	}
}

func TestCallFailure(t *testing.T) {
	loop, n := testNet(t)
	failed := false
	n.Call("a", "ghost", nil, nil, func() { failed = true })
	loop.Run()
	if !failed {
		t.Fatal("call to unknown endpoint did not fail")
	}
}

func TestJitterBounds(t *testing.T) {
	_, n := testNet(t)
	n.Register("dst", "b")
	varied := false
	for i := 0; i < 100; i++ {
		d := n.Delay("a", "b")
		if !jittered(d, 50*time.Millisecond) {
			t.Fatalf("delay %v outside [50ms, 55ms]", d)
		}
		varied = varied || d != 50*time.Millisecond
	}
	if !varied {
		t.Fatal("100 delays without jitter")
	}
}

func TestRegionLookup(t *testing.T) {
	_, n := testNet(t)
	n.Register("x", "a")
	if n.Region("x") != "a" || n.Region("ghost") != "" {
		t.Fatal("Region lookup wrong")
	}
}

func TestFailureDetectedAtSendTimeout(t *testing.T) {
	loop, n := testNet(t)
	n.Register("dst", "b")
	n.Unregister("dst")
	var failedAt time.Duration
	n.Send("a", "dst", nil, func() { failedAt = loop.Now() })
	loop.Run()
	if failedAt != sendTimeout {
		t.Fatalf("failure detected at %v, want sendTimeout %v", failedAt, sendTimeout)
	}
}

func TestTimeoutNeverBeatsSlowSuccess(t *testing.T) {
	// With latency inflated past SendTimeout, a failure must be detected no
	// earlier than the inflated delivery delay — the sender cannot learn of
	// a loss faster than a success could have arrived.
	loop, n := testNet(t)
	n.Register("dst", "b")
	n.Unregister("dst")
	n.SetLinkFault("a", "b", LinkFault{LatencyScale: 40}) // 50ms -> 2s > 1s timeout
	var failedAt time.Duration
	n.Send("a", "dst", nil, func() { failedAt = loop.Now() })
	loop.Run()
	if !jittered(failedAt, 2*time.Second) {
		t.Fatalf("failure detected at %v, want the 2s inflated delay plus jitter", failedAt)
	}
}

func TestPartitionDropsAndFailsAtTimeout(t *testing.T) {
	loop, n := testNet(t)
	n.Register("dst", "b")
	n.SetLinkFault("a", "b", LinkFault{DropProb: 1})
	ok := false
	var failedAt time.Duration
	n.Send("a", "dst", func() { ok = true }, func() { failedAt = loop.Now() })
	loop.Run()
	if ok {
		t.Fatal("message crossed a full partition")
	}
	if failedAt != sendTimeout {
		t.Fatalf("failure detected at %v, want sendTimeout %v", failedAt, sendTimeout)
	}
	if n.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Dropped)
	}
}

func TestOneWayPartitionLeavesReverseOpen(t *testing.T) {
	loop, n := testNet(t)
	n.Register("dst", "b")
	n.Register("src", "a")
	n.SetLinkFault("a", "b", LinkFault{DropProb: 1})
	aToB, bToA := false, false
	n.Send("a", "dst", func() { aToB = true }, nil)
	n.Send("b", "src", func() { bToA = true }, nil)
	loop.Run()
	if aToB || !bToA {
		t.Fatalf("aToB=%v bToA=%v; want only b->a delivered", aToB, bToA)
	}
}

func TestLatencyAddInflatesDelay(t *testing.T) {
	_, n := testNet(t)
	n.SetLinkFault("a", "b", LinkFault{LatencyAdd: 30 * time.Millisecond})
	if d := n.Delay("a", "b"); !jittered(d, 80*time.Millisecond) {
		t.Fatalf("Delay = %v, want 80ms plus jitter", d)
	}
	n.ClearLinkFault("a", "b")
	if d := n.Delay("a", "b"); !jittered(d, 50*time.Millisecond) {
		t.Fatalf("Delay after clear = %v, want 50ms plus jitter", d)
	}
}

func TestZeroLinkFaultClears(t *testing.T) {
	_, n := testNet(t)
	n.SetLinkFault("a", "b", LinkFault{DropProb: 1})
	n.SetLinkFault("a", "b", LinkFault{})
	if n.Partitioned("a", "b") {
		t.Fatal("zero LinkFault should clear the fault")
	}
}

func TestCallFailsWhenReplyLost(t *testing.T) {
	loop, n := testNet(t)
	n.Register("dst", "b")
	n.SetLinkFault("b", "a", LinkFault{DropProb: 1}) // only the reply leg
	handled, done, failed := false, false, false
	n.Call("a", "dst", func() { handled = true }, func() { done = true }, func() { failed = true })
	loop.Run()
	if !handled || done || !failed {
		t.Fatalf("handled=%v done=%v failed=%v; want request delivered, reply lost", handled, done, failed)
	}
}

func TestSendDeliverReplyAllocationFree(t *testing.T) {
	loop, n := testNet(t)
	n.Register("dst", "b")
	served := 0
	handle := func() {}
	done := func() { served++ }
	fail := func() { t.Error("call failed on a healthy link") }
	// Warm the event, envelope, and callState freelists.
	for i := 0; i < 100; i++ {
		n.Call("a", "dst", handle, done, fail)
	}
	loop.Run()
	// Steady state: a full RPC round trip — send, deliver, reply — must not
	// allocate. The pooled envelopes/callStates and the kernel's event
	// freelist are the whole story; no closures, no per-message garbage.
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 10; i++ {
			n.Call("a", "dst", handle, done, fail)
		}
		loop.Run()
	})
	if allocs != 0 {
		t.Fatalf("send->deliver->reply allocated %.2f allocs/run, want 0", allocs)
	}
	if served == 0 {
		t.Fatal("no calls completed")
	}
}

// TestExactlyOneCallbackPerMessage pins the contract pooled callers lean on:
// whatever happens to a SendTo or ReplyAt message — delivered, dropped on
// a partitioned or lossy link, destination down at send time, destination
// dying while the message is in flight, delivery slower than the timeout —
// exactly one of its two callbacks runs, exactly once.
func TestExactlyOneCallbackPerMessage(t *testing.T) {
	type tally struct{ delivered, failed int }
	onDeliver := func(a any) { a.(*tally).delivered++ }
	onFail := func(a any) { a.(*tally).failed++ }
	for _, tc := range []struct {
		name    string
		arrange func(loop *sim.Loop, n *Network)
		// A reply leg has no endpoint to be down: only the link loses it.
		wantSend, wantReply bool
	}{
		{"healthy", func(*sim.Loop, *Network) {}, true, true},
		{"partitioned", func(_ *sim.Loop, n *Network) { n.SetLinkFault("a", "b", LinkFault{DropProb: 1}) }, false, false},
		{"down at send", func(_ *sim.Loop, n *Network) { n.Unregister("dst") }, false, true},
		{"dies in flight", func(loop *sim.Loop, n *Network) {
			loop.AfterL(10*time.Millisecond, 0, func() { n.Unregister("dst") })
		}, false, true},
		{"dies in flight, delivery slower than the timeout", func(loop *sim.Loop, n *Network) {
			n.SetLinkFault("a", "b", LinkFault{LatencyAdd: 2 * sendTimeout})
			loop.AfterL(10*time.Millisecond, 0, func() { n.Unregister("dst") })
		}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop, n := testNet(t)
			n.Register("dst", "b")
			tc.arrange(loop, n)
			var send, reply tally
			a, b := n.fleet.RegionIndex("a"), n.fleet.RegionIndex("b")
			n.SendTo(a, n.Peer("dst"), onDeliver, &send, onFail, &send)
			n.ReplyAt(a, b, onDeliver, &reply, onFail, &reply)
			loop.Run()
			if send.delivered+send.failed != 1 || (send.delivered == 1) != tc.wantSend {
				t.Errorf("SendTo ran %+v, want exactly one callback (delivered: %v)", send, tc.wantSend)
			}
			if reply.delivered+reply.failed != 1 || (reply.delivered == 1) != tc.wantReply {
				t.Errorf("ReplyAt ran %+v, want exactly one callback (delivered: %v)", reply, tc.wantReply)
			}
		})
	}
	// A lossy link draws per message; whichever way each draw falls, the
	// message still ends in one callback.
	loop, n := testNet(t)
	n.Register("dst", "b")
	n.SetLinkFault("a", "b", LinkFault{DropProb: 0.5})
	tallies := make([]tally, 200)
	a, b := n.fleet.RegionIndex("a"), n.fleet.RegionIndex("b")
	for i := 0; i < len(tallies); i += 2 {
		n.SendTo(a, n.Peer("dst"), onDeliver, &tallies[i], onFail, &tallies[i])
		n.ReplyAt(a, b, onDeliver, &tallies[i+1], onFail, &tallies[i+1])
	}
	loop.Run()
	var total tally
	for i, got := range tallies {
		if got.delivered+got.failed != 1 {
			t.Fatalf("message %d on a lossy link ran %+v, want exactly one callback", i, got)
		}
		total.delivered += got.delivered
		total.failed += got.failed
	}
	if total.delivered == 0 || total.failed == 0 {
		t.Fatalf("lossy link: %+v, want both outcomes exercised", total)
	}
}

// TestTraceRecordsCallsNotMessages pins what the fabric traces: a bare
// message (SendTo, ReplyAt) records nothing, since the layer that sent it
// owns its fate in its own span, and each Call records exactly one "rpc"
// span whose status says how the round trip ended.
func TestTraceRecordsCallsNotMessages(t *testing.T) {
	loop, n := testNet(t)
	tr := trace.New()
	loop.SetTracer(tr)
	n.Register("dst", "b")
	n.Register("far", "b")
	n.SetLinkFault("a", "a", LinkFault{DropProb: 1})
	a, b := n.fleet.RegionIndex("a"), n.fleet.RegionIndex("b")
	nop := func(any) {}
	n.SendTo(a, n.Peer("dst"), nop, nil, nop, nil)
	n.SendTo(a, n.Peer("ghost"), nop, nil, nop, nil)
	n.ReplyAt(b, a, nop, nil, nop, nil)
	n.ReplyAt(a, a, nop, nil, nop, nil)
	loop.Run()
	if spans := tr.Spans(); len(spans) != 0 {
		t.Fatalf("bare messages recorded %d spans, want none", len(spans))
	}

	n.Call("a", "dst", nil, nil, nil) // ok
	loop.Run()
	n.Call("a", "ghost", nil, nil, nil) // failed: unknown endpoint
	n.SetLinkFault("b", "a", LinkFault{DropProb: 1})
	n.Call("a", "far", nil, nil, nil) // reply-lost: the reply leg is cut
	loop.Run()
	var got []string
	for _, sp := range tr.Spans() {
		if sp.Component != "rpcnet" || sp.Name != "rpc" || !sp.Ended {
			t.Fatalf("span %s/%s (ended %v), want only ended rpcnet/rpc spans", sp.Component, sp.Name, sp.Ended)
		}
		got = append(got, sp.Attr("to")+":"+sp.Attr("status"))
	}
	want := []string{"dst:ok", "ghost:failed", "far:reply-lost"}
	if len(got) != len(want) {
		t.Fatalf("rpc spans %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rpc spans %v, want %v", got, want)
		}
	}
}
