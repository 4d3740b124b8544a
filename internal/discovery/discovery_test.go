package discovery

import (
	"testing"
	"time"

	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
)

func mapV(v int64) *shard.Map {
	m := &shard.Map{App: "app", Entries: map[shard.ID][]shard.Assignment{}}
	m.Version, m.Gen = v, v
	m.Entries["s1"] = []shard.Assignment{{Server: shard.ServerID("srv"), Role: shard.RolePrimary}}
	return m
}

// snap is m's snapshot publication: the whole map as a FromVersion-0 delta.
func snap(m *shard.Map) *shard.Delta { return m.Diff(nil, nil) }

func TestPublishDeliversAfterDelay(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	var got []int64
	svc.Subscribe("app", func(v View) { got = append(got, v.Version) })
	svc.Publish(snap(mapV(1)))
	loop.RunFor(500 * time.Millisecond)
	if len(got) != 0 {
		t.Fatal("delivered before propagation delay")
	}
	loop.RunFor(time.Second)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got = %v", got)
	}
}

func TestSubscribeReceivesCurrentMap(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	svc.Publish(snap(mapV(7)))
	var got int64
	svc.Subscribe("app", func(v View) { got = v.Version })
	loop.RunFor(2 * time.Second)
	if got != 7 {
		t.Fatalf("late subscriber got v%d, want 7", got)
	}
}

func TestStaleVersionsIgnoredOnPublish(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	svc.Publish(snap(mapV(5)))
	svc.Publish(snap(mapV(4))) // older, ignored
	svc.Publish(snap(mapV(5))) // same, ignored
	if svc.Publications != 1 {
		t.Fatalf("Publications = %d, want 1", svc.Publications)
	}
	if got := svc.Latest("app").Version; got != 5 {
		t.Fatalf("Latest = v%d", got)
	}
}

func TestOutOfOrderDeliverySuppressed(t *testing.T) {
	loop := sim.NewLoop(1)
	// Delay alternates long, short: v1 delivery scheduled with a longer
	// delay than v2, so v2 arrives first and v1 must be dropped.
	delays := []time.Duration{3 * time.Second, 1 * time.Second}
	i := 0
	svc := NewService(loop, func(*sim.RNG) time.Duration {
		d := delays[i%len(delays)]
		i++
		return d
	})
	var got []int64
	svc.Subscribe("app", func(v View) { got = append(got, v.Version) })
	svc.Publish(snap(mapV(1)))
	svc.Publish(snap(mapV(2)))
	loop.RunFor(10 * time.Second)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got = %v, want just [2]", got)
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(time.Second))
	n := 0
	sub := svc.Subscribe("app", func(View) { n++ })
	svc.Publish(snap(mapV(1)))
	sub.Cancel()
	loop.RunFor(5 * time.Second)
	if n != 0 {
		t.Fatalf("cancelled subscriber received %d maps", n)
	}
}

func TestPublishClonesMap(t *testing.T) {
	loop := sim.NewLoop(1)
	svc := NewService(loop, FixedDelay(0))
	d := snap(mapV(1))
	svc.Publish(d)
	d.Changed[0].Assignments[0].Server = "mutated"
	if svc.Latest("app").Replicas("s1")[0].Server != "srv" {
		t.Fatal("Publish did not copy out of the delta")
	}
}

func TestCurrentUnknownApp(t *testing.T) {
	svc := NewService(sim.NewLoop(1), nil)
	v := svc.Latest("nope")
	if v != (View{}) || v.Replicas("s1") != nil || v.Map() != nil {
		t.Fatalf("Latest of unknown app = %+v, want the zero View", v)
	}
}

func TestUniformDelayBounds(t *testing.T) {
	rng := sim.NewRNG(3)
	f := UniformDelay(time.Second, 2*time.Second)
	for i := 0; i < 1000; i++ {
		d := f(rng)
		if d < time.Second || d > 2*time.Second {
			t.Fatalf("delay %v out of bounds", d)
		}
	}
}

func TestUniformDelayPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UniformDelay(2*time.Second, time.Second)
}

func TestMultipleSubscribersIndependentDelays(t *testing.T) {
	loop := sim.NewLoop(42)
	svc := NewService(loop, DefaultDelay())
	n := 0
	for i := 0; i < 50; i++ {
		svc.Subscribe("app", func(View) { n++ })
	}
	svc.Publish(snap(mapV(1)))
	loop.RunFor(3 * time.Second)
	if n != 50 {
		t.Fatalf("deliveries = %d, want 50", n)
	}
}

func TestPanicsOnNilArgs(t *testing.T) {
	svc := NewService(sim.NewLoop(1), nil)
	for name, fn := range map[string]func(){
		"publish nil":   func() { svc.Publish(nil) },
		"subscribe nil": func() { svc.Subscribe("app", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestPublishWithoutGenerationPanics: maps are ordered by generation alone,
// so a delta with none has no place in the order.
func TestPublishWithoutGenerationPanics(t *testing.T) {
	svc := NewService(sim.NewLoop(1), nil)
	m := mapV(1)
	m.Gen = 0
	defer func() {
		if recover() == nil {
			t.Fatal("Publish of a generation-0 delta did not panic")
		}
	}()
	svc.Publish(snap(m))
}

// TestSubscriberDeliveryTimingUnaffectedByOtherSubscribers is the regression
// test for the shared-RNG bug: delivery delays used to come from one service
// stream consumed in delivery order, so adding a subscriber shifted every
// other subscriber's delay sequence. With per-subscriber forked RNGs, an
// earlier subscriber's timing is identical whether or not later subscribers
// exist.
func TestSubscriberDeliveryTimingUnaffectedByOtherSubscribers(t *testing.T) {
	run := func(extraSubscribers int) []time.Duration {
		loop := sim.NewLoop(42)
		svc := NewService(loop, DefaultDelay())
		var at []time.Duration
		svc.Subscribe("app", func(View) { at = append(at, loop.Now()) })
		for i := 0; i < extraSubscribers; i++ {
			svc.Subscribe("app", func(View) {})
		}
		for v := int64(1); v <= 5; v++ {
			svc.Publish(snap(mapV(v)))
			loop.RunFor(5 * time.Second)
		}
		return at
	}
	alone := run(0)
	crowded := run(7)
	if len(alone) != 5 || len(crowded) != 5 {
		t.Fatalf("deliveries = %d and %d, want 5 each", len(alone), len(crowded))
	}
	for i := range alone {
		if alone[i] != crowded[i] {
			t.Fatalf("delivery %d at %v alone but %v with extra subscribers", i, alone[i], crowded[i])
		}
	}
}

// A cancelled subscription must not change the delay sequence of the
// remaining subscribers either.
func TestCancelDoesNotPerturbOtherSubscribers(t *testing.T) {
	run := func(cancel bool) []time.Duration {
		loop := sim.NewLoop(7)
		svc := NewService(loop, DefaultDelay())
		var at []time.Duration
		svc.Subscribe("app", func(View) { at = append(at, loop.Now()) })
		other := svc.Subscribe("app", func(View) {})
		if cancel {
			other.Cancel()
		}
		for v := int64(1); v <= 5; v++ {
			svc.Publish(snap(mapV(v)))
			loop.RunFor(5 * time.Second)
		}
		return at
	}
	kept, cancelled := run(false), run(true)
	for i := range kept {
		if kept[i] != cancelled[i] {
			t.Fatalf("delivery %d moved from %v to %v when a sibling cancelled", i, kept[i], cancelled[i])
		}
	}
}
