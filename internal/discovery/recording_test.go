package discovery

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"shardmanager/internal/metrics"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/trace"
)

// recordDeliveries drives one scripted publish sequence — a snapshot, deltas,
// two deltas racing each other, stale-generation publishes and one that does
// not chain, a cancelled subscriber, late subscribers catching up under a
// racing publish, and a delta overtaking the snapshot it chains onto — and
// logs everything a delivery can be observed through: each observer call,
// each subscriber callback, the propagate spans with their attributes, the
// discovery metric families and Loop.Dispatched(). Delays come from
// DefaultDelay, so the log also pins RNG draw order.
func recordDeliveries(t *testing.T) []string {
	loop := sim.NewLoop(42)
	tr := trace.New()
	loop.SetTracer(tr)
	reg := metrics.NewRegistry()
	loop.SetMetrics(reg)
	svc := NewService(loop, nil)

	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", loop.Now())+fmt.Sprintf(format, args...))
	}
	svc.AddObserver(func(app shard.AppID, version int64, lag time.Duration, status string) {
		logf("obs %s v%d lag=%v %s", app, version, lag, status)
	})
	var subs []*Subscription
	subscribe := func() {
		i := len(subs)
		// "full" is the recording's line format from when a delivery carried a
		// whole map; kept so the lines compare against that recording.
		subs = append(subs, svc.Subscribe("app", func(v View) {
			logf("sub%d full v%d", i, v.Version)
		}))
	}
	full := func(v, gen int64) {
		m := mapV(v)
		m.Gen = gen
		svc.Publish(snap(m))
	}
	delta := func(from, to, gen int64) {
		svc.Publish(stageDelta(nil, from, to, gen, shard.ServerID(fmt.Sprintf("srv%d", to))))
	}
	settle := func() { loop.RunFor(3 * time.Second) }

	for i := 0; i < 5; i++ {
		subscribe()
	}
	full(1, 1)
	settle()
	delta(1, 2, 2)
	settle()
	delta(2, 3, 3) // races 3->4: a subscriber may see v4 first and then drop v3
	delta(3, 4, 4)
	settle()
	full(5, 2)     // stale generation
	delta(4, 5, 2) // stale generation
	delta(7, 8, 9) // does not chain: the service never saw v7
	settle()
	subs[1].Cancel()
	delta(4, 5, 5)
	settle()
	subscribe() // late subscribers: catch-up at v5 ...
	subscribe()
	full(6, 6) // ... racing the next publish
	settle()
	delta(6, 7, 7)
	settle()
	full(8, 8) // the 8->9 delta may overtake the snapshot it chains onto
	delta(8, 9, 9)
	settle()

	for _, sp := range tr.FindSpans("discovery", "propagate") {
		log = append(log, fmt.Sprintf("span %v..%v %v", sp.Start, sp.End, sp.Attrs))
	}
	var buf bytes.Buffer
	if err := reg.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "discovery_") && !strings.Contains(line, ",le=") {
			log = append(log, "metric "+line)
		}
	}
	log = append(log, fmt.Sprintf("publications=%d dispatched=%d", svc.Publications, loop.Dispatched()))
	return log
}

// TestDeliveryRecording pins the delivery path against a recording taken at
// the last commit that still had whole-map publication, on its full-publish
// side (every publish of the script a whole map, every subscriber a whole-map
// subscriber): same observer calls, subscriber callbacks, spans, metrics and
// event count. The one line that differs from that run is
// discovery_stale_publishes_total, 3 for its 2: the script's non-chaining
// delta, which had no whole-map form to record, is dropped and counted there.
func TestDeliveryRecording(t *testing.T) {
	got := recordDeliveries(t)
	wantLines := strings.Split(strings.TrimSpace(deliveryRecording), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}

const deliveryRecording = `
898.03121ms obs app v1 lag=898.03121ms delivered
898.03121ms sub4 full v1
1.051538985s obs app v1 lag=1.051538985s delivered
1.051538985s sub3 full v1
1.266467397s obs app v1 lag=1.266467397s delivered
1.266467397s sub1 full v1
1.575037665s obs app v1 lag=1.575037665s delivered
1.575037665s sub0 full v1
1.589869529s obs app v1 lag=1.589869529s delivered
1.589869529s sub2 full v1
3.641999212s obs app v2 lag=641.999212ms delivered
3.641999212s sub2 full v2
4.032789712s obs app v2 lag=1.032789712s delivered
4.032789712s sub0 full v2
4.205580618s obs app v2 lag=1.205580618s delivered
4.205580618s sub4 full v2
4.477527477s obs app v2 lag=1.477527477s delivered
4.477527477s sub1 full v2
4.695003552s obs app v2 lag=1.695003552s delivered
4.695003552s sub3 full v2
6.877056028s obs app v3 lag=877.056028ms delivered
6.877056028s sub1 full v3
6.880827364s obs app v3 lag=880.827364ms delivered
6.880827364s sub2 full v3
6.882783859s obs app v3 lag=882.783859ms delivered
6.882783859s sub0 full v3
6.906278408s obs app v4 lag=906.278408ms delivered
6.906278408s sub2 full v4
7.0731657s obs app v4 lag=1.0731657s delivered
7.0731657s sub0 full v4
7.076079299s obs app v4 lag=1.076079299s delivered
7.076079299s sub1 full v4
7.109008842s obs app v3 lag=1.109008842s delivered
7.109008842s sub3 full v3
7.344066401s obs app v4 lag=1.344066401s delivered
7.344066401s sub4 full v4
7.585403199s obs app v3 lag=1.585403199s stale
7.704507992s obs app v4 lag=1.704507992s delivered
7.704507992s sub3 full v4
13.214374955s obs app v5 lag=1.214374955s delivered
13.214374955s sub2 full v5
13.349255123s obs app v5 lag=1.349255123s cancelled
13.721268867s obs app v5 lag=1.721268867s delivered
13.721268867s sub3 full v5
13.816436478s obs app v5 lag=1.816436478s delivered
13.816436478s sub0 full v5
13.93762967s obs app v5 lag=1.93762967s delivered
13.93762967s sub4 full v5
15.815805165s obs app v6 lag=815.805165ms delivered
15.815805165s sub3 full v6
15.955284713s obs app v6 lag=955.284713ms delivered
15.955284713s sub5 full v6
16.277334274s obs app v6 lag=1.277334274s delivered
16.277334274s sub2 full v6
16.507811141s obs app v5 lag=4.507811141s stale
16.517234617s obs app v6 lag=1.517234617s delivered
16.517234617s sub6 full v6
16.535570619s obs app v6 lag=1.535570619s delivered
16.535570619s sub4 full v6
16.567904414s obs app v6 lag=1.567904414s cancelled
16.577274303s obs app v5 lag=4.577274303s stale
16.721549892s obs app v6 lag=1.721549892s delivered
16.721549892s sub0 full v6
18.761279178s obs app v7 lag=761.279178ms delivered
18.761279178s sub6 full v7
18.805671173s obs app v7 lag=805.671173ms cancelled
18.962451879s obs app v7 lag=962.451879ms delivered
18.962451879s sub0 full v7
19.277174132s obs app v7 lag=1.277174132s delivered
19.277174132s sub3 full v7
19.326627916s obs app v7 lag=1.326627916s delivered
19.326627916s sub2 full v7
19.689750554s obs app v7 lag=1.689750554s delivered
19.689750554s sub4 full v7
19.959755459s obs app v7 lag=1.959755459s delivered
19.959755459s sub5 full v7
21.655085777s obs app v8 lag=655.085777ms cancelled
21.753544158s obs app v8 lag=753.544158ms delivered
21.753544158s sub4 full v8
21.807562061s obs app v8 lag=807.562061ms delivered
21.807562061s sub0 full v8
21.839575144s obs app v9 lag=839.575144ms delivered
21.839575144s sub5 full v9
21.964093246s obs app v9 lag=964.093246ms delivered
21.964093246s sub2 full v9
22.015345513s obs app v8 lag=1.015345513s delivered
22.015345513s sub6 full v8
22.10134893s obs app v9 lag=1.10134893s cancelled
22.111797871s obs app v9 lag=1.111797871s delivered
22.111797871s sub4 full v9
22.180358095s obs app v8 lag=1.180358095s stale
22.263386673s obs app v8 lag=1.263386673s delivered
22.263386673s sub3 full v8
22.561676155s obs app v8 lag=1.561676155s stale
22.578524407s obs app v9 lag=1.578524407s delivered
22.578524407s sub6 full v9
22.639004771s obs app v9 lag=1.639004771s delivered
22.639004771s sub0 full v9
22.734627508s obs app v9 lag=1.734627508s delivered
22.734627508s sub3 full v9
span 0s..1.575037665s [{app app} {version 1} {sub 0} {status delivered}]
span 0s..1.266467397s [{app app} {version 1} {sub 1} {status delivered}]
span 0s..1.589869529s [{app app} {version 1} {sub 2} {status delivered}]
span 0s..1.051538985s [{app app} {version 1} {sub 3} {status delivered}]
span 0s..898.03121ms [{app app} {version 1} {sub 4} {status delivered}]
span 3s..4.032789712s [{app app} {version 2} {sub 0} {status delivered}]
span 3s..4.477527477s [{app app} {version 2} {sub 1} {status delivered}]
span 3s..3.641999212s [{app app} {version 2} {sub 2} {status delivered}]
span 3s..4.695003552s [{app app} {version 2} {sub 3} {status delivered}]
span 3s..4.205580618s [{app app} {version 2} {sub 4} {status delivered}]
span 6s..6.882783859s [{app app} {version 3} {sub 0} {status delivered}]
span 6s..6.877056028s [{app app} {version 3} {sub 1} {status delivered}]
span 6s..6.880827364s [{app app} {version 3} {sub 2} {status delivered}]
span 6s..7.109008842s [{app app} {version 3} {sub 3} {status delivered}]
span 6s..7.585403199s [{app app} {version 3} {sub 4} {status stale}]
span 6s..7.0731657s [{app app} {version 4} {sub 0} {status delivered}]
span 6s..7.076079299s [{app app} {version 4} {sub 1} {status delivered}]
span 6s..6.906278408s [{app app} {version 4} {sub 2} {status delivered}]
span 6s..7.704507992s [{app app} {version 4} {sub 3} {status delivered}]
span 6s..7.344066401s [{app app} {version 4} {sub 4} {status delivered}]
span 12s..13.816436478s [{app app} {version 5} {sub 0} {status delivered}]
span 12s..13.349255123s [{app app} {version 5} {sub 1} {status cancelled}]
span 12s..13.214374955s [{app app} {version 5} {sub 2} {status delivered}]
span 12s..13.721268867s [{app app} {version 5} {sub 3} {status delivered}]
span 12s..13.93762967s [{app app} {version 5} {sub 4} {status delivered}]
span 15s..16.507811141s [{app app} {version 5} {sub 5} {status stale}]
span 15s..16.577274303s [{app app} {version 5} {sub 6} {status stale}]
span 15s..16.721549892s [{app app} {version 6} {sub 0} {status delivered}]
span 15s..16.567904414s [{app app} {version 6} {sub 1} {status cancelled}]
span 15s..16.277334274s [{app app} {version 6} {sub 2} {status delivered}]
span 15s..15.815805165s [{app app} {version 6} {sub 3} {status delivered}]
span 15s..16.535570619s [{app app} {version 6} {sub 4} {status delivered}]
span 15s..15.955284713s [{app app} {version 6} {sub 5} {status delivered}]
span 15s..16.517234617s [{app app} {version 6} {sub 6} {status delivered}]
span 18s..18.962451879s [{app app} {version 7} {sub 0} {status delivered}]
span 18s..18.805671173s [{app app} {version 7} {sub 1} {status cancelled}]
span 18s..19.326627916s [{app app} {version 7} {sub 2} {status delivered}]
span 18s..19.277174132s [{app app} {version 7} {sub 3} {status delivered}]
span 18s..19.689750554s [{app app} {version 7} {sub 4} {status delivered}]
span 18s..19.959755459s [{app app} {version 7} {sub 5} {status delivered}]
span 18s..18.761279178s [{app app} {version 7} {sub 6} {status delivered}]
span 21s..21.807562061s [{app app} {version 8} {sub 0} {status delivered}]
span 21s..21.655085777s [{app app} {version 8} {sub 1} {status cancelled}]
span 21s..22.561676155s [{app app} {version 8} {sub 2} {status stale}]
span 21s..22.263386673s [{app app} {version 8} {sub 3} {status delivered}]
span 21s..21.753544158s [{app app} {version 8} {sub 4} {status delivered}]
span 21s..22.180358095s [{app app} {version 8} {sub 5} {status stale}]
span 21s..22.015345513s [{app app} {version 8} {sub 6} {status delivered}]
span 21s..22.639004771s [{app app} {version 9} {sub 0} {status delivered}]
span 21s..22.10134893s [{app app} {version 9} {sub 1} {status cancelled}]
span 21s..21.964093246s [{app app} {version 9} {sub 2} {status delivered}]
span 21s..22.734627508s [{app app} {version 9} {sub 3} {status delivered}]
span 21s..22.111797871s [{app app} {version 9} {sub 4} {status delivered}]
span 21s..21.839575144s [{app app} {version 9} {sub 5} {status delivered}]
span 21s..22.578524407s [{app app} {version 9} {sub 6} {status delivered}]
metric discovery_deliveries_total,counter,app=app;status=cancelled,value,5
metric discovery_deliveries_total,counter,app=app;status=delivered,value,45
metric discovery_deliveries_total,counter,app=app;status=stale,value,5
metric discovery_map_version,gauge,app=app,value,9
metric discovery_propagation_ms,histogram,app=app,sum,56484.60896999999
metric discovery_propagation_ms,histogram,app=app,count,45
metric discovery_publications_total,counter,app=app,value,9
metric discovery_stale_publishes_total,counter,app=app,value,3
publications=9 dispatched=55
`
