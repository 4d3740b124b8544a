package experiments

import (
	"fmt"
	"testing"
	"time"

	"shardmanager/internal/apps"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// TestDriveKeepsTheLoopsDrawOrder: Drive sends what the hand-written loops it
// replaced sent. Each row builds the same small geokv world twice, drives one
// with the reference loop below (the torture sweep's, with fig18's per-tick
// count in front when the row has one) and the other with Drive, and fails a
// region mid-run so results differ in attempts and map version. Every result
// must match in completion order: shard, OK, latency, attempts and map
// version.
func TestDriveKeepsTheLoopsDrawOrder(t *testing.T) {
	const (
		shards   = 24
		interval = 50 * time.Millisecond
	)
	diurnal := func(rng *sim.RNG) int { // fig18's form: a fractional rate rounded at random
		rate := 2.5
		n := int(rate)
		if rng.Float64() < rate-float64(n) {
			n++
		}
		return n
	}
	run := func(t *testing.T, drive func(d *Deployment, c *routing.Client, rec func(routing.Result))) []routing.Result {
		spec := GeoKVSpec("geostore", [3]topology.RegionID{"frc", "prn", "odn"}, "prn", shards, 2, 3, 11)
		spec.Orch.Strategy = shard.PrimarySecondary // as the torture world: puts need a primary
		d := Build(spec)
		if err := d.Settle(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
		c := d.NewClient("frc", KeyspaceFor(shards), routing.DefaultOptions())
		d.Loop.RunFor(3 * time.Second) // the client's first map
		var got []routing.Result
		drive(d, c, func(res routing.Result) { got = append(got, res) })
		d.Loop.RunFor(10 * time.Second)
		d.Managers["odn"].FailRegion()
		d.Loop.RunFor(30 * time.Second)
		return got
	}
	for _, tc := range []struct {
		name  string
		count func(*sim.RNG) int
	}{
		{"one request per tick (torture)", nil},
		{"a count per tick (fig18)", diurnal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := run(t, func(d *Deployment, c *routing.Client, rec func(routing.Result)) {
				rng := d.Loop.RNG().Fork()
				d.Loop.EveryL(interval, lbExpClient, func() {
					n := 1
					if tc.count != nil {
						n = tc.count(rng)
					}
					for ; n > 0; n-- {
						i := rng.Intn(shards)
						key := KeyForShard(i)
						if rng.Float64() < 0.5 {
							c.Do(key, true, apps.KVOpPut, apps.KVPut{Value: fmt.Sprintf("v%d", i)}, rec)
						} else {
							c.Do(key, false, apps.KVOpGet, nil, rec)
						}
					}
				})
			})
			got := run(t, func(d *Deployment, c *routing.Client, rec func(routing.Result)) {
				d.Drive(c, interval, shards, tc.count, func(rng *sim.RNG, i int) (bool, string, any) {
					if rng.Float64() < 0.5 {
						return true, apps.KVOpPut, apps.KVPut{Value: fmt.Sprintf("v%d", i)}
					}
					return false, apps.KVOpGet, nil
				}, rec)
			})

			retried, failed := 0, 0
			for i := range min(len(got), len(want)) {
				g, w := got[i], want[i]
				if g.Shard != w.Shard || g.OK != w.OK || g.Latency != w.Latency ||
					g.Attempts != w.Attempts || g.MapVersion != w.MapVersion {
					t.Fatalf("result %d: Drive got shard %s ok=%v latency=%v attempts=%d map v%d, the loop shard %s ok=%v latency=%v attempts=%d map v%d",
						i, g.Shard, g.OK, g.Latency, g.Attempts, g.MapVersion, w.Shard, w.OK, w.Latency, w.Attempts, w.MapVersion)
				}
				if g.Attempts > 1 {
					retried++
				}
				if !g.OK {
					failed++
				}
			}
			if len(got) != len(want) {
				t.Fatalf("Drive completed %d requests, the loop %d", len(got), len(want))
			}
			if retried == 0 {
				t.Fatalf("none of %d requests retried: the region failure did not reach the client", len(got))
			}
			t.Logf("%d requests alike, %d retried, %d failed", len(got), retried, failed)
		})
	}
}
