package experiments

import (
	"testing"
	"time"

	"shardmanager/internal/apps"
	"shardmanager/internal/routing"
	"shardmanager/internal/topology"
)

// TestFailedRegionCostsAClientOneRetryPerServerPerMap: an FRC client reads
// the geokv world while FRC is down, one read at a time. No shard prefers FRC,
// so every shard keeps a replica elsewhere, and a read needs a second attempt
// only when its first went to an FRC server the client had not found
// unreachable under the map it was routing by. That happens at most once per
// FRC server per map generation the client routes by during the outage. (Reads
// in flight together all pay the first timeout, so the bound is for one
// reader in sequence.) Here the client installs one map during the outage, so
// at most 8 reads may retry; 4 of 238 do. The client before the rule sent
// every read whose closest replica was in FRC there first, and 16 of 110
// retried.
func TestFailedRegionCostsAClientOneRetryPerServerPerMap(t *testing.T) {
	const (
		shards, perRegion = 120, 4
		think, outage     = 20 * time.Millisecond, 30 * time.Second
	)
	d := Build(GeoKVSpec("geostore", [3]topology.RegionID{"frc", "prn", "odn"}, "prn",
		shards, 2, perRegion, 19))
	if err := d.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	client := d.NewClient("frc", KeyspaceFor(shards), routing.DefaultOptions())
	d.Loop.RunFor(time.Second)

	// Each read is issued a think time after the previous one finished, until
	// the outage ends; the region stays down until the last one has finished.
	issuing, reads, retried := true, 0, 0
	rng := d.Loop.RNG().Fork()
	var read func()
	read = func() {
		reads++
		client.Do(KeyForShard(rng.Intn(shards)), false, apps.KVOpScan, nil, func(res routing.Result) {
			if res.Attempts > 1 {
				retried++
			}
			if issuing {
				d.Loop.AfterL(think, lbExpClient, read)
			}
		})
	}
	maps := client.MapUpdates
	d.Managers["frc"].FailRegion()
	read()
	d.Loop.RunFor(outage)
	issuing = false
	d.Loop.RunFor(30 * time.Second)
	maps = client.MapUpdates - maps

	if limit := perRegion * int(maps+1); retried > limit {
		t.Fatalf("%d of %d reads retried while FRC was down, want at most %d (%d FRC servers x (%d maps installed + 1))",
			retried, reads, limit, perRegion, maps)
	}
	t.Logf("%d of %d reads retried; %d maps installed", retried, reads, maps)
}
