package integration

import (
	"testing"
	"time"

	"shardmanager/internal/apps"
	"shardmanager/internal/cluster"
	"shardmanager/internal/experiments"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/topology"
)

// TestControlPlaneOutageDoesNotTakeAppDown asserts §6.2: "Even if all SM
// control-plane components are down, application clients can continue to
// send requests to application servers, although new shard assignments
// would not be generated."
func TestControlPlaneOutageDoesNotTakeAppDown(t *testing.T) {
	d, _ := buildKV(t, []topology.RegionID{"r1"}, 4, 60, 1, nil, nil)
	ks := experiments.KeyspaceFor(60)
	client := d.NewClient("r1", ks, routing.DefaultOptions())
	d.Loop.RunFor(5 * time.Second)

	doPut := func(i int) bool {
		ok := false
		client.Do(experiments.KeyForShard(i), true, apps.KVOpPut, apps.KVPut{Value: "v"},
			func(res routing.Result) { ok = res.OK })
		d.Loop.RunFor(2 * time.Second)
		return ok
	}
	if !doPut(0) {
		t.Fatal("request failed before outage")
	}

	// The entire SM control plane goes down.
	d.Orch.Stop()
	published := func() int64 { return d.Disc.Latest(d.App).Version }
	versionAtOutage := published()

	// Clients keep working off the last published map for a long time.
	for i := 0; i < 20; i++ {
		if !doPut(i) {
			t.Fatalf("request %d failed during control-plane outage", i)
		}
	}
	d.Loop.RunFor(10 * time.Minute)
	if !doPut(5) {
		t.Fatal("request failed late in the outage")
	}

	// But failures are NOT repaired while the control plane is down: a
	// dead server's shards stay unassigned.
	mgr := d.Managers["r1"]
	victim := shard.ServerID(mgr.RunningContainers(d.Jobs["r1"])[0])
	lost := d.Orch.ShardsOnServer(victim)
	if lost == 0 {
		t.Fatal("victim held no shards")
	}
	c, _ := mgr.Container(cluster.ContainerID(victim))
	mgr.KillMachine(c.Machine)
	d.Loop.RunFor(10 * time.Minute)
	if published() != versionAtOutage {
		t.Fatalf("map version moved during outage: %d -> %d", versionAtOutage, published())
	}
	if d.Orch.EmergencyRuns.Value() != 0 {
		t.Fatal("emergency allocation ran while control plane was down")
	}

	// The control plane recovers and repairs the damage.
	d.Orch.Start()
	d.Loop.RunFor(10 * time.Minute)
	if d.Orch.ShardsOnServer(victim) != 0 {
		t.Fatalf("dead server still holds %d shards after recovery", d.Orch.ShardsOnServer(victim))
	}
	if published() == versionAtOutage {
		t.Fatal("no new map published after recovery")
	}
	// Shards are fully served again.
	for i := 0; i < 20; i++ {
		if !doPut(i) {
			t.Fatalf("request %d failed after recovery", i)
		}
	}
}
