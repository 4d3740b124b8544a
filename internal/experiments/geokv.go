package experiments

import (
	"time"

	"shardmanager/internal/allocator"
	"shardmanager/internal/apps"
	"shardmanager/internal/appserver"
	"shardmanager/internal/metrics"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/routing"
	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
	"shardmanager/internal/topology"
)

// GeoKVSpec returns the three-region, secondary-only KV world that Fig 19, the
// compound-fault experiment and `smctl status -scenario geofailover` share,
// for the caller to adjust and build:
// region-spread placement under graceful migration, with regions[0] (where
// the experiment's client sits) 35 ms from regions[1] and 45 ms from
// regions[2], which are 80 ms apart.
func GeoKVSpec(app shard.AppID, regions [3]topology.RegionID, home topology.RegionID,
	shards, replicas, serversPerRegion int, seed uint64) DeploymentSpec {
	pol := allocator.DefaultPolicy(topology.ResourceCPU, topology.ResourceShardCount)
	pol.SpreadWeight = 100
	backing := apps.NewKVBacking()
	return DeploymentSpec{
		Regions:          regions[:],
		ServersPerRegion: serversPerRegion,
		Latency: map[[2]topology.RegionID]time.Duration{
			{regions[0], regions[1]}: 35 * time.Millisecond,
			{regions[0], regions[2]}: 45 * time.Millisecond,
			{regions[1], regions[2]}: 80 * time.Millisecond,
		},
		Orch: orchestrator.Config{
			App:      app,
			Strategy: shard.SecondaryOnly,
			Shards: UniformShardConfigs(shards, replicas, topology.Capacity{
				topology.ResourceCPU:        0.5,
				topology.ResourceShardCount: 1,
			}),
			Policy: pol,
			ServerCapacity: topology.Capacity{
				topology.ResourceCPU:        100,
				topology.ResourceShardCount: float64(shards),
			},
			HomeRegion:              home,
			GracefulMigration:       true,
			FailoverGrace:           20 * time.Second,
			AllocInterval:           15 * time.Second,
			MaxConcurrentMigrations: 200,
		},
		AppFactory: func(s *appserver.Server) appserver.Application {
			return apps.NewKVStore(s, backing)
		},
		Seed: seed,
	}
}

// kvReads is an open-loop KVOpScan read workload and what it observed:
// per-request latency (ms) and failures, timestamped relative to T0.
type kvReads struct {
	T0                time.Duration
	Latency, Failures *metrics.Series
}

// startKVReads drives rate reads per second from client, each to a uniformly
// chosen shard among the first shards of the keyspace.
func startKVReads(d *Deployment, client *routing.Client, rate, shards int) *kvReads {
	w := &kvReads{
		T0:       d.Loop.Now(),
		Latency:  &metrics.Series{},
		Failures: &metrics.Series{},
	}
	d.Drive(client, time.Second/time.Duration(rate), shards, nil,
		func(*sim.RNG, int) (bool, string, any) { return false, apps.KVOpScan, nil },
		func(res routing.Result) {
			if res.OK {
				w.Latency.Record(d.Loop.Now()-w.T0, float64(res.Latency)/float64(time.Millisecond))
			} else {
				w.Failures.Record(d.Loop.Now()-w.T0, 1)
			}
		})
	return w
}

// latencyCurve buckets the observed latencies into 10 s means over
// [0, horizon), skipping buckets with no successful read.
func (w *kvReads) latencyCurve(name string, horizon time.Duration) Curve {
	curve := Curve{Name: name, Unit: "ms"}
	bucket := 10 * time.Second
	for t := time.Duration(0); t < horizon; t += bucket {
		pts := w.Latency.Between(t, t+bucket-1)
		if len(pts) == 0 {
			continue
		}
		sum := 0.0
		for _, pt := range pts {
			sum += pt.V
		}
		curve.Points = append(curve.Points, point(t, sum/float64(len(pts))))
	}
	return curve
}
