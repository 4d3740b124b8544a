package main

import (
	"time"

	"shardmanager/internal/appserver"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/shard"
)

// observers are the traced pass's hook counters. Every hook is synchronous
// and RNG-free, so attaching them leaves the seeded run unchanged (the
// sim_digest check proves it per run). They count only inside the window.
type observers struct {
	// orchestrator
	publishes, migrationsOK, migrationsFailed int64
	migStart                                  map[shard.ID]time.Duration
	migS                                      []float64 // ok migrations, simulated seconds
	stepStart                                 map[shard.ID]time.Duration
	stepS                                     map[string][]float64

	// discovery
	deliveries, staleOrGap int64
	lagS                   []float64         // every delivery
	lastLag                map[int64]float64 // version -> lag of its last delivery so far

	// appserver
	handled, forwarded, rejected, fences int64

	// coord
	coordWrites int64
}

func attachObservers(r *run) *observers {
	o := &observers{
		migStart:  make(map[shard.ID]time.Duration),
		stepStart: make(map[shard.ID]time.Duration),
		stepS:     make(map[string][]float64),
		lastLag:   make(map[int64]float64),
	}
	now := r.d.Loop.Now
	r.d.Orch.AddHooks(orchestrator.Hooks{
		MigrationStarted: func(s shard.ID, _, _ shard.ServerID, _ bool) {
			o.migStart[s], o.stepStart[s] = now(), now()
		},
		MigrationFinished: func(s shard.ID, ok bool) {
			start, seen := o.migStart[s]
			delete(o.migStart, s)
			delete(o.stepStart, s)
			if !r.measuring || !seen {
				return
			}
			if !ok {
				o.migrationsFailed++
				return
			}
			o.migrationsOK++
			o.migS = append(o.migS, (now() - start).Seconds())
		},
		// A step's duration runs from the previous step of the same
		// migration (or its start) to this step's completion.
		MigrationStep: func(s shard.ID, step string, _ shard.ServerID, status string) {
			prev, seen := o.stepStart[s]
			if !seen {
				return // an add or drop outside any migration (emergency placement, orphan)
			}
			o.stepStart[s] = now()
			if r.measuring && status == "ok" {
				o.stepS[step] = append(o.stepS[step], (now() - prev).Seconds())
			}
		},
		MapPublished: func(int64, int) {
			if r.measuring {
				o.publishes++
			}
		},
	})
	r.d.Disc.AddObserver(func(_ shard.AppID, version int64, lag time.Duration, status string) {
		if !r.measuring {
			return
		}
		switch status {
		case "delivered":
			o.deliveries++
			o.lagS = append(o.lagS, lag.Seconds())
			o.lastLag[version] = max(o.lastLag[version], lag.Seconds())
		case "stale", "resync":
			o.staleOrGap++
		}
	})
	r.d.Dir.AddObserver(appserver.Observer{
		Handled: func(_ shard.ServerID, _ shard.ID, _, forwarded bool, _ appserver.Phase) {
			if r.measuring {
				o.handled++
				if forwarded {
					o.forwarded++
				}
			}
		},
		Rejected: func(shard.ServerID, shard.ID, string) {
			if r.measuring {
				o.rejected++
			}
		},
		Fenced: func(_ shard.ServerID, fenced bool, _ int64) {
			if r.measuring && fenced {
				o.fences++
			}
		},
	})
	r.d.Store.AddWriteObserver(func(string, string) {
		if r.measuring {
			o.coordWrites++
		}
	})
	return o
}
