// Package workload synthesizes the inputs the paper's evaluation consumes:
//
//   - A synthetic fleet of sharded applications whose property
//     distributions are calibrated to the paper's §2 survey (Figures 4-9),
//     plus aggregation helpers that recompute those breakdowns — the
//     demographic figures are survey data, so the harness reproduces them
//     by drawing a fleet from the published marginals and re-aggregating.
//   - Deployment-size distributions (power law) for the production-scale
//     scatter plots (Figures 15-16).
//   - The planned-vs-unplanned container-stop event stream (Figure 1).
//   - The SM adoption growth curve (Figure 2).
//   - The diurnal load shape driving Figures 18 and 23.
package workload

import (
	"fmt"
	"math"
	"time"

	"shardmanager/internal/shard"
	"shardmanager/internal/sim"
)

// Scheme is an application's sharding scheme (Figure 4).
type Scheme int

// Sharding schemes.
const (
	SchemeSM Scheme = iota
	SchemeStatic
	SchemeConsistentHashing
	SchemeCustom
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case SchemeSM:
		return "using SM"
	case SchemeStatic:
		return "static sharding"
	case SchemeConsistentHashing:
		return "consistent hashing"
	case SchemeCustom:
		return "custom sharding"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Deployment is regional vs geo-distributed (Figure 5).
type Deployment int

// Deployment modes.
const (
	DeploymentRegional Deployment = iota
	DeploymentGeo
)

// String returns the deployment name.
func (d Deployment) String() string {
	if d == DeploymentGeo {
		return "geo-distributed"
	}
	return "regional"
}

// LBPolicy is the load-balancing policy class (Figure 7).
type LBPolicy int

// Load-balancing policies.
const (
	LBShardCount LBPolicy = iota
	LBSingleResource
	LBSingleSynthetic
	LBMultiMetric
)

// String returns the policy name.
func (p LBPolicy) String() string {
	switch p {
	case LBShardCount:
		return "shard count"
	case LBSingleResource:
		return "single resource"
	case LBSingleSynthetic:
		return "single synthetic"
	case LBMultiMetric:
		return "multiple metrics"
	default:
		return fmt.Sprintf("lb(%d)", int(p))
	}
}

// AppProfile is one synthetic sharded application.
type AppProfile struct {
	Name    string
	Scheme  Scheme
	Servers int
	Shards  int

	// SM-application properties (meaningful when Scheme == SchemeSM).
	Deployment       Deployment
	Strategy         shard.ReplicationStrategy
	LB               LBPolicy
	DrainPrimaries   bool
	DrainSecondaries bool
	Storage          bool
	// RegionPreferences marks geo apps that dictate regional
	// shard-placement preferences (§2.2.4: 33% of geo servers).
	RegionPreferences bool
}

// Fleet is a set of synthetic applications.
type Fleet []AppProfile

// GenerateFleet draws n applications from the paper's §2 marginals.
// Deterministic for a given rng state.
func GenerateFleet(rng *sim.RNG, n int) Fleet {
	fleet := make(Fleet, 0, n)
	for i := 0; i < n; i++ {
		app := AppProfile{Name: fmt.Sprintf("app%03d", i)}

		// Scheme shares by #application (Figure 4): SM 54%, static
		// 35%, consistent hashing 10%, custom 1%.
		r := rng.Float64()
		switch {
		case r < 0.54:
			app.Scheme = SchemeSM
		case r < 0.89:
			app.Scheme = SchemeStatic
		case r < 0.99:
			app.Scheme = SchemeConsistentHashing
		default:
			app.Scheme = SchemeCustom
		}

		// Server counts: heavy-tailed, with per-scheme scale factors
		// tuned so the by-#server shares land near Figure 4 (custom
		// sharding: 1% of apps but 27% of servers).
		base := powerLaw(rng, 4, 20000, 1.45)
		switch app.Scheme {
		case SchemeCustom:
			base = powerLaw(rng, 4000, 30000, 1.25)
		case SchemeSM:
			base = powerLaw(rng, 4, 8000, 1.40)
		case SchemeConsistentHashing:
			base = powerLaw(rng, 4, 12000, 1.5)
		case SchemeStatic:
			base = powerLaw(rng, 4, 15000, 1.35)
		}
		app.Servers = base
		// Shards per server: typically tens to low hundreds (Fig 15's
		// largest deployment: 19K servers, 2.6M shards ≈ 137/server).
		app.Shards = app.Servers * (10 + rng.Intn(150))

		if app.Scheme != SchemeSM {
			fleet = append(fleet, app)
			continue
		}

		// The SM property multipliers below capture that geo,
		// secondary-only, multi-metric, and storage apps are all
		// larger than average; the combined factor is capped so a
		// single app cannot dominate the synthetic fleet.
		sizeFactor := 1.0

		// Geo vs regional (Figure 5): 33% of SM apps geo-distributed;
		// geo apps are larger (58% of servers), captured by an upscale.
		if rng.Float64() < 0.33 {
			app.Deployment = DeploymentGeo
			sizeFactor *= 2.8
			// §2.2.4: region-placement preferences cover 33% of
			// geo-distributed server usage.
			app.RegionPreferences = rng.Float64() < 0.33
		}

		// Replication strategy (Figure 6): primary-only 68%,
		// primary-secondary 24%, secondary-only 8% by #application.
		r = rng.Float64()
		switch {
		case r < 0.68:
			app.Strategy = shard.PrimaryOnly
		case r < 0.92:
			app.Strategy = shard.PrimarySecondary
		default:
			app.Strategy = shard.SecondaryOnly
			// Secondary-only apps account for 34% of servers from
			// 8% of apps: they are large.
			sizeFactor *= 3.5
		}

		// LB policy (Figure 7 / §2.2.4 text): 55% shard count, ~10%
		// single resource, ~10% single synthetic, rest multi-metric;
		// multi-metric apps hold most servers (65%).
		r = rng.Float64()
		switch {
		case r < 0.55:
			app.LB = LBShardCount
		case r < 0.65:
			app.LB = LBSingleResource
		case r < 0.75:
			app.LB = LBSingleSynthetic
		default:
			app.LB = LBMultiMetric
			sizeFactor *= 2.2
		}

		// Drain policies (Figure 8): 94% drain primaries; 22% drain
		// secondaries.
		app.DrainPrimaries = rng.Float64() < 0.94
		app.DrainSecondaries = rng.Float64() < 0.22

		// Storage machines (Figure 9): 18% of apps, 38% of servers.
		app.Storage = rng.Float64() < 0.18
		if app.Storage {
			sizeFactor *= 2.0
		}

		if sizeFactor > 6 {
			sizeFactor = 6
		}
		app.Servers = int(float64(app.Servers) * sizeFactor)
		app.Shards = int(float64(app.Shards) * sizeFactor)

		fleet = append(fleet, app)
	}
	return fleet
}

// powerLaw samples a bounded Pareto-ish integer in [lo, hi] with tail
// exponent alpha.
func powerLaw(rng *sim.RNG, lo, hi int, alpha float64) int {
	u := rng.Float64()
	l, h := float64(lo), float64(hi)
	x := math.Pow(math.Pow(l, 1-alpha)+u*(math.Pow(h, 1-alpha)-math.Pow(l, 1-alpha)), 1/(1-alpha))
	v := int(x)
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// Share is one row of a breakdown table.
type Share struct {
	Label     string
	ByApps    float64
	ByServers float64
}

// breakdown aggregates by an arbitrary labeling function.
func (f Fleet) breakdown(include func(AppProfile) bool, label func(AppProfile) string, order []string) []Share {
	apps := make(map[string]int)
	servers := make(map[string]int)
	totalApps, totalServers := 0, 0
	for _, a := range f {
		if !include(a) {
			continue
		}
		l := label(a)
		apps[l]++
		servers[l] += a.Servers
		totalApps++
		totalServers += a.Servers
	}
	out := make([]Share, 0, len(order))
	for _, l := range order {
		out = append(out, Share{
			Label:     l,
			ByApps:    ratio(apps[l], totalApps),
			ByServers: ratio(servers[l], totalServers),
		})
	}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func all(AppProfile) bool      { return true }
func smOnly(a AppProfile) bool { return a.Scheme == SchemeSM }

// SchemeBreakdown reproduces Figure 4.
func (f Fleet) SchemeBreakdown() []Share {
	return f.breakdown(all, func(a AppProfile) string { return a.Scheme.String() },
		[]string{SchemeSM.String(), SchemeStatic.String(), SchemeConsistentHashing.String(), SchemeCustom.String()})
}

// DeploymentBreakdown reproduces Figure 5 (SM apps only).
func (f Fleet) DeploymentBreakdown() []Share {
	return f.breakdown(smOnly, func(a AppProfile) string { return a.Deployment.String() },
		[]string{DeploymentGeo.String(), DeploymentRegional.String()})
}

// StrategyBreakdown reproduces Figure 6 (SM apps only).
func (f Fleet) StrategyBreakdown() []Share {
	return f.breakdown(smOnly, func(a AppProfile) string { return a.Strategy.String() },
		[]string{shard.PrimaryOnly.String(), shard.PrimarySecondary.String(), shard.SecondaryOnly.String()})
}

// LBBreakdown reproduces Figure 7 (SM apps only).
func (f Fleet) LBBreakdown() []Share {
	return f.breakdown(smOnly, func(a AppProfile) string { return a.LB.String() },
		[]string{LBShardCount.String(), LBSingleResource.String(), LBSingleSynthetic.String(), LBMultiMetric.String()})
}

// DrainBreakdown reproduces Figure 8: share of apps/servers draining
// primaries and secondaries.
func (f Fleet) DrainBreakdown() (primaries, secondaries []Share) {
	primaries = f.breakdown(smOnly, func(a AppProfile) string {
		if a.DrainPrimaries {
			return "drain"
		}
		return "no drain"
	}, []string{"drain", "no drain"})
	secondaries = f.breakdown(smOnly, func(a AppProfile) string {
		if a.DrainSecondaries {
			return "drain"
		}
		return "no drain"
	}, []string{"drain", "no drain"})
	return primaries, secondaries
}

// StorageBreakdown reproduces Figure 9 (SM apps only).
func (f Fleet) StorageBreakdown() []Share {
	return f.breakdown(smOnly, func(a AppProfile) string {
		if a.Storage {
			return "storage"
		}
		return "non-storage"
	}, []string{"storage", "non-storage"})
}

// SMApps returns only the SM applications.
func (f Fleet) SMApps() Fleet {
	var out Fleet
	for _, a := range f {
		if a.Scheme == SchemeSM {
			out = append(out, a)
		}
	}
	return out
}

// --- Figure 1: planned vs unplanned container stops ---

// StopSample is one time bucket of container-stop counts.
type StopSample struct {
	Week      int
	Planned   int64
	Unplanned int64
}

// ContainerStopSeries simulates weeks of fleet operation events. Planned
// events (software updates, maintenance) dominate unplanned failures by
// ~1000x (Figure 1), with noise and occasional incident spikes.
func ContainerStopSeries(rng *sim.RNG, weeks int, fleetContainers int) []StopSample {
	out := make([]StopSample, weeks)
	for w := 0; w < weeks; w++ {
		// Each container restarts for planned reasons ~2x/week
		// (deploys happen daily for many apps; amortized fleet-wide).
		planned := float64(fleetContainers) * (1.5 + rng.Float64())
		// Unplanned: hardware failure rates, ~1/1000 of planned.
		unplanned := planned / 1000 * (0.5 + rng.Float64())
		// Occasional incident spike.
		if rng.Float64() < 0.05 {
			unplanned *= 5
		}
		out[w] = StopSample{Week: w, Planned: int64(planned), Unplanned: int64(unplanned)}
	}
	return out
}

// --- Figure 2: adoption growth ---

// AdoptionPoint is one (year, machines) sample.
type AdoptionPoint struct {
	Year     float64
	Machines float64
}

// AdoptionCurve models SM's machine growth 2012-2021 as logistic growth
// reaching ~1.1M machines (Figure 2 shows the 100K line crossed around
// 2017 with continued rapid growth).
func AdoptionCurve(points int) []AdoptionPoint {
	out := make([]AdoptionPoint, points)
	for i := 0; i < points; i++ {
		year := 2012 + 9*float64(i)/float64(points-1)
		// Logistic: midpoint 2019, capacity 1.15M.
		m := 1.15e6 / (1 + math.Exp(-1.1*(year-2019)))
		out[i] = AdoptionPoint{Year: year, Machines: m}
	}
	return out
}

// --- load shapes ---

// Diurnal returns a multiplicative load factor in [1-amplitude, 1+amplitude]
// following a day-long sinusoid peaking mid-day.
func Diurnal(t time.Duration, amplitude float64) float64 {
	day := float64(24 * time.Hour)
	phase := 2 * math.Pi * (float64(t)/day - 0.25) // trough at t=0... peak at 6h? standard shape
	return 1 + amplitude*math.Sin(phase)
}
