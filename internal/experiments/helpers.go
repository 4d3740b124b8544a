package experiments

import (
	"time"

	"shardmanager/internal/metrics"
	"shardmanager/internal/sim"
)

// point builds a metrics.Point.
func point(t time.Duration, v float64) metrics.Point { return metrics.Point{T: t, V: v} }

// weekDur encodes a week index as a duration (for Curve X axes).
func weekDur(w int) time.Duration { return time.Duration(w) * 7 * 24 * time.Hour }

// yearDur encodes a calendar year as a duration offset from 2012.
func yearDur(year float64) time.Duration {
	return time.Duration((year - 2012) * 365 * 24 * float64(time.Hour))
}

// newSeededRNG builds a deterministic random source for harness-local
// decisions that must not perturb the simulation's own streams.
func newSeededRNG(seed uint64) *sim.RNG { return sim.NewRNG(seed ^ 0xabcdef) }
