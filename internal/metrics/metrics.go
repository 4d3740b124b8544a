// Package metrics provides the lightweight instrumentation primitives the
// rest of the reproduction uses: counters, time series sampled on the
// simulated clock, and percentile estimation over bounded windows. The paper
// reports request success rates, client latency traces, violation counts,
// and p90/p99 utilization; these types produce exactly those series.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Counter is a monotonically increasing count. The zero value is ready to use.
type Counter struct {
	n int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta; negative deltas panic since counters are monotonic.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic(fmt.Sprintf("metrics: Counter.Add(%d)", delta))
	}
	c.n += delta
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Gauge is a value that can move in both directions.
type Gauge struct {
	v float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) { g.v += delta }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Point is one sample of a time series.
type Point struct {
	T time.Duration
	V float64
}

// Series is an append-only time series. The zero value is empty.
type Series struct {
	points []Point
}

// Record appends a sample at time t.
func (s *Series) Record(t time.Duration, v float64) {
	s.points = append(s.points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// Between returns the samples with T in [from, to].
func (s *Series) Between(from, to time.Duration) []Point {
	var out []Point
	for _, p := range s.points {
		if p.T >= from && p.T <= to {
			out = append(out, p)
		}
	}
	return out
}

// MeanBetween returns the mean of samples with T in [from, to], or 0 if none.
func (s *Series) MeanBetween(from, to time.Duration) float64 {
	pts := s.Between(from, to)
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		sum += p.V
	}
	return sum / float64(len(pts))
}

// Quantile returns the q-quantile of vals by nearest rank. vals is neither
// copied nor reordered. It panics if q is outside [0, 1] and returns 0 for
// empty input. NaNs rank below every number, as sort.Float64s puts them.
func Quantile(vals []float64, q float64) float64 {
	checkQ(q)
	if len(vals) == 0 {
		return 0
	}
	return selectRank(vals, nearestRank(len(vals), q))
}

// Quantiles returns the q-quantile for each of qs over vals, as Quantile
// does; the result is its only allocation. It panics if any q is outside
// [0, 1]; empty input yields all zeros.
func Quantiles(vals []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = Quantile(vals, q)
	}
	return out
}

func checkQ(q float64) {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: Quantile(%v)", q))
	}
}

// nearestRank returns the 0-based rank of the q-quantile of n > 0 values.
func nearestRank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// selectRank returns the value of rank k in vals' ascending order, NaNs
// first: a radix select over orderKey, one byte per pass from the top. Each
// pass counts, by their next byte, the values whose higher bytes are the ones
// chosen so far, and chooses the byte the rank falls in.
func selectRank(vals []float64, k int) float64 {
	var prefix, mask uint64
	for shift := 56; shift >= 0; shift -= 8 {
		var count [256]int
		for _, v := range vals {
			if key := orderKey(v); key&mask == prefix {
				count[key>>shift&0xff]++
			}
		}
		d := 0
		for k >= count[d] {
			k -= count[d]
			d++
		}
		prefix |= uint64(d) << shift
		mask |= 0xff << shift
	}
	if prefix == 0 {
		return math.NaN()
	}
	if prefix>>63 == 1 {
		return math.Float64frombits(prefix &^ (1 << 63))
	}
	return math.Float64frombits(^prefix)
}

// orderKey maps v to a key whose unsigned order is v's numeric order, -0
// before +0, with every NaN at 0, below -Inf's key: the sign bit is flipped
// on a non-negative float and every bit on a negative one.
func orderKey(v float64) uint64 {
	if v != v {
		return 0
	}
	b := math.Float64bits(v)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

// SuccessRatio tracks a ratio of successes to total attempts within bucketed
// windows of simulated time, producing the success-rate curves in Fig 17/18.
type SuccessRatio struct {
	Bucket  time.Duration
	buckets map[int64]*ratioBucket
}

type ratioBucket struct {
	ok, total int64
}

// NewSuccessRatio returns a tracker with the given bucket width.
func NewSuccessRatio(bucket time.Duration) *SuccessRatio {
	if bucket <= 0 {
		panic("metrics: non-positive bucket")
	}
	return &SuccessRatio{Bucket: bucket, buckets: make(map[int64]*ratioBucket)}
}

// Observe records one attempt at time t.
func (s *SuccessRatio) Observe(t time.Duration, ok bool) {
	k := int64(t / s.Bucket)
	b := s.buckets[k]
	if b == nil {
		b = &ratioBucket{}
		s.buckets[k] = b
	}
	b.total++
	if ok {
		b.ok++
	}
}

// Curve returns one point per bucket (at the bucket start), value = success
// fraction in that bucket, ordered by time. Buckets with no attempts are
// omitted.
func (s *SuccessRatio) Curve() []Point {
	keys := make([]int64, 0, len(s.buckets))
	for k := range s.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Point, 0, len(keys))
	for _, k := range keys {
		b := s.buckets[k]
		out = append(out, Point{
			T: time.Duration(k) * s.Bucket,
			V: float64(b.ok) / float64(b.total),
		})
	}
	return out
}

// Totals returns the overall successes and attempts.
func (s *SuccessRatio) Totals() (ok, total int64) {
	for _, b := range s.buckets {
		ok += b.ok
		total += b.total
	}
	return ok, total
}

// Rate returns the overall success fraction, or 1 if nothing was observed.
func (s *SuccessRatio) Rate() float64 {
	ok, total := s.Totals()
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// MinBucketRate returns the worst per-bucket success fraction, or 1 if
// nothing was observed. Fig 17's "drops below 90%" claims are about this.
func (s *SuccessRatio) MinBucketRate() float64 {
	return s.MinBucketBetween(0, 1<<62)
}

// RateBetween returns the success fraction over buckets starting in
// [from, to], or 1 if none — e.g. the upgrade window only, excluding quiet
// tails that would dilute the figure.
func (s *SuccessRatio) RateBetween(from, to time.Duration) float64 {
	var ok, total int64
	for k, b := range s.buckets {
		t := time.Duration(k) * s.Bucket
		if t >= from && t <= to {
			ok += b.ok
			total += b.total
		}
	}
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// MinBucketBetween returns the worst per-bucket success fraction among
// buckets starting in [from, to], or 1 if none.
func (s *SuccessRatio) MinBucketBetween(from, to time.Duration) float64 {
	min := 1.0
	for k, b := range s.buckets {
		t := time.Duration(k) * s.Bucket
		if t < from || t > to {
			continue
		}
		if r := float64(b.ok) / float64(b.total); r < min {
			min = r
		}
	}
	return min
}
