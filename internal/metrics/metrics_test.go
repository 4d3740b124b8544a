package metrics

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("Value = %v, want 2", g.Value())
	}
}

func TestSeriesStats(t *testing.T) {
	var s Series
	for i, v := range []float64{5, 1, 3} {
		s.Record(time.Duration(i)*time.Second, v)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Len() != 0 || s.Between(0, time.Hour) != nil || s.MeanBetween(0, time.Hour) != 0 {
		t.Fatalf("empty series: len %d, between %v, mean %v; want 0, nil, 0",
			s.Len(), s.Between(0, time.Hour), s.MeanBetween(0, time.Hour))
	}
}

func TestSeriesBetween(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Record(time.Duration(i)*time.Second, float64(i))
	}
	pts := s.Between(3*time.Second, 5*time.Second)
	if len(pts) != 3 || pts[0].V != 3 || pts[2].V != 5 {
		t.Fatalf("Between = %v", pts)
	}
	if got := s.MeanBetween(3*time.Second, 5*time.Second); got != 4 {
		t.Fatalf("MeanBetween = %v, want 4", got)
	}
	if got := s.MeanBetween(100*time.Second, 200*time.Second); got != 0 {
		t.Fatalf("MeanBetween empty = %v, want 0", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := Quantile(vals, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Quantile(vals, 0.5)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatalf("input mutated: %v", vals)
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestQuantilePropertyWithinBounds(t *testing.T) {
	if err := quick.Check(func(raw []float64, qRaw uint8) bool {
		vals := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		q := float64(qRaw) / 255
		got := Quantile(vals, q)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return got >= sorted[0] && got <= sorted[len(sorted)-1]
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesMatchesSingleQuantile(t *testing.T) {
	vals := []float64{9, 1, 4, 7, 2, 8, 3, 10, 5, 6}
	qs := []float64{0, 0.1, 0.5, 0.9, 0.99, 1}
	got := Quantiles(vals, qs...)
	if len(got) != len(qs) {
		t.Fatalf("len = %d, want %d", len(got), len(qs))
	}
	for i, q := range qs {
		if want := Quantile(vals, q); got[i] != want {
			t.Errorf("Quantiles[%v] = %v, want %v", q, got[i], want)
		}
	}
	// Input order preserved; empty input yields zeros.
	if vals[0] != 9 || vals[9] != 6 {
		t.Fatalf("input mutated: %v", vals)
	}
	for _, v := range Quantiles(nil, 0.5, 0.9) {
		if v != 0 {
			t.Fatalf("Quantiles(nil) = %v, want zeros", v)
		}
	}
}

func TestQuantilesPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantiles([]float64{1}, 0.5, -0.1)
}

// sortedQuantile is the reference Quantile and Quantiles are held to: sort a
// copy, take the nearest rank.
func sortedQuantile(vals []float64, q float64) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return sorted[nearestRank(len(sorted), q)]
}

// TestQuantilesMatchSortedReference: the selection gives the value a sort of
// a copy gives, on random inputs with duplicates, ±Inf, NaN and ±0, equal by
// == or NaN where the reference is NaN; the input keeps its order, and the
// result slice is the only allocation.
func TestQuantilesMatchSortedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1, -1}
	qs := []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	for trial := 0; trial < 500; trial++ {
		vals := make([]float64, 1+rng.IntN(200))
		for i := range vals {
			switch rng.IntN(4) {
			case 0:
				vals[i] = special[rng.IntN(len(special))]
			case 1:
				vals[i] = float64(rng.IntN(5) - 2) // duplicates
			default:
				vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.IntN(20)-10))
			}
		}
		before := append([]float64(nil), vals...)
		got := Quantiles(vals, qs...)
		for i, q := range qs {
			want := sortedQuantile(vals, q)
			if got[i] != want && !(math.IsNaN(want) && math.IsNaN(got[i])) {
				t.Fatalf("trial %d: Quantiles(%v)[%v] = %v, the sorted copy gives %v", trial, vals, q, got[i], want)
			}
			if one := Quantile(vals, q); one != got[i] && !(math.IsNaN(one) && math.IsNaN(got[i])) {
				t.Fatalf("trial %d: Quantile(%v) = %v, Quantiles gives %v", trial, q, one, got[i])
			}
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(before[i]) {
				t.Fatalf("trial %d: the input was reordered: %v, was %v", trial, vals, before)
			}
		}
	}
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = rng.ExpFloat64()
	}
	if n := testing.AllocsPerRun(10, func() { Quantile(vals, 0.99) }); n != 0 {
		t.Errorf("Quantile allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { Quantiles(vals, 0.5, 0.99, 0.999) }); n != 1 {
		t.Errorf("Quantiles allocates %v times, want 1: the result", n)
	}
}

func TestSuccessRatio(t *testing.T) {
	sr := NewSuccessRatio(time.Second)
	// Bucket 0: 3 ok, 1 fail. Bucket 2: all ok.
	sr.Observe(100*time.Millisecond, true)
	sr.Observe(200*time.Millisecond, true)
	sr.Observe(300*time.Millisecond, true)
	sr.Observe(400*time.Millisecond, false)
	sr.Observe(2500*time.Millisecond, true)
	curve := sr.Curve()
	if len(curve) != 2 {
		t.Fatalf("curve buckets = %d, want 2", len(curve))
	}
	if curve[0].T != 0 || curve[0].V != 0.75 {
		t.Fatalf("bucket0 = %+v", curve[0])
	}
	if curve[1].T != 2*time.Second || curve[1].V != 1 {
		t.Fatalf("bucket2 = %+v", curve[1])
	}
	ok, total := sr.Totals()
	if ok != 4 || total != 5 {
		t.Fatalf("Totals = %d/%d", ok, total)
	}
	if got := sr.Rate(); got != 0.8 {
		t.Fatalf("Rate = %v", got)
	}
	if got := sr.MinBucketRate(); got != 0.75 {
		t.Fatalf("MinBucketRate = %v", got)
	}
}

func TestSuccessRatioEmpty(t *testing.T) {
	sr := NewSuccessRatio(time.Second)
	if sr.Rate() != 1 || sr.MinBucketRate() != 1 {
		t.Fatal("empty tracker should report perfect rate")
	}
	if len(sr.Curve()) != 0 {
		t.Fatal("empty tracker should have empty curve")
	}
}

func TestSuccessRatioRejectsBadBucket(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSuccessRatio(0)
}
