// Labeled metric families. A Registry holds counters, gauges, and
// fixed-bucket histograms keyed by (family name, label values) — the
// aggregate layer that the per-experiment Series/SuccessRatio types do not
// cover. The registry is built for the deterministic simulation: it is
// unsynchronized (the event loop is single-threaded), iteration order never
// leaks (exporters sort), and a nil *Registry is a valid no-op sink so
// instrumented packages pay nothing when monitoring is off.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates the labeled metric family types.
type Kind int

// Family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus type name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// FixedHistogram counts observations into fixed upper-bound buckets
// (Prometheus-style cumulative "le" semantics on export). Unlike the
// raw-value Histogram, its memory is bounded by the bucket count, which is
// what an always-on monitoring plane needs.
type FixedHistogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf follows
	counts []uint64  // len(bounds)+1, last is the +Inf bucket
	count  uint64
	sum    float64
}

// NewFixedHistogram returns a histogram with the given ascending upper
// bounds. It panics on unsorted or duplicate bounds. nil bounds yield a
// single +Inf bucket (count/sum only).
func NewFixedHistogram(bounds []float64) *FixedHistogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending: %v", bounds))
		}
	}
	h := &FixedHistogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]uint64, len(h.bounds)+1)
	return h
}

// Observe records one value.
func (h *FixedHistogram) Observe(v float64) {
	if h.counts == nil {
		h.counts = make([]uint64, len(h.bounds)+1)
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *FixedHistogram) Count() uint64 { return h.count }

// Sum returns the sum of observed values.
func (h *FixedHistogram) Sum() float64 { return h.sum }

// Cumulative returns the cumulative count per bound, ending with the +Inf
// bucket (== Count()).
func (h *FixedHistogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.bounds)+1)
	var acc uint64
	for i := range out {
		if i < len(h.counts) {
			acc += h.counts[i]
		}
		out[i] = acc
	}
	return out
}

// DefaultLatencyBuckets suit request latencies in milliseconds, spanning
// intra-rack hops to cross-ocean retries.
var DefaultLatencyBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// family is one named metric with a fixed kind and label-key schema.
type family struct {
	name    string
	help    string
	kind    Kind
	keys    []string
	buckets []float64 // histogram bounds, fixed at first use
	cells   map[string]*cell
}

// cell is one (family, label values) instance.
type cell struct {
	labels  []string // values aligned with family.keys
	counter Counter
	gauge   Gauge
	hist    *FixedHistogram
}

// Registry is a collection of labeled metric families with deterministic
// exporters (see expo.go). The zero value is not usable; a nil *Registry is
// a valid no-op sink: all lookups return shared discard instances.
type Registry struct {
	families map[string]*family
}

// NewRegistry returns an empty labeled-metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Shared sinks handed out by a nil registry so disabled instrumentation
// still returns usable objects.
var (
	discardCounter Counter
	discardGauge   Gauge
	discardHist    = NewFixedHistogram(nil)
)

// Describe sets a family's help text (shown as # HELP in the exposition).
// It may be called before or after the family's first sample and is
// idempotent.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: KindCounter, cells: make(map[string]*cell)}
		// kind is provisional until the first typed lookup fixes it.
		f.kind = -1
		r.families[name] = f
	}
	f.help = help
}

// Counter returns the counter cell for the family name and the alternating
// key/value label pairs, creating family and cell on first use. A nil
// registry returns a shared discard counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return &discardCounter
	}
	return &r.cell(name, KindCounter, nil, labels).counter
}

// Gauge returns the gauge cell for the family name and label pairs. A nil
// registry returns a shared discard gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return &discardGauge
	}
	return &r.cell(name, KindGauge, nil, labels).gauge
}

// Histogram returns the fixed-bucket histogram cell for the family name and
// label pairs. The bounds are fixed by the family's first lookup; later
// calls may pass nil. A nil registry returns a shared discard histogram.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *FixedHistogram {
	if r == nil {
		return discardHist
	}
	c := r.cell(name, KindHistogram, bounds, labels)
	return c.hist
}

// cell resolves (and lazily creates) the family and cell, enforcing a
// consistent kind and label schema per family. It keeps no reference to
// labels, copying what a new family or cell keeps, so the caller's label list
// does not escape: a lookup builds it on the stack, and one on a nil registry
// allocates nothing.
func (r *Registry) cell(name string, kind Kind, bounds []float64, labels []string) *cell {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: %s: odd label list %s", name, listText(labels, 0, 1)))
	}
	f := r.families[name]
	if f == nil || f.kind == -1 {
		if f == nil {
			f = &family{name: name, cells: make(map[string]*cell)}
			r.families[name] = f
		}
		f.kind = kind
		f.keys = make([]string, len(labels)/2)
		for i := range f.keys {
			f.keys[i] = strings.Clone(labels[2*i])
		}
		if kind == KindHistogram {
			if bounds == nil {
				bounds = DefaultLatencyBuckets
			}
			f.buckets = append([]float64(nil), bounds...)
		}
	} else {
		if f.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %v, used as %v", name, f.kind, kind))
		}
		same := 2*len(f.keys) == len(labels)
		for i := 0; same && i < len(f.keys); i++ {
			same = f.keys[i] == labels[2*i]
		}
		if !same {
			panic(fmt.Sprintf("metrics: %s label keys %v, used with %s", name, f.keys, listText(labels, 0, 2)))
		}
	}
	// The cell's key is its label values joined by 0xff, built on the stack:
	// a lookup with a []byte key allocates no string.
	var buf [128]byte
	key := buf[:0]
	for i := 1; i < len(labels); i += 2 {
		if i > 1 {
			key = append(key, 0xff)
		}
		key = append(key, labels[i]...)
	}
	c := f.cells[string(key)]
	if c == nil {
		vals := make([]string, len(labels)/2)
		for i := range vals {
			vals[i] = strings.Clone(labels[2*i+1])
		}
		c = &cell{labels: vals}
		if f.kind == KindHistogram {
			c.hist = NewFixedHistogram(f.buckets)
		}
		f.cells[string(key)] = c
	}
	return c
}

// listText formats every step-th element of list from the first, as %v formats
// a list, copying the bytes so that list does not escape.
func listText(list []string, first, step int) string {
	var b strings.Builder
	b.WriteByte('[')
	for i := first; i < len(list); i += step {
		if i > first {
			b.WriteByte(' ')
		}
		b.WriteString(list[i])
	}
	b.WriteByte(']')
	return b.String()
}

// sortedFamilies returns the families ordered by name; exporters and tests
// iterate through this so map order never leaks.
func (r *Registry) sortedFamilies() []*family {
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		if f.kind == -1 {
			continue // Describe()d but never sampled
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedCells returns a family's cells ordered by label values.
func (f *family) sortedCells() []*cell {
	keys := make([]string, 0, len(f.cells))
	for k := range f.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*cell, len(keys))
	for i, k := range keys {
		out[i] = f.cells[k]
	}
	return out
}
