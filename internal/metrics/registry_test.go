package metrics

import "testing"

func TestLabeledRegistryBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("req_total", "app", "kv", "outcome", "ok")
	c.Inc()
	c.Inc()
	if r.Counter("req_total", "app", "kv", "outcome", "ok") != c {
		t.Fatal("same labels should return the same cell")
	}
	c2 := r.Counter("req_total", "app", "kv", "outcome", "error")
	if c2 == c {
		t.Fatal("different labels should return a different cell")
	}
	if c.Value() != 2 || c2.Value() != 0 {
		t.Fatalf("values = %d, %d", c.Value(), c2.Value())
	}

	g := r.Gauge("replicas", "app", "kv")
	g.Set(3)
	if got := r.Gauge("replicas", "app", "kv").Value(); got != 3 {
		t.Fatalf("gauge = %v", got)
	}

	h := r.Histogram("latency_ms", []float64{1, 10, 100}, "app", "kv")
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	if h.Count() != 4 || h.Sum() != 555.5 {
		t.Fatalf("hist count=%d sum=%v", h.Count(), h.Sum())
	}
	cum := h.Cumulative()
	want := []uint64{1, 2, 3, 4}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("Cumulative = %v, want %v", cum, want)
		}
	}
	if n := len(r.sortedFamilies()); n != 3 {
		t.Fatalf("families = %d, want 3", n)
	}
}

func TestLabeledRegistryHistogramBoundary(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []float64{10})
	// "le" semantics: a value equal to the bound lands in that bucket, and
	// the bounds are fixed by the first lookup — later calls may pass nil.
	h := r.Histogram("h", nil)
	h.Observe(10)
	if cum := h.Cumulative(); cum[0] != 1 {
		t.Fatalf("Cumulative = %v; 10 should be <= le=10", cum)
	}
}

func TestNilRegistryDiscards(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h", nil).Observe(1)
	r.Describe("c", "help")
	if err := r.WritePrometheus(discardWriter{}); err != nil {
		t.Fatal(err)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestLabeledRegistryKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r := NewRegistry()
	r.Counter("m")
	r.Gauge("m")
}

func TestLabeledRegistryKeyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r := NewRegistry()
	r.Counter("m", "app", "a")
	r.Counter("m", "shard", "s")
}

func TestLabeledRegistryOddLabelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r := NewRegistry()
	r.Counter("m", "app")
}

// TestLabelListsDoNotEscape: a lookup's label list stays on the caller's
// stack, so a lookup on a nil registry allocates nothing, and neither does a
// repeated one on a live registry; the panic texts still name the lists.
func TestLabelListsDoNotEscape(t *testing.T) {
	app := string([]byte("kv")) // not a constant
	var nilReg *Registry
	if n := testing.AllocsPerRun(100, func() {
		nilReg.Counter("c", "app", app, "op", "add").Inc()
		nilReg.Gauge("g", "app", app).Add(1)
		nilReg.Histogram("h", nil, "app", app).Observe(1)
	}); n != 0 {
		t.Errorf("a nil-registry lookup with labels allocates %v times, want 0", n)
	}
	r := NewRegistry()
	if n := testing.AllocsPerRun(100, func() {
		r.Counter("c", "app", app, "op", "add").Inc()
		r.Gauge("g", "app", app).Add(1)
	}); n != 0 {
		t.Errorf("a repeated lookup allocates %v times, want 0", n)
	}
	if got := r.Counter("c", "app", app, "op", "add").Value(); got != 101 {
		t.Errorf("the counter reads %d after 101 increments", got)
	}
	for _, c := range []struct {
		want string
		do   func()
	}{
		{"metrics: m: odd label list [app kv op]", func() { r.Counter("m", "app", app, "op") }},
		{"metrics: c label keys [app op], used with [app]", func() { r.Counter("c", "app", app) }},
		{"metrics: c label keys [app op], used with [app shard]", func() { r.Counter("c", "app", app, "shard", "s") }},
	} {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("panic %q, want %q", got, c.want)
				}
			}()
			c.do()
		}()
	}
}

func TestFixedHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFixedHistogram([]float64{10, 1})
}

func TestDescribeBeforeAndAfterUse(t *testing.T) {
	r := NewRegistry()
	r.Describe("a", "described first")
	r.Counter("a", "k", "v").Inc()
	r.Counter("b").Inc()
	r.Describe("b", "described after")
	fams := r.sortedFamilies()
	if len(fams) != 2 || fams[0].help != "described first" || fams[1].help != "described after" {
		t.Fatalf("help text lost: %+v", fams)
	}
	// A described-but-never-sampled family must not appear in exports.
	r.Describe("ghost", "never sampled")
	if n := len(r.sortedFamilies()); n != 2 {
		t.Fatalf("families = %d, want 2", n)
	}
}
