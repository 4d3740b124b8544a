package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"shardmanager/internal/sim"
)

// maxSpans bounds the spans kept for the trace file. Every span always goes
// into the per-label totals; only the file is a window.
const maxSpans = 1 << 18

// span is one timed call into a layer: an event callback the loop
// dispatched, or a call the harness made from inside one.
type span struct {
	label      sim.Label
	parent     int32 // index of the enclosing span, -1 for an event callback
	start, end int64 // host ns since the measured window began
	sim        time.Duration
}

type frame struct {
	label sim.Label
	start int64
	child int64 // host ns covered by nested spans
	idx   int32 // index in spans, -1 when not kept
}

type labelStat struct {
	spans  uint64
	selfNS int64
}

// tracer is the harness's sim.Profiler. It sees the system only from
// outside: the label an event was scheduled under names the layer its
// callback is charged to, whatever that callback goes on to call.
type tracer struct {
	on       bool
	t0       time.Time     // host time the window opened
	sim0     time.Duration // simulated time the window opened
	keepFrom time.Duration // simulated time from which spans are kept
	now      time.Duration

	stack []frame
	stats []labelStat // indexed by sim.Label
	spans []span
	// dropped counts spans that fell outside the kept window.
	dropped uint64

	events     uint64
	callbackNS int64 // Σ wall of event callbacks (root spans)
	// marks[i] is the state at the i-th slice boundary: callbackNS, then
	// every label's cumulative self time. Windows of one seed do the same
	// work per slice, so slices can be compared across windows.
	marks     [][]int64
	depthSum  uint64
	depthMax  int
	cancelled uint64
}

func newTracer() *tracer {
	return &tracer{
		stack: make([]frame, 0, 8),
		stats: make([]labelStat, sim.NumLabels()+64),
		spans: make([]span, 0, maxSpans),
	}
}

// start begins recording a window that opens at simulated time sim0; spans
// are kept from simulated time keepFrom.
func (t *tracer) start(sim0, keepFrom time.Duration) {
	t.on, t.t0, t.sim0, t.keepFrom = true, time.Now(), sim0, keepFrom
	t.mark()
}

func (t *tracer) stop() { t.on = false }

// mark closes a slice of the window.
func (t *tracer) mark() {
	m := make([]int64, 1+len(t.stats))
	m[0] = t.callbackNS
	for lb := range t.stats {
		m[1+lb] = t.stats[lb].selfNS
	}
	t.marks = append(t.marks, m)
}

// sliceNS returns, per slice, the self time of the labels match accepts;
// a nil match means the whole callback time.
func (t *tracer) sliceNS(match func(component, kind string) bool) []float64 {
	out := make([]float64, len(t.marks)-1)
	add := func(col int) {
		for i := range out {
			if a, b := t.marks[i], t.marks[i+1]; col < len(a) {
				out[i] += float64(b[col] - a[col])
			} else if col < len(b) {
				out[i] += float64(b[col])
			}
		}
	}
	if match == nil {
		add(0)
		return out
	}
	for lb := range t.stats {
		if match(sim.LabelName(sim.Label(lb))) {
			add(1 + lb)
		}
	}
	return out
}

func (t *tracer) OnSchedule(sim.Label) {}

func (t *tracer) OnCancel(sim.Label) {
	if t.on {
		t.cancelled++
	}
}

func (t *tracer) Dispatch(lb sim.Label, now time.Duration, heapLen, _ int, fn func()) {
	if !t.on {
		fn()
		return
	}
	t.events++
	t.depthSum += uint64(heapLen)
	if heapLen > t.depthMax {
		t.depthMax = heapLen
	}
	t.now = now
	t.enter(lb)
	fn()
	t.leave()
}

// enter opens a span nested in whatever span is open.
func (t *tracer) enter(lb sim.Label) {
	if !t.on {
		return
	}
	f := frame{label: lb, start: int64(time.Since(t.t0)), idx: -1}
	if t.now >= t.keepFrom && len(t.spans) < cap(t.spans) {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		f.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{label: lb, parent: parent, start: f.start, sim: t.now})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, f)
}

func (t *tracer) leave() {
	if !t.on || len(t.stack) == 0 {
		return
	}
	end := int64(time.Since(t.t0))
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := end - f.start
	if int(f.label) >= len(t.stats) {
		t.stats = append(t.stats, make([]labelStat, int(f.label)+1-len(t.stats))...)
	}
	st := &t.stats[f.label]
	st.spans++
	st.selfNS += dur - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
	} else {
		t.callbackNS += dur
	}
	if f.idx >= 0 {
		t.spans[f.idx].end = end
	}
}

// count returns how many spans closed under the labels match accepts.
func (t *tracer) count(match func(component, kind string) bool) float64 {
	var n uint64
	for lb := range t.stats {
		if match(sim.LabelName(sim.Label(lb))) {
			n += t.stats[lb].spans
		}
	}
	return float64(n)
}

func inLayer(layer string) func(string, string) bool {
	return func(component, _ string) bool { return component == layer }
}

func isLabel(layer, name string) func(string, string) bool {
	return func(component, kind string) bool { return component == layer && kind == name }
}

// writeFile writes the kept spans as Chrome trace events (one thread per
// layer), which Perfetto and chrome://tracing open directly.
func (t *tracer) writeFile(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	tids := map[string]int{}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for i, s := range t.spans {
		if s.end == 0 {
			continue // still open when the window closed
		}
		layer, kind := sim.LabelName(s.label)
		if layer == "" {
			layer, kind = "unlabeled", "event"
		}
		tid, ok := tids[layer]
		if !ok {
			tid = len(tids) + 1
			tids[layer] = tid
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "\n"+`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`, tid, layer)
		}
		fmt.Fprintf(w, ",\n"+`{"ph":"X","pid":1,"tid":%d,"cat":%q,"name":%q,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"sim_s":%.6f}}`,
			tid, layer, kind, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, (s.sim - t.sim0).Seconds())
	}
	fmt.Fprintln(w, "\n]}")
	return w.Flush()
}
