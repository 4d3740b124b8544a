// Package simprof is the deterministic profiler for the simulation kernel.
// It implements sim.Profiler: the event loop routes every dispatch through
// Profile.Dispatch, which attributes wall-clock time, event counts, and
// (optionally) heap allocations to the event's (component, kind) label, and
// samples event-heap depth into the labeled metrics registry.
//
// The profiler draws a hard line between two classes of measurement:
//
//   - Deterministic: schedule/fire counts, event shares, first/last
//     simulated-time activity, and queue-depth statistics are all derived
//     from the simulation itself, so for a fixed seed they are identical
//     across runs. The default text/JSON/folded reports contain only these
//     and are byte-stable — profiler output is regression-testable the same
//     way traces and metrics are.
//   - Wall-clock: per-label wall time and allocations answer "where does
//     kernel time actually go" but vary run to run. They are included only
//     when ReportOptions.Wall is set (smbench -prof-wall).
//
// A Profile must not be shared between concurrently running loops; within
// one loop all hooks run on the loop goroutine.
package simprof

import (
	"fmt"
	rtm "runtime/metrics"
	"time"

	"shardmanager/internal/metrics"
	"shardmanager/internal/sim"
)

// allocsMetric is the runtime/metrics counter used for per-event allocation
// attribution: cumulative heap objects allocated by the process.
const allocsMetric = "/gc/heap/allocs:objects"

// Options configure a Profile.
type Options struct {
	// Allocs enables per-(component, kind) allocation attribution by
	// reading runtime/metrics around every dispatch. It costs roughly a
	// microsecond per event, so keep it off when measuring throughput;
	// whole-run allocs/event is cheap to compute without it.
	Allocs bool
	// Registry, when non-nil, receives the kernel queue depth on every
	// dispatch: a sim_event_heap_depth gauge and histogram.
	Registry *metrics.Registry
}

// stat accumulates one label's activity.
type stat struct {
	scheduled uint64
	fired     uint64
	wallNS    int64
	allocs    uint64
	firstSim  time.Duration
	lastSim   time.Duration
	seen      bool
}

// touched reports whether the label ever appeared.
func (s *stat) touched() bool { return s.scheduled+s.fired > 0 }

// Profile implements sim.Profiler. Create one with New, attach it with
// Loop.SetProfiler before scheduling the work to attribute, and render it
// with WriteText/WriteJSON/WriteFolded once the run completes.
type Profile struct {
	opts  Options
	stats []stat // indexed by sim.Label; 0 is the unlabeled bucket
	total stat

	dispatches uint64
	maxHeap    int
	sumHeap    uint64

	sample []rtm.Sample

	// cached registry cells, resolved once so dispatch never hits the
	// family map.
	gaugeHeap *metrics.Gauge
	histHeap  *metrics.FixedHistogram
}

// DepthBuckets bound the heap-depth histogram: event-queue lengths from an
// idle loop to a million-entity trace.
var DepthBuckets = []float64{10, 100, 1000, 10000, 100000, 1000000}

// New returns an empty profile.
func New(opts Options) *Profile {
	p := &Profile{opts: opts}
	if opts.Allocs {
		p.sample = []rtm.Sample{{Name: allocsMetric}}
	}
	if r := opts.Registry; r != nil {
		p.gaugeHeap = r.Gauge("sim_event_heap_depth")
		p.histHeap = r.Histogram("sim_event_heap_depth_hist", DepthBuckets)
	}
	return p
}

// stat returns the label's accumulator, growing the dense table on demand.
func (p *Profile) stat(lb sim.Label) *stat {
	if int(lb) >= len(p.stats) {
		grown := make([]stat, sim.NumLabels())
		if int(lb) >= len(grown) { // label minted after NumLabels snapshot
			grown = make([]stat, int(lb)+1)
		}
		copy(grown, p.stats)
		p.stats = grown
	}
	return &p.stats[lb]
}

// OnSchedule implements sim.Profiler.
func (p *Profile) OnSchedule(lb sim.Label) {
	p.stat(lb).scheduled++
	p.total.scheduled++
}

// readAllocs returns the cumulative heap-object allocation count.
func (p *Profile) readAllocs() uint64 {
	rtm.Read(p.sample)
	return p.sample[0].Value.Uint64()
}

// Dispatch implements sim.Profiler: it runs fn, attributing its cost to lb.
// The loop passes the pending count twice; heapLen is the one read.
func (p *Profile) Dispatch(lb sim.Label, now time.Duration, heapLen, _ int, fn func()) {
	var a0 uint64
	if p.opts.Allocs {
		a0 = p.readAllocs()
	}
	t0 := time.Now()
	fn()
	wall := int64(time.Since(t0))

	st := p.stat(lb)
	st.fired++
	st.wallNS += wall
	if !st.seen {
		st.firstSim = now
		st.seen = true
	}
	st.lastSim = now
	p.total.fired++
	p.total.wallNS += wall
	if !p.total.seen {
		p.total.firstSim = now
		p.total.seen = true
	}
	p.total.lastSim = now
	if p.opts.Allocs {
		da := p.readAllocs() - a0
		st.allocs += da
		p.total.allocs += da
	}

	p.dispatches++
	if heapLen > p.maxHeap {
		p.maxHeap = heapLen
	}
	p.sumHeap += uint64(heapLen)
	if p.gaugeHeap != nil {
		p.gaugeHeap.Set(float64(heapLen))
		p.histHeap.Observe(float64(heapLen))
	}
}

// Events returns the total number of dispatched events.
func (p *Profile) Events() uint64 { return p.total.fired }

// WallNS returns the total wall-clock nanoseconds spent inside callbacks.
func (p *Profile) WallNS() int64 { return p.total.wallNS }

// AvgHeapDepth returns the mean post-pop event-heap length per dispatch.
func (p *Profile) AvgHeapDepth() float64 {
	if p.dispatches == 0 {
		return 0
	}
	return float64(p.sumHeap) / float64(p.dispatches)
}

// Row is one (component, kind) cost center.
type Row struct {
	Component string        `json:"component"`
	Kind      string        `json:"kind"`
	Scheduled uint64        `json:"scheduled"`
	Fired     uint64        `json:"fired"`
	FirstSim  time.Duration `json:"first_sim_ns"`
	LastSim   time.Duration `json:"last_sim_ns"`
	// Wall-clock attribution; populated in the struct but only rendered
	// when ReportOptions.Wall asks for it.
	WallNS int64  `json:"wall_ns,omitempty"`
	Allocs uint64 `json:"allocs,omitempty"`
}

// share returns the row's fraction of all fired events.
func (r Row) share(total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(r.Fired) / float64(total)
}

// name renders the display name of the attribution bucket.
func (r Row) name() (component, kind string) {
	if r.Component == "" && r.Kind == "" {
		return "(unlabeled)", "-"
	}
	return r.Component, r.Kind
}

// Rows returns every touched cost center sorted by (component, kind) — the
// deterministic report order. The unlabeled bucket sorts first (empty
// component).
func (p *Profile) Rows() []Row {
	rows := make([]Row, 0, len(p.stats))
	for lb := range p.stats {
		st := &p.stats[lb]
		if !st.touched() {
			continue
		}
		comp, kind := sim.LabelName(sim.Label(lb))
		rows = append(rows, Row{
			Component: comp, Kind: kind,
			Scheduled: st.scheduled, Fired: st.fired,
			FirstSim: st.firstSim, LastSim: st.lastSim,
			WallNS: st.wallNS, Allocs: st.allocs,
		})
	}
	sortRowsByName(rows)
	return rows
}

// Top returns the n most expensive cost centers by wall-clock time (ties
// broken by fired count, then name, so the order is total).
func (p *Profile) Top(n int) []Row {
	rows := p.Rows()
	sortRowsByWall(rows)
	if n < len(rows) {
		rows = rows[:n]
	}
	return rows
}

// RenderTop formats the top-n cost centers as the operator table smctl
// status --prof prints.
func (p *Profile) RenderTop(n int) string {
	rows := p.Top(n)
	out := fmt.Sprintf("top %d kernel cost centers (%d events, %.1fms in callbacks):\n",
		len(rows), p.Events(), float64(p.WallNS())/1e6)
	out += fmt.Sprintf("  %-14s %-18s %12s %10s %8s %9s\n",
		"component", "kind", "events", "wall ms", "ns/ev", "share")
	for _, r := range rows {
		comp, kind := r.name()
		nsPerEv := float64(0)
		if r.Fired > 0 {
			nsPerEv = float64(r.WallNS) / float64(r.Fired)
		}
		out += fmt.Sprintf("  %-14s %-18s %12d %10.2f %8.0f %8.2f%%\n",
			comp, kind, r.Fired, float64(r.WallNS)/1e6, nsPerEv, 100*r.share(p.total.fired))
	}
	return out
}
