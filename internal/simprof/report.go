package simprof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// ReportOptions select what the text/JSON/folded exports contain.
type ReportOptions struct {
	// Wall includes wall-clock and allocation columns and sorts cost
	// centers by wall time. Wall measurements vary run to run; leave Wall
	// false for the byte-stable report the golden tests pin.
	Wall bool
}

// sortRowsByName orders rows by (component, kind): the deterministic
// report order.
func sortRowsByName(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Component != rows[j].Component {
			return rows[i].Component < rows[j].Component
		}
		return rows[i].Kind < rows[j].Kind
	})
}

// sortRowsByWall orders rows most-expensive first; every tie breaks on a
// deterministic key so the order is total even when wall times collide.
func sortRowsByWall(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].WallNS != rows[j].WallNS {
			return rows[i].WallNS > rows[j].WallNS
		}
		if rows[i].Fired != rows[j].Fired {
			return rows[i].Fired > rows[j].Fired
		}
		if rows[i].Component != rows[j].Component {
			return rows[i].Component < rows[j].Component
		}
		return rows[i].Kind < rows[j].Kind
	})
}

// WriteText renders the profile as a fixed-width table. Without o.Wall the
// output is derived purely from simulation state and is byte-identical
// across runs of the same seed.
func (p *Profile) WriteText(w io.Writer, o ReportOptions) error {
	rows := p.Rows()
	if o.Wall {
		sortRowsByWall(rows)
	}
	if _, err := fmt.Fprintf(w,
		"simprof: %d events dispatched (%d scheduled), sim time %s..%s\n",
		p.total.fired, p.total.scheduled,
		fmtSim(p.total.firstSim), fmtSim(p.total.lastSim)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event heap: max depth %d, avg depth %.1f\n",
		p.maxHeap, p.AvgHeapDepth()); err != nil {
		return err
	}
	header := fmt.Sprintf("%-14s %-18s %12s %12s %8s %11s %11s",
		"component", "kind", "scheduled", "fired", "share", "first", "last")
	if o.Wall {
		header += fmt.Sprintf(" %10s %8s %12s", "wall ms", "ns/ev", "allocs")
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, r := range rows {
		comp, kind := r.name()
		line := fmt.Sprintf("%-14s %-18s %12d %12d %7.2f%% %11s %11s",
			comp, kind, r.Scheduled, r.Fired,
			100*r.share(p.total.fired), fmtSim(r.FirstSim), fmtSim(r.LastSim))
		if o.Wall {
			nsPerEv := float64(0)
			if r.Fired > 0 {
				nsPerEv = float64(r.WallNS) / float64(r.Fired)
			}
			line += fmt.Sprintf(" %10.2f %8.0f %12d", float64(r.WallNS)/1e6, nsPerEv, r.Allocs)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// fmtSim renders a simulated timestamp compactly.
func fmtSim(d time.Duration) string { return d.String() }

// jsonReport is the WriteJSON schema. Field order is fixed by the struct,
// rows are sorted, and all values derive from integers, so the marshaled
// bytes are deterministic (wall fields appear only with ReportOptions.Wall).
type jsonReport struct {
	Events    uint64  `json:"events"`
	Scheduled uint64  `json:"scheduled"`
	FirstSim  int64   `json:"first_sim_ns"`
	LastSim   int64   `json:"last_sim_ns"`
	HeapMax   int     `json:"heap_depth_max"`
	HeapAvg   float64 `json:"heap_depth_avg"`
	WallNS    int64   `json:"wall_ns,omitempty"`
	Rows      []Row   `json:"rows"`
}

// WriteJSON renders the profile as indented JSON (byte-stable without
// o.Wall, like WriteText).
func (p *Profile) WriteJSON(w io.Writer, o ReportOptions) error {
	rows := p.Rows()
	if o.Wall {
		sortRowsByWall(rows)
	} else {
		for i := range rows {
			rows[i].WallNS = 0
			rows[i].Allocs = 0
		}
	}
	rep := jsonReport{
		Events:    p.total.fired,
		Scheduled: p.total.scheduled,
		FirstSim:  int64(p.total.firstSim),
		LastSim:   int64(p.total.lastSim),
		HeapMax:   p.maxHeap,
		HeapAvg:   p.AvgHeapDepth(),
		Rows:      rows,
	}
	if o.Wall {
		rep.WallNS = p.total.wallNS
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteFolded emits folded stacks ("sim;component;kind value") for
// flamegraph tooling (inferno, flamegraph.pl, speedscope). With o.Wall the
// value is wall-clock microseconds; without it, the event count — a
// deterministic "event flame".
func (p *Profile) WriteFolded(w io.Writer, o ReportOptions) error {
	for _, r := range p.Rows() {
		comp, kind := r.name()
		v := r.Fired
		if o.Wall {
			v = uint64(r.WallNS / 1000)
		}
		if v == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "sim;%s;%s %d\n", comp, kind, v); err != nil {
			return err
		}
	}
	return nil
}
