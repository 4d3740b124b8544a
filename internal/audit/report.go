// Deterministic audit reports. Both renderers iterate in sorted order and
// derive everything from simulated time, so two runs of the same seed emit
// byte-identical output — the report itself is a regression surface.
package audit

import (
	"fmt"
	"io"
	"sort"
	"time"

	"shardmanager/internal/shard"
)

// Report is the JSON shape of a full audit report.
type Report struct {
	App             string           `json:"app"`
	At              time.Duration    `json:"at_ns"`
	Checks          map[string]int64 `json:"checks"`
	ViolationCounts map[string]int64 `json:"violation_counts"`
	Violations      []Violation      `json:"violations"`
	Dropped         int              `json:"dropped,omitempty"`
	Rejects         map[string]int64 `json:"rejects,omitempty"`
	Deliveries      map[string]int64 `json:"deliveries,omitempty"`
	CoordOps        map[string]int64 `json:"coord_ops,omitempty"`
	CoordWrites     []CoordWrite     `json:"coord_writes,omitempty"`
}

// Report assembles the current audit state into its JSON shape.
func (a *Auditor) Report() Report {
	r := Report{
		App:             string(a.app),
		At:              a.loop.Now(),
		Checks:          make(map[string]int64, len(Invariants)),
		ViolationCounts: make(map[string]int64, len(Invariants)),
		Violations:      a.Violations(),
		Dropped:         a.dropped,
		CoordWrites:     append([]CoordWrite(nil), a.coordWrites...),
	}
	for _, inv := range Invariants {
		r.Checks[inv] = a.checks[inv]
		r.ViolationCounts[inv] = a.violCounts[inv]
	}
	if len(a.rejects) > 0 {
		r.Rejects = copyCounts(a.rejects)
	}
	if len(a.deliveries) > 0 {
		r.Deliveries = copyCounts(a.deliveries)
	}
	if len(a.coordOps) > 0 {
		r.CoordOps = copyCounts(a.coordOps)
	}
	return r
}

func copyCounts(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// WriteText writes the human-readable report: the per-invariant check and
// violation tallies, observed reject / delivery / coord-write counts, and
// every recorded violation with its ownership-timeline snapshot.
func (a *Auditor) WriteText(w io.Writer) {
	fmt.Fprintf(w, "audit report app=%s at=%s\n", a.app, a.loop.Now())
	fmt.Fprintf(w, "%-28s %10s %10s\n", "invariant", "checks", "violations")
	for _, inv := range Invariants {
		fmt.Fprintf(w, "%-28s %10d %10d\n", inv, a.checks[inv], a.violCounts[inv])
	}
	writeCounts(w, "rejects", a.rejects)
	writeCounts(w, "deliveries", a.deliveries)
	writeCounts(w, "coord writes", a.coordOps)
	if len(a.violations) == 0 && a.dropped == 0 {
		fmt.Fprintln(w, "violations: none")
		return
	}
	for i, v := range a.violations {
		fmt.Fprintf(w, "violation #%d at=%s invariant=%s shard=%s servers=%s\n",
			i+1, v.At, v.Invariant, v.Shard, joinServers(v.Servers))
		fmt.Fprintf(w, "  detail: %s\n", v.Detail)
		writeTimeline(w, "    ", v.Timeline)
	}
	if a.dropped > 0 {
		fmt.Fprintf(w, "... and %d more violations past the storage cap\n", a.dropped)
	}
}

// writeCounts prints one "name: k=v k=v" line with sorted keys (nothing
// when the map is empty).
func writeCounts(w io.Writer, name string, m map[string]int64) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s:", name)
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, m[k])
	}
	fmt.Fprintln(w)
}

// writeTimeline prints events one per line, time-aligned.
func writeTimeline(w io.Writer, indent string, tl []Event) {
	for _, e := range tl {
		fmt.Fprintf(w, "%s%12s %-9s %s\n", indent, e.At, e.Kind, e.Detail)
	}
}

// TimelineText writes one shard's ownership timeline (what `smctl audit`
// prints around a violation).
func (a *Auditor) TimelineText(s shard.ID, w io.Writer) {
	tl := a.Timeline(s)
	fmt.Fprintf(w, "ownership timeline shard=%s app=%s events=%d\n", s, a.app, len(tl))
	writeTimeline(w, "  ", tl)
}
