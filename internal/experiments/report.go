// Package experiments contains one harness per table/figure of the paper's
// evaluation (§8) and survey (§2). Each harness builds its workload on the
// simulation substrate, runs the scenario, and returns a Report with the
// same rows/series the paper plots. cmd/smbench prints them; bench_test.go
// wraps them as testing.B benchmarks; EXPERIMENTS.md records
// paper-vs-measured for each.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"shardmanager/internal/metrics"
)

// Table is a printable rows-and-columns result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Curve is a printable named time series.
type Curve struct {
	Name   string
	Points []metrics.Point
	// Unit annotates the Y axis ("%", "ms", "violations", ...).
	Unit string
}

// Report is one experiment's output.
type Report struct {
	ID    string // "fig17", "fig21", ...
	Title string
	// Params records the workload parameters used.
	Params map[string]string
	Tables []Table
	Curves []Curve
	// Notes carries headline findings ("SM success rate 99.98%").
	Notes []string
	// Values exposes headline numbers machine-readably for cross-checks
	// (e.g. healthmon agreement tests). Not rendered.
	Values map[string]float64
	// Extra carries an experiment-specific structured record for
	// machine-readable export (the torture sweep's found-bug log, the
	// "faults" experiment's audit report). Not rendered.
	Extra any
}

// AddNote appends a formatted finding.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// AddValue records a machine-readable headline number.
func (r *Report) AddValue(name string, v float64) {
	if r.Values == nil {
		r.Values = make(map[string]float64)
	}
	r.Values[name] = v
}

// Render produces the harness's text output.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	if len(r.Params) > 0 {
		keys := make([]string, 0, len(r.Params))
		for k := range r.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("params:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, r.Params[k])
		}
		b.WriteString("\n")
	}
	for _, t := range r.Tables {
		fmt.Fprintf(&b, "\n%s\n", t.Title)
		widths := make([]int, len(t.Columns))
		for i, c := range t.Columns {
			widths[i] = len(c)
		}
		for _, row := range t.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, cell := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
			b.WriteString("\n")
		}
		writeRow(t.Columns)
		for _, row := range t.Rows {
			writeRow(row)
		}
	}
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "\nseries %q (%s): %d points\n", c.Name, c.Unit, len(c.Points))
		for _, p := range downsample(c.Points, 24) {
			fmt.Fprintf(&b, "  t=%-10s %v\n", fmtDur(p.T), fmtVal(p.V))
		}
	}
	if len(r.Notes) > 0 {
		b.WriteString("\nfindings:\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "  - %s\n", n)
		}
	}
	return b.String()
}

// downsample keeps at most n roughly evenly spaced points (always the first
// and last).
func downsample(pts []metrics.Point, n int) []metrics.Point {
	if len(pts) <= n {
		return pts
	}
	out := make([]metrics.Point, 0, n)
	step := float64(len(pts)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, pts[int(float64(i)*step)])
	}
	return out
}

func fmtDur(d time.Duration) string {
	return d.Truncate(time.Second).String()
}

func fmtVal(v float64) string {
	if v == float64(int64(v)) && v < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// pct renders a fraction as a percentage string.
func pct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }
