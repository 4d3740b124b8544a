// Human-readable text timeline export: every retained span's start and end,
// in simulated-time order, with span begin/end markers indented by depth.
// Useful for quick terminal inspection and for diffing two runs without a
// trace viewer.

package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// textRecord is one renderable line, ordered by (ts, span).
type textRecord struct {
	ts   time.Duration
	span SpanID
	line string
}

// WriteText renders the retained spans as a chronological text timeline.
func (t *Tracer) WriteText(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "(tracing disabled)\n")
		return err
	}
	spans := t.Spans()

	// Span depth via parent chains, for indentation.
	byID := make(map[SpanID]*Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var depth func(id SpanID) int
	depth = func(id SpanID) int {
		d := 0
		for sp := byID[id]; sp != nil && sp.Parent != 0; sp = byID[sp.Parent] {
			d++
		}
		return d
	}

	var recs []textRecord
	for _, sp := range spans {
		ind := indent(depth(sp.ID))
		recs = append(recs, textRecord{sp.Start, sp.ID, fmt.Sprintf(
			"%-12s %-14s %s> %s #%d%s", fmtTS(sp.Start), sp.Component, ind, sp.Name, sp.ID, attrsText(sp.Attrs))})
		if sp.Ended {
			// An end line sorts by end time, and among lines at that
			// instant by its span's ID, right after its own start line.
			recs = append(recs, textRecord{sp.End, sp.ID, fmt.Sprintf(
				"%-12s %-14s %s< %s #%d dur=%s", fmtTS(sp.End), sp.Component, ind, sp.Name, sp.ID, sp.Duration())})
		}
	}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].ts != recs[j].ts {
			return recs[i].ts < recs[j].ts
		}
		return recs[i].span < recs[j].span
	})

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "trace: %d spans (dropped: %d)\n", len(spans), t.Dropped())
	for _, r := range recs {
		bw.WriteString(r.line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

func fmtTS(d time.Duration) string { return d.String() }

func indent(depth int) string {
	const pad = "  "
	out := ""
	for i := 0; i < depth && i < 8; i++ {
		out += pad
	}
	return out
}

func attrsText(attrs []Attr) string {
	out := ""
	for _, a := range attrs {
		out += " " + a.Key + "=" + a.Val
	}
	return out
}
