// Human-readable text timeline export: every retained record on one line,
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

// textRecord is one renderable line.
type textRecord struct {
	ts   time.Duration
	seq  uint64
	line string
}

// WriteText renders the retained records as a chronological text timeline.
func (t *Tracer) WriteText(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "(tracing disabled)\n")
		return err
	}
	spans := t.Spans()
	events := t.Events()
	droppedSpans, droppedEvents := t.Dropped()

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
		recs = append(recs, textRecord{sp.Start, sp.seq, fmt.Sprintf(
			"%-12s %-14s %s> %s #%d%s", fmtTS(sp.Start), sp.Component, ind, sp.Name, sp.ID, attrsText(sp.Attrs))})
		if sp.Ended {
			// End lines sort by end time; give them a seq after every
			// start at the same instant by reusing the span's seq.
			recs = append(recs, textRecord{sp.End, sp.seq, fmt.Sprintf(
				"%-12s %-14s %s< %s #%d dur=%s", fmtTS(sp.End), sp.Component, ind, sp.Name, sp.ID, sp.Duration())})
		}
	}
	for _, ev := range events {
		recs = append(recs, textRecord{ev.Time, ev.seq, fmt.Sprintf(
			"%-12s %-14s * %s span=%d%s", fmtTS(ev.Time), ev.Component, ev.Name, ev.Span, attrsText(ev.Attrs))})
	}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].ts != recs[j].ts {
			return recs[i].ts < recs[j].ts
		}
		return recs[i].seq < recs[j].seq
	})

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "trace: %d spans, %d events (dropped: %d spans, %d events)\n",
		len(spans), len(events), droppedSpans, droppedEvents)
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
