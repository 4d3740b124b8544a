// Chrome trace-event export. The output loads directly into
// chrome://tracing and https://ui.perfetto.dev: one "thread" per component
// and one complete ("X") event per span, a point in time drawn with dur 0.
//
// The writer never iterates a Go map and renders every number itself, so a
// fixed-seed simulation exports byte-identical JSON on every run — the
// golden-file test in chrome_test.go holds the format to that promise.

package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"time"
)

// WriteChrome renders the retained spans as Chrome trace-event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[]}`+"\n")
		return err
	}
	t.mu.Lock()
	spans := t.spans.items()
	now := t.now()
	dropped := t.dropped
	t.mu.Unlock()

	// One thread per component, numbered in first-appearance order.
	var comps []string
	tid := make(map[string]int)
	for _, sp := range spans {
		if tid[sp.Component] == 0 {
			comps = append(comps, sp.Component)
			tid[sp.Component] = len(comps)
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})

	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","otherData":{`)
	bw.WriteString(`"droppedSpans":` + strconv.FormatUint(dropped, 10))
	bw.WriteString(`},"traceEvents":[`)

	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		} else {
			bw.WriteString("\n")
			first = false
		}
		bw.WriteString(line)
	}

	// Thread-name metadata first, in component first-appearance order.
	for _, c := range comps {
		emit(`{"ph":"M","name":"thread_name","pid":1,"tid":` +
			strconv.Itoa(tid[c]) + `,"args":{"name":` + jsonString(c) + `}}`)
	}
	for _, sp := range spans {
		end := sp.End
		extra := ""
		if !sp.Ended {
			end = now // still open at export: draw it up to "now"
			extra = `,"incomplete":"true"`
		}
		emit(`{"ph":"X","name":` + jsonString(sp.Name) +
			`,"cat":` + jsonString(sp.Component) +
			`,"ts":` + usec(sp.Start) +
			`,"dur":` + usec(end-sp.Start) +
			`,"pid":1,"tid":` + strconv.Itoa(tid[sp.Component]) +
			`,"args":{"span":"` + strconv.FormatUint(uint64(sp.ID), 10) +
			`","parent":"` + strconv.FormatUint(uint64(sp.Parent), 10) + `"` +
			extra + attrsJSON(sp.Attrs) + `}}`)
	}

	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// usec renders a simulated instant as microseconds with nanosecond
// precision, the unit Chrome's ts/dur fields expect.
func usec(d time.Duration) string {
	us := d / time.Microsecond
	rem := d % time.Microsecond
	if rem == 0 {
		return strconv.FormatInt(int64(us), 10)
	}
	return strconv.FormatInt(int64(us), 10) + "." + pad3(int64(rem))
}

func pad3(v int64) string {
	s := strconv.FormatInt(v, 10)
	for len(s) < 3 {
		s = "0" + s
	}
	return s
}

// attrsJSON renders attributes as ,"k":"v" pairs (keys already unique per
// call site; order is the attribute slice's order).
func attrsJSON(attrs []Attr) string {
	out := ""
	for _, a := range attrs {
		out += "," + jsonString(a.Key) + ":" + jsonString(a.Val)
	}
	return out
}

// jsonString renders a Go string as a JSON string literal.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for strings
		return `"?"`
	}
	return string(b)
}
