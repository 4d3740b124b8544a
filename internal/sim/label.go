package sim

import (
	"sync"
	"time"
)

// Label identifies one (component, kind) attribution bucket for the
// kernel profiler (internal/simprof). Labels are interned process-wide:
// components intern theirs once (package var or constructor) and pass the
// small integer at every schedule site, so the hot path never touches the
// string table. Label 0 is reserved for unlabeled events.
//
// Label *identity* is assignment-order dependent (package init and test
// order), so it must never leak into output; reports key rows by the
// (component, kind) names, which are stable.
type Label int32

// labelKey is the interning key.
type labelKey struct {
	component, kind string
}

// labelTable is the process-global intern table. A mutex (not the loop)
// guards it because independent loops in parallel tests intern labels
// concurrently; interning is off the dispatch path.
var labelTable = struct {
	sync.RWMutex
	byName map[labelKey]Label
	names  []labelKey // index = Label; names[0] is the unlabeled sentinel
}{
	byName: map[labelKey]Label{},
	names:  []labelKey{{}},
}

// LabelFor interns (component, kind) and returns its label. Calling it
// repeatedly with the same pair returns the same label; hot components
// should still cache the result rather than re-interning per event.
func LabelFor(component, kind string) Label {
	k := labelKey{component, kind}
	labelTable.RLock()
	lb, ok := labelTable.byName[k]
	labelTable.RUnlock()
	if ok {
		return lb
	}
	labelTable.Lock()
	defer labelTable.Unlock()
	if lb, ok := labelTable.byName[k]; ok {
		return lb
	}
	lb = Label(len(labelTable.names))
	labelTable.byName[k] = lb
	labelTable.names = append(labelTable.names, k)
	return lb
}

// LabelName returns the (component, kind) pair a label was interned with.
// Label 0 and out-of-range labels return empty strings.
func LabelName(lb Label) (component, kind string) {
	labelTable.RLock()
	defer labelTable.RUnlock()
	if lb <= 0 || int(lb) >= len(labelTable.names) {
		return "", ""
	}
	k := labelTable.names[lb]
	return k.component, k.kind
}

// NumLabels returns the number of interned labels plus one (the unlabeled
// sentinel): the size profilers need for a dense per-label stats table.
func NumLabels() int {
	labelTable.RLock()
	defer labelTable.RUnlock()
	return len(labelTable.names)
}

// Profiler observes the loop's event lifecycle: an event is scheduled, then
// dispatched. internal/simprof provides the real implementation; the loop
// only knows this interface so sim stays dependency-free. All methods are
// invoked on the loop goroutine.
type Profiler interface {
	// OnSchedule is called when an event is scheduled.
	OnSchedule(lb Label)
	// Dispatch runs fn, attributing its cost to lb. now is the simulated
	// time of the event; heapLen and live both carry the post-pop count of
	// pending events, for queue-depth gauges.
	Dispatch(lb Label, now time.Duration, heapLen, live int, fn func())
}
