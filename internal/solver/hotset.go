package solver

// hotSet tracks every bucket's local penalty in a max-heap so Phase 2 can
// pull the hottest bucket in O(log B) instead of rescanning all buckets each
// round. Penalties are maintained incrementally by state.apply; the solve
// loop freezes buckets it failed to improve and unfreezes everything at
// epoch boundaries.
//
// Ties break toward the lower bucket ID so the pull order is deterministic.
type hotSet struct {
	// pen[b] is bucket b's current penalty (maintained incrementally; small
	// float drift versus a full bucketPenalty is expected and
	// harmless — it only orders the search).
	pen []float64
	// heap holds the unfrozen bucket IDs in max-heap order.
	heap []int32
	// pos[b] is b's index in heap, or -1 while frozen.
	pos []int32
}

func newHotSet(n int) *hotSet {
	h := &hotSet{
		pen:  make([]float64, n),
		heap: make([]int32, n),
		pos:  make([]int32, n),
	}
	for i := range h.heap {
		h.heap[i] = int32(i)
		h.pos[i] = int32(i)
	}
	return h
}

// init heapifies after the caller has filled pen directly (newState does
// this once with full bucketPenalty recomputations).
func (h *hotSet) init() {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *hotSet) less(a, b int32) bool {
	if h.pen[a] != h.pen[b] {
		return h.pen[a] > h.pen[b]
	}
	return a < b
}

func (h *hotSet) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *hotSet) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[parent]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *hotSet) siftDown(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(h.heap[l], h.heap[best]) {
			best = l
		}
		if r < n && h.less(h.heap[r], h.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// top returns the hottest unfrozen bucket and its penalty, or (-1, 0) when
// every bucket is frozen.
func (h *hotSet) top() (BucketID, float64) {
	if len(h.heap) == 0 {
		return -1, 0
	}
	b := h.heap[0]
	return BucketID(b), h.pen[b]
}

// add shifts bucket b's penalty by delta and restores heap order. A frozen
// bucket whose penalty changes is unfrozen: its situation changed, so it
// deserves another look.
func (h *hotSet) add(b BucketID, delta float64) {
	h.pen[b] += delta
	if h.pos[b] < 0 {
		h.push(int32(b))
		return
	}
	i := int(h.pos[b])
	h.siftUp(i)
	h.siftDown(int(h.pos[b]))
}

func (h *hotSet) push(b int32) {
	h.pos[b] = int32(len(h.heap))
	h.heap = append(h.heap, b)
	h.siftUp(len(h.heap) - 1)
}

// freeze removes b from the heap until add changes its penalty or
// unfreezeAll runs.
func (h *hotSet) freeze(b BucketID) {
	i := int(h.pos[b])
	if i < 0 {
		return
	}
	last := len(h.heap) - 1
	h.swap(i, last)
	h.heap = h.heap[:last]
	h.pos[b] = -1
	if i < last {
		h.siftDown(i)
		h.siftUp(i)
	}
}

// unfreezeAll returns every frozen bucket to the heap (epoch boundary).
func (h *hotSet) unfreezeAll() {
	for b := range h.pos {
		if h.pos[b] < 0 {
			h.push(int32(b))
		}
	}
}
