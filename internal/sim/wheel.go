package sim

import (
	"math"
	"math/bits"
)

// The loop's pending-event store is a one-level timing wheel in front of a
// heap. A single global binary heap pays O(log n) pointer-chasing sifts on
// every schedule and dispatch; the wheel gives the dominant short-delay events
// (RPC legs of 1-70 ms, retries, liveness timers) O(1) slot filing and defers
// ordering work until a tick actually becomes due.
//
// Geometry. Simulated time is divided into ticks of 2^20 ns (~1.05 ms). An
// event whose tick is delta ticks past the cursor is filed by delta:
//
//	delta <= 0      near: due now, a binary min-heap on (at, seq)
//	delta <= 2^8    L0: 256 slots of one tick each (~268 ms), slot = tick & 255
//	beyond          far: a binary min-heap on (at, seq)
//
// Slots are intrusive singly-linked lists (event.next), so filing is
// pointer-swap cheap and allocation-free. A four-word occupancy bitmap lets
// the cursor skip empty slots with TrailingZeros64 instead of walking them.
// One level is what the deployments reach: the bench workloads hold a few
// hundred to a few thousand pending events, nearly all within L0's span, and
// the periodic timers beyond it (load collection, allocation, discovery
// propagation) are few enough that a heap holds them cheaply.
//
// Ordering / determinism. The loop dispatches only from near, and the cursor
// advances only when near is empty, so the event popped from near is always
// the globally minimal pending (at, seq) — the dispatch order of one global
// heap, including FIFO ties by seq. When the cursor crosses into a 256-tick
// block, every far event of that block moves into L0 (or near) before its
// tick can become due.
type wheel struct {
	curTick uint64 // all events at ticks <= curTick are in near (or gone)

	near []*event // due events, min-heap on (at, seq)

	l0    [l0Slots]*event
	l0occ [l0Slots / 64]uint64

	far []*event // events past L0's span, min-heap on (at, seq)

	stored int // events held anywhere in the structure
}

const (
	tickShift = 20 // tick = 2^20 ns ~= 1.05 ms of simulated time

	l0Slots = 256
	l0Mask  = l0Slots - 1
)

func tickOf(at int64) uint64 { return uint64(at) >> tickShift }

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// file places ev into near, an L0 slot, or far by its delta from the cursor.
// It does not touch stored: callers account for entering/leaving the
// structure; moving from far into L0 is not a new entry.
func (w *wheel) file(ev *event) {
	t := tickOf(int64(ev.at))
	switch {
	case t <= w.curTick:
		heapPush(&w.near, ev)
	case t-w.curTick <= l0Slots:
		s := t & l0Mask
		ev.next = w.l0[s]
		w.l0[s] = ev
		w.l0occ[s>>6] |= 1 << (s & 63)
	default:
		heapPush(&w.far, ev)
	}
}

// advance moves the cursor forward until near is non-empty or the next
// occupied tick would exceed limit (then the cursor stops at limit). The
// caller must ensure near is empty. Work is bounded by occupancy: empty
// stretches are skipped block by block rather than walked tick by tick.
func (w *wheel) advance(limit uint64) {
	for {
		t := w.curTick + 1
		if t > limit {
			return
		}
		if t&l0Mask == 0 {
			w.drainFar(t + l0Slots)
		}
		if s := w.scanL0(int(t & l0Mask)); s >= 0 {
			tick := (t &^ uint64(l0Mask)) | uint64(s)
			if tick > limit {
				w.curTick = limit
				return
			}
			w.curTick = tick
			w.loadL0(s)
			return
		}
		// Rest of this 256-tick block is empty: jump to the next block that
		// holds anything (or to limit, whichever first). L0 slots below the
		// cursor's block offset wrap into the next block (delta <= 256 spans
		// the boundary), so any remaining L0 occupancy after a failed tail
		// scan pins the jump to the very next block; otherwise the next
		// events are the far head's, a whole number of blocks ahead.
		nb := (t &^ uint64(l0Mask)) + l0Slots
		if w.l0occ[0]|w.l0occ[1]|w.l0occ[2]|w.l0occ[3] == 0 {
			nb = math.MaxUint64
			if len(w.far) > 0 {
				nb = tickOf(int64(w.far[0].at)) &^ uint64(l0Mask)
			}
		}
		if nb-1 >= limit {
			w.curTick = limit
			return
		}
		w.curTick = nb - 1
	}
}

// drainFar files every far event due before tick horizon. advance calls it
// with the end of the block the cursor is entering: a far event is filed more
// than 256 ticks ahead, so it is still in far when the cursor reaches the
// start of its block, and leaves at that boundary with a delta L0 can hold.
func (w *wheel) drainFar(horizon uint64) {
	for len(w.far) > 0 && tickOf(int64(w.far[0].at)) < horizon {
		w.file(heapPop(&w.far))
	}
}

// scanL0 returns the first occupied L0 slot index >= from, or -1.
func (w *wheel) scanL0(from int) int {
	wi := from >> 6
	word := w.l0occ[wi] & (^uint64(0) << uint(from&63))
	for {
		if word != 0 {
			return wi<<6 + bits.TrailingZeros64(word)
		}
		wi++
		if wi == len(w.l0occ) {
			return -1
		}
		word = w.l0occ[wi]
	}
}

// loadL0 moves slot s's events into near. Within one L0 slot all events
// share a tick, but their sub-tick at values differ; the near heap restores
// exact (at, seq) order regardless of list order.
func (w *wheel) loadL0(s int) {
	ev := w.l0[s]
	w.l0[s] = nil
	w.l0occ[s>>6] &^= 1 << uint(s&63)
	for ev != nil {
		next := ev.next
		ev.next = nil
		heapPush(&w.near, ev)
		ev = next
	}
}

// Binary min-heap helpers over (at, seq) — shared by near and far.

func heapPush(h *[]*event, ev *event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func heapPop(h *[]*event) *event {
	s := *h
	ev := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	siftDown(s, 0)
	return ev
}

func siftDown(s []*event, i int) {
	n := len(s)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && eventLess(s[c+1], s[c]) {
			c++
		}
		if !eventLess(s[c], s[i]) {
			return
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
}
