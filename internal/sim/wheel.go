package sim

import (
	"math/bits"

	"tdram/internal/pooldebug"
)

// This file implements the kernel's event queue as a two-level timing
// wheel with a sorted overflow tier, replacing the original
// container/heap priority queue. The heap cost O(log n) comparisons plus
// an interface{} boxing allocation per Push/Pop; the wheel schedules and
// fires in O(1) amortized with events stored in one reusable slab, so
// the steady-state schedule/fire path allocates nothing.
//
// Storage: every wheel event lives in a single per-simulator slab. A
// bucket is one int32: the slab index of its newest event, whose next
// index wraps around to the oldest — a circular FIFO that appends at
// the tail and pops at the head in O(1) with a single word per bucket.
// Fired events return their slot to a freelist threaded through the
// same next indices. Index 0 is a sentinel meaning "empty" / "end", so
// the zero wheel is empty and ready to use. The slab's size is the
// simulation's peak number of pending events, not every bucket it ever
// touched.
//
// Geometry:
//
//	level 0:  l0Size one-tick buckets covering [l0base, l0base+l0Size)
//	          — about 4 ns at picosecond resolution. One bucket per tick
//	          means events in a bucket are already in (when, seq) order:
//	          appends happen in scheduling order and never need sorting.
//	level 1:  l1Size buckets of l0Size ticks each covering
//	          [l0base+l0Size, l0base+l1Span) — about 4.2 µs, enough for
//	          every DRAM timing parameter including tREFI. A bucket
//	          cascades wholesale into level 0 when the window reaches it;
//	          the cascade walks the bucket's list in order and relinks
//	          each event onto its tick's tail, so per-tick FIFO order (and
//	          with it the deterministic (when, seq) firing order the
//	          models rely on) survives the move.
//	overflow: events at or beyond l0base+l1Span (watchdog windows,
//	          sampler intervals), kept sorted by when with same-when ties
//	          in scheduling order via upper-bound insertion. The prefix
//	          that fits drains back into the wheel on every window
//	          advance, so far-future self-rescheduling daemons cannot
//	          grow it without bound.
//
// Two invariants make the index arithmetic exact:
//
//   - l0base is always l0Size-aligned, so a level-0 index is
//     when-l0base and a level-1 index is (when>>l0Bits)&l1Mask.
//   - Now() never lags l0base when user code runs: the window only
//     advances inside Step, which immediately fires an event at or past
//     the new base. Schedule therefore never sees a target before the
//     window (ScheduleAt already panics for when < Now()).
const (
	l0Bits  = 12
	l0Size  = 1 << l0Bits
	l0Mask  = l0Size - 1
	l0Words = l0Size / 64

	l1Bits  = 10
	l1Size  = 1 << l1Bits
	l1Mask  = l1Size - 1
	l1Words = l1Size / 64
)

// l1Span is the total horizon the two wheel levels cover past l0base.
const l1Span = Tick(l1Size) << l0Bits

// bucket is one wheel slot's FIFO event list: the slab index of its
// newest event (0 when empty); that event's next is the oldest.
type bucket int32

// wheel is the event store. Bucket lists and the freelist thread
// through one event slab whose capacity is kept across reuse (freed
// slots are cleared for the GC), so after warmup the schedule path stops
// allocating.
type wheel struct {
	l0     [l0Size]bucket
	l0bits [l0Words]uint64
	l0hint int // lowest level-0 bitmap word that can be non-zero

	l1     [l1Size]bucket
	l1bits [l1Words]uint64

	// slab holds every wheel event; slab[0] is the unused sentinel that
	// index 0 ("empty", "end of list") names.
	slab []event
	free int32 // head of the freed-slot list (0 = none)

	overflow []event

	l0base Tick // start of the level-0 window, l0Size-aligned
	count  int  // total queued events
}

// alloc stores e in a free slab slot (growing the slab only when the
// freelist is empty) and returns its index.
func (w *wheel) alloc(e event) int32 {
	i := w.free
	if i != 0 {
		w.free = w.slab[i].next
		w.slab[i] = e
		return i
	}
	if len(w.slab) == 0 {
		w.slab = append(w.slab, event{}) // the sentinel
	}
	w.slab = append(w.slab, e)
	return int32(len(w.slab) - 1)
}

// release returns slot i to the freelist, dropping its callback
// references for the GC. Under pooldebug the slot is poisoned instead,
// so a stale index that fires it panics.
func (w *wheel) release(i int32) {
	e := &w.slab[i]
	if pooldebug.On {
		*e = event{when: -1, fn: firedFreedSlot}
	} else {
		e.fn, e.arg = nil, nil
	}
	e.next = w.free
	w.free = i
}

// firedFreedSlot is the poisoned callback of a released slot.
func firedFreedSlot(any, Tick) { panic("sim: fired a released event slot") }

// push appends slot i at bucket b's tail.
func (w *wheel) push(b *bucket, i int32) {
	if t := int32(*b); t == 0 {
		w.slab[i].next = i
	} else {
		w.slab[i].next = w.slab[t].next
		w.slab[t].next = i
	}
	*b = bucket(i)
}

// pop unlinks and returns bucket b's oldest slot; b must be non-empty.
func (w *wheel) pop(b *bucket) int32 {
	t := int32(*b)
	first := w.slab[t].next
	if first == t {
		*b = 0
	} else {
		w.slab[t].next = w.slab[first].next
	}
	return first
}

// place routes one event into the wheel level (or overflow tier) its
// timestamp belongs to and counts it.
func (s *Simulator) place(e event) {
	s.w.count++
	s.placeWheel(e)
}

// placeWheel routes without counting — shared by place and the overflow
// drain (which only moves already-counted events).
func (s *Simulator) placeWheel(e event) {
	w := &s.w
	switch {
	case e.when < w.l0base+l0Size:
		i := int(e.when - w.l0base)
		w.push(&w.l0[i], w.alloc(e))
		w.l0bits[i>>6] |= 1 << uint(i&63)
		if i>>6 < w.l0hint {
			w.l0hint = i >> 6
		}
	case e.when < w.l0base+l1Span:
		i := int(e.when>>l0Bits) & l1Mask
		w.push(&w.l1[i], w.alloc(e))
		w.l1bits[i>>6] |= 1 << uint(i&63)
	default:
		// Sorted upper-bound insert: same-when events stay in scheduling
		// order, preserving the (when, seq) total order through the tier.
		o := w.overflow
		lo, hi := 0, len(o)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if o[mid].when <= e.when {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		o = append(o, event{})
		copy(o[lo+1:], o[lo:])
		o[lo] = e
		w.overflow = o
	}
}

// scanL0 finds the lowest occupied level-0 bucket. The hint skips bitmap
// words already known empty; buckets behind the front never repopulate
// (events cannot be scheduled before Now()), so advancing it is safe.
func (s *Simulator) scanL0() (int, bool) {
	w := &s.w
	for i := w.l0hint; i < l0Words; i++ {
		if word := w.l0bits[i]; word != 0 {
			w.l0hint = i
			return i<<6 + bits.TrailingZeros64(word), true
		}
	}
	w.l0hint = l0Words
	return 0, false
}

// scanL1 finds the first occupied level-1 bucket in ring order starting
// just past the block the level-0 window occupies. Ring order equals
// time order across the level's validity window, so the first occupied
// bucket holds the earliest level-1 events.
func (s *Simulator) scanL1() (int, bool) {
	w := &s.w
	start := (int(s.w.l0base>>l0Bits) + 1) & l1Mask
	wd := start >> 6
	if word := w.l1bits[wd] >> uint(start&63); word != 0 {
		return start + bits.TrailingZeros64(word), true
	}
	// Remaining words, wrapping. The final iteration re-checks word wd:
	// its high bits were seen empty above, so only the wrapped-around low
	// bits can match.
	for k := 1; k <= l1Words; k++ {
		i := (wd + k) % l1Words
		if word := w.l1bits[i]; word != 0 {
			return i<<6 + bits.TrailingZeros64(word), true
		}
	}
	return 0, false
}

// advance moves the level-0 window forward to the next pending events:
// either a cascade of the earliest occupied level-1 bucket, or (both
// levels empty) a jump straight to the first overflow event. Callers
// guarantee at least one event is queued and level 0 is empty.
func (s *Simulator) advance() {
	if i, ok := s.scanL1(); ok {
		s.cascade(i)
		return
	}
	s.w.l0base = s.w.overflow[0].when &^ Tick(l0Mask)
	s.w.l0hint = 0
	s.drainOverflow()
}

// cascade redistributes level-1 bucket i into level 0, advancing l0base
// to that bucket's block. The walk is in list order and each event is
// relinked onto its tick's tail, so same-tick events keep their
// scheduling order; no event is copied.
func (s *Simulator) cascade(i int) {
	w := &s.w
	cur := int(w.l0base>>l0Bits) & l1Mask
	d := (i - cur) & l1Mask
	w.l0base = ((w.l0base >> l0Bits) + Tick(d)) << l0Bits
	w.l0hint = 0
	for w.l1[i] != 0 {
		k := w.pop(&w.l1[i])
		j := int(w.slab[k].when & l0Mask)
		w.push(&w.l0[j], k)
		w.l0bits[j>>6] |= 1 << uint(j&63)
	}
	w.l1bits[i>>6] &^= 1 << uint(i&63)
	s.drainOverflow()
}

// drainOverflow migrates the sorted-prefix of overflow events that now
// fit under the advanced window back into the wheel, keeping the tier's
// invariant that its head is always at or past l0base+l1Span.
func (s *Simulator) drainOverflow() {
	o := s.w.overflow
	end := s.w.l0base + l1Span
	n := 0
	for n < len(o) && o[n].when < end {
		n++
	}
	if n == 0 {
		return
	}
	for _, e := range o[:n] {
		s.placeWheel(e)
	}
	rest := copy(o, o[n:])
	clear(o[rest:])
	s.w.overflow = o[:rest]
}

// nextL0 returns the level-0 index of the earliest pending event,
// advancing the window as needed. It reports false on an empty queue.
func (s *Simulator) nextL0() (int, bool) {
	if s.w.count == 0 {
		return 0, false
	}
	for {
		if i, ok := s.scanL0(); ok {
			return i, true
		}
		s.advance()
	}
}

// peekNext reports the earliest pending event's time without firing
// anything or advancing the window (Run's limit check must not move
// l0base past Now(), or a schedule issued after an early return could
// target a tick behind the window).
func (s *Simulator) peekNext() (Tick, bool) {
	if s.w.count == 0 {
		return 0, false
	}
	if i, ok := s.scanL0(); ok {
		return s.w.l0base + Tick(i), true
	}
	if i, ok := s.scanL1(); ok {
		w := &s.w
		last := int32(w.l1[i])
		min := w.slab[last].when
		for k := w.slab[last].next; k != last; k = w.slab[k].next {
			if when := w.slab[k].when; when < min {
				min = when
			}
		}
		return min, true
	}
	return s.w.overflow[0].when, true
}

// OverflowPending reports the number of events parked in the overflow
// tier (tests: the tier must drain as the window advances).
func (s *Simulator) OverflowPending() int { return len(s.w.overflow) }
