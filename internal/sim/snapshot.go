package sim

// This file implements kernel checkpointing: a deep copy of the
// simulator's clock and timing-wheel event queue that can later be
// restored — into the same Simulator or a fresh one — so a run can fork
// from a warmed midpoint instead of replaying it. The experiment matrix
// uses this to share per-workload warmup across designs; the same
// machinery is the seed for tdserve resume.
//
// What a snapshot owns outright: the clock (now), the fired/non-daemon
// accounting, and every queued event record — the event slab with its
// level-0 and level-1 bucket lists and freelist, the occupancy bitmaps,
// the window base, and the sorted overflow tier. There is no per-event sequence counter to
// capture: insertion order within a tick IS the deterministic tie-break,
// and the copy preserves bucket order verbatim, so a restored kernel
// fires the exact event interleaving the original would have.
//
// What a snapshot shares: the fn and arg values stored in each event.
// Callbacks are code plus whatever model state arg (or a closure's
// captured variables) reaches — the kernel cannot deep-copy that. A
// snapshot is therefore only as independent as the model state behind
// its callbacks. The supported disciplines are:
//
//   - restore into the same Simulator after the model state has been
//     reset or re-seeded (replay/rewind), or
//   - snapshot at a quiescent point and route callbacks through a
//     swappable environment pointer the harness re-aims before resuming
//     (the fork pattern; see the snapshot fuzz test), or
//   - snapshot an empty kernel (Pending() == 0) where no callbacks are
//     captured at all — the warmup-image fork in internal/experiments
//     does this.
//
// The watchdog is deliberately not captured: an armed watchdog's check
// daemon holds a pointer to its own Simulator, so a snapshot of a
// watchdog-armed kernel must only be restored into that same Simulator.

// Snapshot is a frozen deep copy of a Simulator's clock and event queue.
// It stays valid across any number of Restore calls and across further
// mutation of the simulator it was taken from.
type Snapshot struct {
	now       Tick
	fired     uint64
	nonDaemon int
	w         wheel
}

// Now reports the simulated time at which the snapshot was taken.
func (sn *Snapshot) Now() Tick { return sn.now }

// Pending reports the number of events frozen in the snapshot.
func (sn *Snapshot) Pending() int { return sn.w.count }

// Snapshot captures the kernel's current clock and queue. Event fn/arg
// values are shared, not copied — see the package comment above for the
// disciplines that make a restore sound.
//
//tdlint:copier Snapshot
func (s *Simulator) Snapshot() *Snapshot {
	sn := &Snapshot{now: s.now, fired: s.fired, nonDaemon: s.nonDaemon}
	copyWheel(&sn.w, &s.w)
	return sn
}

// Restore overwrites s's clock and queue with the snapshot's state. The
// snapshot is deep-copied again on the way in, so it remains reusable
// and the restored kernel never aliases its buckets. Any events queued
// in s are discarded; the watchdog pointer is left untouched.
//
//tdlint:copier Simulator
func (s *Simulator) Restore(sn *Snapshot) {
	s.now = sn.now
	s.fired = sn.fired
	s.nonDaemon = sn.nonDaemon
	copyWheel(&s.w, &sn.w)
}

// copyWheel deep-copies src's queue into dst, reusing dst's slab and
// overflow storage where capacity allows and clearing stale event
// references so dropped callbacks don't linger for the GC. Bucket lists
// are slab indices, so copying the slab verbatim preserves them.
//
//tdlint:copier wheel
func copyWheel(dst, src *wheel) {
	dst.l0 = src.l0
	dst.l0bits = src.l0bits
	dst.l0hint = src.l0hint
	dst.l1 = src.l1
	dst.l1bits = src.l1bits
	dst.free = src.free
	dst.l0base = src.l0base
	dst.count = src.count
	dst.slab = copyEvents(dst.slab, src.slab)
	dst.overflow = copyEvents(dst.overflow, src.overflow)
}

// copyEvents replaces dst's contents with src's, keeping dst's storage.
//
//tdlint:copier event
func copyEvents(dst, src []event) []event {
	if cap(dst) > 0 {
		clear(dst[:cap(dst)])
	}
	return append(dst[:0], src...)
}
