// Package dramcache implements the DRAM-cache controller and the six
// evaluated designs from the paper: Intel Cascade Lake-style
// tags-in-ECC caching, Alloy, BEAR, NDC, TDRAM, and an Ideal
// (zero-latency-tag) upper bound, plus a no-DRAM-cache pass-through used
// by Figs. 2 and 12. The controller models per-channel read/write
// queues, FR-FCFS scheduling with write draining, a conflicting-request
// buffer, fills and writebacks against the DDR5 backing store, and the
// TDRAM device behaviours: in-DRAM tag compare, conditional column
// operation, the HM bus, the flush buffer and early tag probing.
package dramcache

import (
	"fmt"
	"math/bits"

	"tdram/internal/mem"
)

// A line's metadata is one packed word: tag<<lineTagShift | inflight |
// dirty | valid. Tags are line addresses divided by the set count, so
// they fit the remaining 61 bits for any 64-bit byte address.
const (
	lineValid    = 1 << 0
	lineDirty    = 1 << 1
	lineInflight = 1 << 2 // fill from main memory pending
	lineTagShift = 3
)

// tagStore is the functional content state of the DRAM cache: a
// set-associative (ways=1 gives the paper's default direct-mapped)
// insert-on-miss tag array. It tracks only metadata — the simulator never
// moves real data — and is the single source of truth every design's tag
// check consults.
type tagStore struct {
	sets    uint64
	ways    int
	lines   []uint64 // sets × ways packed line words
	lruTick uint64

	// lru holds each way's LRU stamp (larger = more recently used), and
	// is nil for a direct-mapped store, whose victim is always its one
	// way. An invalid way has stamp 0 and every valid way a stamp of at
	// least 1, so the victim is the way with the lowest stamp, ties to
	// the lowest way: the first invalid way if there is one, else the
	// least recently used.
	lru []uint64

	// Power-of-two set decode: replace the modulo/divide pair — which
	// dominates the tag-check cost for the default direct-mapped store —
	// with mask and shift. pow2 false falls back to the general arithmetic.
	pow2  bool
	mask  uint64
	shift uint

	// Graceful degradation under fault injection: errs counts
	// retry-exhausted (uncorrectable) errors per set; sets in retired are
	// out of service — every access misses clean without installing, so
	// the controller serves them from the backing store. Both maps are
	// lazily allocated: fault-free runs never touch them.
	retired map[uint64]bool
	errs    map[uint64]int
}

// newTagStore sizes the store for capacityBytes of 64 B lines.
func newTagStore(capacityBytes uint64, ways int) (*tagStore, error) {
	if ways <= 0 {
		return nil, fmt.Errorf("dramcache: ways = %d", ways)
	}
	lines := capacityBytes / mem.LineSize
	if lines == 0 || lines%uint64(ways) != 0 {
		return nil, fmt.Errorf("dramcache: capacity %d not divisible into %d ways", capacityBytes, ways)
	}
	t := &tagStore{sets: lines / uint64(ways), ways: ways, lines: make([]uint64, lines)}
	if ways > 1 {
		t.lru = make([]uint64, lines)
	}
	if t.sets&(t.sets-1) == 0 {
		t.pow2 = true
		t.mask = t.sets - 1
		t.shift = uint(bits.TrailingZeros64(t.sets))
	}
	return t, nil
}

func (t *tagStore) set(line uint64) (uint64, uint64) {
	if t.pow2 {
		return line & t.mask, line >> t.shift
	}
	return line % t.sets, line / t.sets
}

// setIndex is the set-only half of set, for the retirement bookkeeping.
func (t *tagStore) setIndex(line uint64) uint64 {
	if t.pow2 {
		return line & t.mask
	}
	return line % t.sets
}

// lineOf reconstructs a line address from set and tag.
func (t *tagStore) lineOf(set, tag uint64) uint64 { return tag*t.sets + set }

// locate decodes line into its set, the index of the set's first way, and
// the packed word a valid copy of the line matches once its dirty and
// inflight bits are masked off.
func (t *tagStore) locate(line uint64) (set, base, key uint64) {
	set, tag := t.set(line)
	return set, set * uint64(t.ways), tag<<lineTagShift | lineValid
}

// find returns the index of the way holding key in the set at base; ok
// is false when the line is not resident.
func (t *tagStore) find(base, key uint64) (uint64, bool) {
	for i := base; i < base+uint64(t.ways); i++ {
		if t.lines[i]&^(lineDirty|lineInflight) == key {
			return i, true
		}
	}
	return 0, false
}

// victim returns the index of the way a miss in the set at base displaces.
func (t *tagStore) victim(base uint64) uint64 {
	if t.lru == nil {
		return base
	}
	lru := t.lru[base : base+uint64(t.ways)]
	vw := 0
	for w := 1; w < len(lru); w++ {
		if lru[w] < lru[vw] {
			vw = w
		}
	}
	return base + uint64(vw)
}

// touch stamps way i as the most recently used.
func (t *tagStore) touch(i uint64) {
	if t.lru != nil {
		t.lru[i] = t.lruTick
	}
}

// probe is a read-only lookup.
type probeResult struct {
	Hit      bool
	Dirty    bool // dirty bit of the hit line, or of the LRU victim on miss
	Inflight bool // the hit line's fill is still pending
	Victim   uint64
}

// isRetired reports whether line's set is out of service.
func (t *tagStore) isRetired(line uint64) bool {
	return t.retired != nil && t.retired[t.setIndex(line)]
}

// recordError charges one uncorrectable error against line's set and
// returns the set's running count (0 once the set is already retired).
func (t *tagStore) recordError(line uint64) int {
	set := t.setIndex(line)
	if t.retired != nil && t.retired[set] {
		return 0
	}
	if t.errs == nil {
		t.errs = make(map[uint64]int)
	}
	t.errs[set]++
	return t.errs[set]
}

// retire takes line's set out of service, invalidating its ways, and
// returns the line addresses of any dirty victims that must still be
// written back. Idempotent.
func (t *tagStore) retire(line uint64) (dirty []uint64) {
	set := t.setIndex(line)
	if t.retired == nil {
		t.retired = make(map[uint64]bool)
	}
	if t.retired[set] {
		return nil
	}
	t.retired[set] = true
	base := set * uint64(t.ways)
	for i := base; i < base+uint64(t.ways); i++ {
		if l := t.lines[i]; l&(lineValid|lineDirty) == lineValid|lineDirty {
			dirty = append(dirty, t.lineOf(set, l>>lineTagShift))
		}
		t.lines[i] = 0
		if t.lru != nil {
			t.lru[i] = 0
		}
	}
	return dirty
}

func (t *tagStore) probe(line uint64) probeResult {
	if t.isRetired(line) {
		return probeResult{}
	}
	set, base, key := t.locate(line)
	if i, ok := t.find(base, key); ok {
		l := t.lines[i]
		return probeResult{Hit: true, Dirty: l&lineDirty != 0, Inflight: l&lineInflight != 0}
	}
	r := probeResult{}
	if l := t.lines[t.victim(base)]; l&lineValid != 0 {
		r.Dirty = l&lineDirty != 0
		r.Victim = t.lineOf(set, l>>lineTagShift)
	}
	return r
}

// access performs the tag check and the insert-on-miss state transition
// in one atomic step (the commit point of the access's tag check). It
// returns the paper's Table II outcome and, when a valid victim is
// displaced, its line address and dirty bit.
//
// write=true marks the line dirty (demand writes carry the full 64 B).
// A read miss's new line is inflight until its fill arrives (fillDone);
// writes install complete lines and are never inflight.
// install=false (BEAR's bypassed fills) evaluates the outcome without
// modifying state.
func (t *tagStore) access(line uint64, write, install bool) (out mem.Outcome, victim uint64, victimDirty bool) {
	kind := mem.Read
	if write {
		kind = mem.Write
	}
	if t.isRetired(line) {
		// Retired sets never hit and never install: the access behaves as
		// a miss-clean the controller resolves against the backing store.
		return mem.ClassifyOutcome(kind, false, false), 0, false
	}
	set, base, key := t.locate(line)
	t.lruTick++
	if i, ok := t.find(base, key); ok {
		t.touch(i)
		if write {
			t.lines[i] |= lineDirty
			return mem.WriteHit, 0, false
		}
		return mem.ReadHit, 0, false
	}
	// Miss: classify against the LRU victim, then install.
	i := t.victim(base)
	if l := t.lines[i]; l&lineValid != 0 {
		victim = t.lineOf(set, l>>lineTagShift)
		victimDirty = l&lineDirty != 0
	}
	out = mem.ClassifyOutcome(kind, false, victimDirty)
	if !install {
		return out, victim, victimDirty
	}
	if write {
		t.lines[i] = key | lineDirty
	} else {
		t.lines[i] = key | lineInflight
	}
	t.touch(i)
	return out, victim, victimDirty
}

// prewarm applies one functional prewarm access: the access transition
// with the fill assumed done at once and any victim dropped. It equals
// access(line, write, true) followed, for a read, by fillDone(line), in
// one set scan.
func (t *tagStore) prewarm(line uint64, write bool) {
	if t.isRetired(line) {
		return
	}
	_, base, key := t.locate(line)
	t.lruTick++
	if i, ok := t.find(base, key); ok {
		t.touch(i)
		if write {
			t.lines[i] |= lineDirty
		} else {
			t.lines[i] &^= lineInflight
		}
		return
	}
	i := t.victim(base)
	if write {
		key |= lineDirty
	}
	t.lines[i] = key
	t.touch(i)
}

// fillDone clears the inflight bit of a previously installed read miss.
// It reports false when the line was displaced before its fill arrived
// (possible under heavy conflict traffic; the fill is then dropped).
func (t *tagStore) fillDone(line uint64) bool {
	_, base, key := t.locate(line)
	i, ok := t.find(base, key)
	if !ok {
		return false
	}
	t.lines[i] &^= lineInflight
	return true
}

// markDirty sets the dirty bit of a resident line (used when a waiting
// write drains from the conflict buffer after its line's fill).
func (t *tagStore) markDirty(line uint64) bool {
	_, base, key := t.locate(line)
	i, ok := t.find(base, key)
	if !ok {
		return false
	}
	t.lines[i] |= lineDirty
	return true
}

// occupancy reports valid and dirty line fractions (diagnostics).
func (t *tagStore) occupancy() (valid, dirty float64) {
	var v, d int
	for _, l := range t.lines {
		if l&lineValid != 0 {
			v++
			if l&lineDirty != 0 {
				d++
			}
		}
	}
	n := float64(len(t.lines))
	return float64(v) / n, float64(d) / n
}
