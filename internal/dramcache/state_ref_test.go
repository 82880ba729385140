package dramcache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tdram/internal/mem"
)

// This file keeps the struct-per-line tag store that the packed tagStore
// replaced alive as a test-only reference model, and checks over seeded
// random operation sequences that both produce identical outcomes,
// victims, dirty bits and content. The reference spells the replacement
// rule out as "first invalid way, else the strictly smallest stamp";
// the packed store gets the same victim from one min scan because
// invalid ways carry stamp 0.

type refLine struct {
	tag      uint64
	valid    bool
	dirty    bool
	inflight bool
	lru      uint64
}

type refTagStore struct {
	sets    uint64
	ways    int
	lines   []refLine
	lruTick uint64
	retired map[uint64]bool
}

func newRefTagStore(lines uint64, ways int) *refTagStore {
	return &refTagStore{sets: lines / uint64(ways), ways: ways, lines: make([]refLine, lines),
		retired: make(map[uint64]bool)}
}

func (t *refTagStore) set(line uint64) (uint64, uint64) { return line % t.sets, line / t.sets }

func (t *refTagStore) ways0(set uint64) []refLine {
	base := set * uint64(t.ways)
	return t.lines[base : base+uint64(t.ways)]
}

// victim is the struct store's selection, written as it was: the first
// invalid way, else the way with the strictly smallest stamp (ties to
// the lowest way).
func (t *refTagStore) victim(ways []refLine) *refLine {
	var v *refLine
	for w := range ways {
		l := &ways[w]
		if v == nil || !l.valid || (v.valid && l.lru < v.lru) {
			if v == nil || v.valid {
				v = l
			}
		}
	}
	return v
}

func (t *refTagStore) find(line uint64) *refLine {
	set, tag := t.set(line)
	ways := t.ways0(set)
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			return &ways[w]
		}
	}
	return nil
}

func (t *refTagStore) probe(line uint64) probeResult {
	set, _ := t.set(line)
	if t.retired[set] {
		return probeResult{}
	}
	if l := t.find(line); l != nil {
		return probeResult{Hit: true, Dirty: l.dirty, Inflight: l.inflight}
	}
	r := probeResult{}
	if v := t.victim(t.ways0(set)); v.valid {
		r.Dirty = v.dirty
		r.Victim = v.tag*t.sets + set
	}
	return r
}

func (t *refTagStore) access(line uint64, write, install bool) (mem.Outcome, uint64, bool) {
	kind := mem.Read
	if write {
		kind = mem.Write
	}
	set, tag := t.set(line)
	if t.retired[set] {
		return mem.ClassifyOutcome(kind, false, false), 0, false
	}
	t.lruTick++
	if l := t.find(line); l != nil {
		l.lru = t.lruTick
		if write {
			l.dirty = true
			return mem.WriteHit, 0, false
		}
		return mem.ReadHit, 0, false
	}
	v := t.victim(t.ways0(set))
	var victim uint64
	if v.valid {
		victim = v.tag*t.sets + set
	}
	vd := v.valid && v.dirty
	out := mem.ClassifyOutcome(kind, false, vd)
	if install {
		*v = refLine{tag: tag, valid: true, dirty: write, inflight: !write, lru: t.lruTick}
	}
	return out, victim, vd
}

func (t *refTagStore) fillDone(line uint64) bool {
	if l := t.find(line); l != nil {
		l.inflight = false
		return true
	}
	return false
}

func (t *refTagStore) markDirty(line uint64) bool {
	if l := t.find(line); l != nil {
		l.dirty = true
		return true
	}
	return false
}

func (t *refTagStore) retire(line uint64) (dirty []uint64) {
	set, _ := t.set(line)
	if t.retired[set] {
		return nil
	}
	t.retired[set] = true
	ways := t.ways0(set)
	for w := range ways {
		if ways[w].valid && ways[w].dirty {
			dirty = append(dirty, ways[w].tag*t.sets+set)
		}
		ways[w] = refLine{}
	}
	return dirty
}

func (t *refTagStore) occupancy() (valid, dirty float64) {
	var v, d int
	for _, l := range t.lines {
		if l.valid {
			v++
			if l.dirty {
				d++
			}
		}
	}
	return float64(v) / float64(len(t.lines)), float64(d) / float64(len(t.lines))
}

// TestTagStoreMatchesReference drives the packed store and the reference
// with the same seeded operation mix — installing and non-installing
// reads and writes, probes, fills, conflict-buffer dirtying, prewarm
// accesses, set retirement, and Image/install round trips — at ways 1,
// 2, 4 and 8 and one non-power-of-two set count.
func TestTagStoreMatchesReference(t *testing.T) {
	for _, g := range []struct {
		sets uint64
		ways int
	}{{64, 1}, {32, 2}, {16, 4}, {8, 8}, {24, 1}, {12, 4}} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("sets%d_ways%d_seed%d", g.sets, g.ways, seed), func(t *testing.T) {
				checkTagStoreAgainstRef(t, g.sets, g.ways, seed)
			})
		}
	}
}

func checkTagStoreAgainstRef(t *testing.T, sets uint64, ways int, seed int64) {
	lines := sets * uint64(ways)
	ts := newStore(t, lines, ways)
	if ts.pow2 != (sets&(sets-1) == 0) {
		t.Fatalf("pow2 decode = %v for %d sets", ts.pow2, sets)
	}
	ref := newRefTagStore(lines, ways)
	rng := rand.New(rand.NewSource(seed))
	span := 3 * lines // three candidates per way: plenty of conflicts
	for step := 0; step < 20000; step++ {
		line := uint64(rng.Int63n(int64(span)))
		switch op := rng.Intn(100); {
		case op < 40:
			write, install := rng.Intn(3) == 0, rng.Intn(8) != 0
			o1, v1, d1 := ts.access(line, write, install)
			o2, v2, d2 := ref.access(line, write, install)
			if o1 != o2 || v1 != v2 || d1 != d2 {
				t.Fatalf("step %d access(%d, %v, %v) = %v/%d/%v, reference %v/%d/%v",
					step, line, write, install, o1, v1, d1, o2, v2, d2)
			}
		case op < 55:
			if p1, p2 := ts.probe(line), ref.probe(line); p1 != p2 {
				t.Fatalf("step %d probe(%d) = %+v, reference %+v", step, line, p1, p2)
			}
		case op < 70:
			if f1, f2 := ts.fillDone(line), ref.fillDone(line); f1 != f2 {
				t.Fatalf("step %d fillDone(%d) = %v, reference %v", step, line, f1, f2)
			}
		case op < 78:
			if m1, m2 := ts.markDirty(line), ref.markDirty(line); m1 != m2 {
				t.Fatalf("step %d markDirty(%d) = %v, reference %v", step, line, m1, m2)
			}
		case op < 93:
			// The prewarm transition is the reference's access + fillDone pair.
			write := rng.Intn(3) == 0
			ts.prewarm(line, write)
			ref.access(line, write, true)
			if !write {
				ref.fillDone(line)
			}
		case op < 94:
			if r1, r2 := ts.retire(line), ref.retire(line); !reflect.DeepEqual(r1, r2) {
				t.Fatalf("step %d retire(%d) = %v, reference %v", step, line, r1, r2)
			}
		default:
			// Images carry content, not retirement: round-trip only while
			// every set is in service.
			if len(ref.retired) == 0 {
				fresh := newStore(t, lines, ways)
				if err := fresh.install(ts.image()); err != nil {
					t.Fatal(err)
				}
				ts = fresh
			}
		}
	}
	v1, d1 := ts.occupancy()
	v2, d2 := ref.occupancy()
	if v1 != v2 || d1 != d2 {
		t.Fatalf("occupancy %v/%v, reference %v/%v", v1, d1, v2, d2)
	}
	for line := uint64(0); line < span; line++ {
		if p1, p2 := ts.probe(line), ref.probe(line); p1 != p2 {
			t.Fatalf("final probe(%d) = %+v, reference %+v", line, p1, p2)
		}
	}
}

// TestTagImageGeometryMismatch pins install's refusal of a foreign image.
func TestTagImageGeometryMismatch(t *testing.T) {
	img := newStore(t, 16, 2).image()
	if err := newStore(t, 16, 1).install(img); err == nil {
		t.Error("16x1 store accepted an 8x2 image")
	}
	if err := newStore(t, 32, 2).install(img); err == nil {
		t.Error("16x2 store accepted an 8x2 image")
	}
}

// TestDirectMappedStoreHasNoStamps pins the direct-mapped footprint: one
// packed word per line and no LRU array, since the victim is the set's
// only way.
func TestDirectMappedStoreHasNoStamps(t *testing.T) {
	if ts := newStore(t, 64, 1); ts.lru != nil || len(ts.lines) != 64 {
		t.Errorf("direct-mapped store: %d words, lru %v", len(ts.lines), ts.lru != nil)
	}
	if ts := newStore(t, 64, 4); len(ts.lru) != 64 {
		t.Errorf("4-way store: %d stamps, want 64", len(ts.lru))
	}
	if img := newStore(t, 64, 1).image(); img.lru != nil {
		t.Error("direct-mapped image carries stamps")
	}
}
