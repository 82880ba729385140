package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"tdram/internal/sim"
)

// This file keeps the struct-per-line cache that the parallel-array
// Cache replaced alive as a test-only reference model, and checks over
// seeded random operation sequences that both produce identical
// results, victims, dirty bits and content. The reference stores a
// stamp per line and spells the replacement rule out as "first invalid
// way, else the strictly smallest stamp"; Cache keeps no stamps, only
// each set's ways in victim order, and must pick the same way.

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

type refCache struct {
	sets    int
	ways    int
	lines   []refLine
	lruTick uint64

	hits, misses, evictions, dirtyEvictions uint64
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{sets: sets, ways: ways, lines: make([]refLine, sets*ways)}
}

func (c *refCache) clone() *refCache {
	d := *c
	d.lines = append([]refLine(nil), c.lines...)
	return &d
}

func (c *refCache) set(lineAddr uint64) ([]refLine, int, uint64) {
	set := int(lineAddr % uint64(c.sets))
	return c.lines[set*c.ways : (set+1)*c.ways], set, lineAddr / uint64(c.sets)
}

func (c *refCache) find(lineAddr uint64) *refLine {
	ways, _, tag := c.set(lineAddr)
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			return &ways[w]
		}
	}
	return nil
}

func (c *refCache) Access(lineAddr uint64, dirty bool) Result {
	ways, set, tag := c.set(lineAddr)
	c.lruTick++
	if l := c.find(lineAddr); l != nil {
		l.lru = c.lruTick
		if dirty {
			l.dirty = true
		}
		c.hits++
		return Result{Hit: true}
	}
	// Victim: the first invalid way, else the least recently used (ties
	// break toward the lowest way).
	vw := 0
	if ways[0].valid {
		for w := 1; w < len(ways); w++ {
			if !ways[w].valid {
				vw = w
				break
			}
			if ways[w].lru < ways[vw].lru {
				vw = w
			}
		}
	}
	victim := &ways[vw]
	c.misses++
	res := Result{}
	if victim.valid {
		res.Evicted = true
		res.VictimDirty = victim.dirty
		res.VictimLine = victim.tag*uint64(c.sets) + uint64(set)
		c.evictions++
		if victim.dirty {
			c.dirtyEvictions++
		}
	}
	*victim = refLine{tag: tag, valid: true, dirty: dirty, lru: c.lruTick}
	return res
}

func (c *refCache) Invalidate(lineAddr uint64) (present, dirty bool) {
	if l := c.find(lineAddr); l != nil {
		present, dirty = true, l.dirty
		l.valid = false
	}
	return
}

func (c *refCache) MarkDirty(lineAddr uint64) bool {
	if l := c.find(lineAddr); l != nil {
		l.dirty = true
		l.lru = c.lruTick
		return true
	}
	return false
}

// liveTie reports the largest number of valid ways in one set that
// share the current tick's stamp: MarkDirty's ties, while they can still
// grow.
func (c *refCache) liveTie() int {
	most := 0
	for s := 0; s < c.sets; s++ {
		n := 0
		for _, l := range c.lines[s*c.ways : (s+1)*c.ways] {
			if l.valid && l.lru == c.lruTick {
				n++
			}
		}
		most = max(most, n)
	}
	return most
}

// opMix is a percentage split of the random operations: Access below
// access, MarkDirty below markDirty, Invalidate below invalidate, Clone
// for the rest.
type opMix struct{ access, markDirty, invalidate int }

var (
	// defaultMix is mostly accesses, as the hierarchy issues them.
	defaultMix = opMix{70, 85, 99}
	// tieMix is mostly MarkDirty, so several ways of a set share the
	// current tick's stamp and then age as a tied group.
	tieMix = opMix{35, 85, 99}
)

// TestCacheMatchesReference drives Cache and the reference with the same
// seeded mix of loads, stores, MarkDirty, Invalidate and Clone (after a
// clone, both the copy and the original are driven on, so a shared array
// would show) at ways 1, 2, 3, 4, 8 and 16 and one non-power-of-two set
// count. The ties_ cases run a MarkDirty-heavy mix on few sets, which
// builds tied groups of two or more ways and clones while one is live.
func TestCacheMatchesReference(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{64, 1}, {32, 2}, {16, 4}, {8, 8}, {12, 4}, {8, 3}, {4, 16}} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("sets%d_ways%d_seed%d", g.sets, g.ways, seed), func(t *testing.T) {
				checkCacheAgainstRef(t, g.sets, g.ways, seed, defaultMix)
			})
		}
	}
	for _, g := range []struct{ sets, ways int }{{2, 8}, {1, 16}, {3, 3}, {2, 2}} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("ties_sets%d_ways%d_seed%d", g.sets, g.ways, seed), func(t *testing.T) {
				ties, tiedClones := checkCacheAgainstRef(t, g.sets, g.ways, seed, tieMix)
				if ties < 2 || tiedClones == 0 {
					t.Fatalf("largest live tie %d, %d clones taken during one: the mix does not exercise tied groups",
						ties, tiedClones)
				}
			})
		}
	}
}

// checkCacheAgainstRef runs one seeded operation sequence against Cache
// and the reference. It reports the largest live tie seen and how many
// clones were taken while a tie of two or more ways was live.
func checkCacheAgainstRef(t *testing.T, sets, ways int, seed int64, mix opMix) (ties, tiedClones int) {
	t.Helper()
	c, err := New(Config{Name: "eq", Size: uint64(sets*ways) * 64, Ways: ways, Latency: sim.NS(1)})
	if err != nil {
		t.Fatal(err)
	}
	if c.pow2 != (sets&(sets-1) == 0) {
		t.Fatalf("pow2 decode = %v for %d sets", c.pow2, sets)
	}
	ref := newRefCache(sets, ways)
	rng := rand.New(rand.NewSource(seed))
	span := int64(3 * sets * ways)
	// forks holds the originals left behind by clones; they are driven
	// alongside and must stay in step with their own references.
	type pair struct {
		c   *Cache
		ref *refCache
	}
	var forks []pair
	for step := 0; step < 20000; step++ {
		line := uint64(rng.Int63n(span))
		switch op := rng.Intn(100); {
		case op < mix.access:
			store := rng.Intn(3) == 0
			if r1, r2 := c.Access(line, store), ref.Access(line, store); r1 != r2 {
				t.Fatalf("step %d Access(%d, %v) = %+v, reference %+v", step, line, store, r1, r2)
			}
		case op < mix.markDirty:
			if m1, m2 := c.MarkDirty(line), ref.MarkDirty(line); m1 != m2 {
				t.Fatalf("step %d MarkDirty(%d) = %v, reference %v", step, line, m1, m2)
			}
		case op < mix.invalidate:
			p1, d1 := c.Invalidate(line)
			p2, d2 := ref.Invalidate(line)
			if p1 != p2 || d1 != d2 {
				t.Fatalf("step %d Invalidate(%d) = %v/%v, reference %v/%v", step, line, p1, d1, p2, d2)
			}
		default:
			if ref.liveTie() >= 2 {
				tiedClones++
			}
			forks = append(forks, pair{c, ref})
			c, ref = c.Clone(), ref.clone()
		}
		ties = max(ties, ref.liveTie())
		if len(forks) > 0 && step%7 == 0 {
			f := forks[rng.Intn(len(forks))]
			if r1, r2 := f.c.Access(line, true), f.ref.Access(line, true); r1 != r2 {
				t.Fatalf("step %d forked Access(%d) = %+v, reference %+v", step, line, r1, r2)
			}
		}
	}
	for _, p := range append(forks, pair{c, ref}) {
		sameCacheContent(t, p.c, p.ref, span)
	}
	return ties, tiedClones
}

// sameCacheContent compares counters, occupancy and, line by line,
// residency and dirty bits (read back destructively via Invalidate).
func sameCacheContent(t *testing.T, c *Cache, ref *refCache, span int64) {
	t.Helper()
	if c.Hits != ref.hits || c.Misses != ref.misses || c.Evictions != ref.evictions || c.DirtyEvictions != ref.dirtyEvictions {
		t.Fatalf("counters %d/%d/%d/%d, reference %d/%d/%d/%d", c.Hits, c.Misses, c.Evictions, c.DirtyEvictions,
			ref.hits, ref.misses, ref.evictions, ref.dirtyEvictions)
	}
	valid := 0
	for _, l := range ref.lines {
		if l.valid {
			valid++
		}
	}
	if got, want := c.Occupancy(), float64(valid)/float64(len(ref.lines)); got != want {
		t.Fatalf("occupancy %v, reference %v", got, want)
	}
	for line := uint64(0); line < uint64(span); line++ {
		p1, d1 := c.Invalidate(line)
		p2, d2 := ref.Invalidate(line)
		if p1 != p2 || d1 != d2 {
			t.Fatalf("final line %d: present/dirty %v/%v, reference %v/%v", line, p1, d1, p2, d2)
		}
	}
}

// TestMarkDirtySharesStampLowerWayLoses pins the SRAM equal-stamp tie.
// MarkDirty stamps a line with the current tick without advancing it, so
// an L1 victim written back into L2 ties with the line L2 touched last.
// On the next miss in that set the two tie for least recently used and
// the lower way is the victim. This is model behaviour the kernel
// goldens freeze; changing the tie order changes results.
func TestMarkDirtySharesStampLowerWayLoses(t *testing.T) {
	c := small(t, 2)     // 4 sets, 2 ways; lines 0, 4, 8 share set 0
	c.Access(4, false)   // way 0
	c.Access(0, false)   // way 1: the line touched last
	if !c.MarkDirty(4) { // way 0 ties with way 1, without a tick
		t.Fatal("MarkDirty missed resident line 4")
	}
	r := c.Access(8, false)
	if !r.Evicted || r.VictimLine != 4 || !r.VictimDirty {
		t.Fatalf("miss evicted %+v, want dirty line 4 from the lower way", r)
	}
	if !c.Lookup(0) || c.Lookup(4) {
		t.Error("the higher way's line was displaced")
	}

	// The same tie through the hierarchy. L1 (8 sets, direct-mapped)
	// keeps lines 0 and 4 apart while L2 (4 sets, 2 ways) puts 0, 4 and 8
	// in one set. Line 8 evicts dirty line 0 from L1; L2.MarkDirty ties
	// line 0 with line 4, the line L2 touched last; and L2's miss on 8
	// then displaces line 0 from the lower way and writes it back.
	l1, err := New(Config{Name: "l1", Size: 8 * 64, Ways: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := &Hierarchy{L1: l1, L2: small(t, 2)}
	var wb []uint64
	h.WriteBack = func(line uint64) { wb = append(wb, line) }
	h.Access(0, true)  // L2 way 0
	h.Access(4, false) // L2 way 1, touched last
	h.Access(8, false)
	if len(wb) != 1 || wb[0] != 0 {
		t.Fatalf("writebacks %v, want [0]: the lower way did not lose the tie", wb)
	}
	if h.L2.Lookup(0) || !h.L2.Lookup(4) || !h.L2.Lookup(8) {
		t.Error("L2 content after the tie is not {4, 8}")
	}
}
