package cache

import (
	"testing"
	"testing/quick"

	"tdram/internal/sim"
	"tdram/internal/workload"
)

func small(t *testing.T, ways int) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", Size: uint64(ways) * 4 * 64, Ways: ways, Latency: sim.NS(1)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{Size: 64, Ways: 0}); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New(Config{Size: 100, Ways: 3}); err == nil {
		t.Error("non-divisible size accepted")
	}
	if _, err := New(Config{Size: 0, Ways: 1}); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New(Config{Size: 17 * 64, Ways: 17}); err == nil {
		t.Error("17 ways accepted: the packed recency order holds at most 16")
	}
	if _, err := New(Config{Size: 16 * 64, Ways: maxWays}); err != nil {
		t.Errorf("%d ways rejected: %v", maxWays, err)
	}
}

func TestHitMiss(t *testing.T) {
	c := small(t, 2) // 4 sets, 2 ways
	if r := c.Access(0, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Error("repeat access missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	if !c.Lookup(0) || c.Lookup(1) {
		t.Error("Lookup disagrees with contents")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t, 2) // 4 sets
	// Three lines mapping to set 0: 0, 4, 8.
	c.Access(0, false)
	c.Access(4, false)
	c.Access(0, false) // 0 is now MRU
	r := c.Access(8, false)
	if r.Hit || !r.Evicted {
		t.Fatalf("fill result %+v", r)
	}
	if r.VictimLine != 4 {
		t.Errorf("victim = %d, want 4 (LRU)", r.VictimLine)
	}
	if !c.Lookup(0) || c.Lookup(4) || !c.Lookup(8) {
		t.Error("contents after eviction wrong")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := small(t, 1) // direct-mapped, 4 sets
	c.Access(0, true)
	r := c.Access(4, false)
	if !r.Evicted || !r.VictimDirty || r.VictimLine != 0 {
		t.Errorf("dirty eviction result %+v", r)
	}
	if c.DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d", c.DirtyEvictions)
	}
	// Clean victim: no writeback flag.
	r = c.Access(8, false)
	if r.VictimDirty {
		t.Error("clean victim flagged dirty")
	}
}

func TestStoreMarksDirty(t *testing.T) {
	c := small(t, 1)
	c.Access(0, false)
	c.Access(0, true) // hit-store dirties
	r := c.Access(4, false)
	if !r.VictimDirty {
		t.Error("hit-store did not mark dirty")
	}
}

func TestInvalidate(t *testing.T) {
	c := small(t, 2)
	c.Access(0, true)
	present, dirty := c.Invalidate(0)
	if !present || !dirty {
		t.Errorf("invalidate = %v,%v", present, dirty)
	}
	if c.Lookup(0) {
		t.Error("line still present")
	}
	present, _ = c.Invalidate(0)
	if present {
		t.Error("second invalidate found line")
	}
}

func TestMarkDirty(t *testing.T) {
	c := small(t, 2)
	c.Access(0, false)
	if !c.MarkDirty(0) {
		t.Error("MarkDirty missed resident line")
	}
	if c.MarkDirty(99) {
		t.Error("MarkDirty hit absent line")
	}
	r := c.Access(4, false)
	_ = r
	c.Access(8, false) // evicts LRU
	if c.DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d after MarkDirty eviction", c.DirtyEvictions)
	}
}

func TestPrefersInvalidWay(t *testing.T) {
	c := small(t, 4) // 4 ways, 4 sets
	c.Access(0, false)
	// Three more fills to set 0 must use invalid ways, not evict.
	for _, l := range []uint64{4, 8, 12} {
		if r := c.Access(l, false); r.Evicted {
			t.Errorf("fill of %d evicted despite invalid ways", l)
		}
	}
	if r := c.Access(16, false); !r.Evicted {
		t.Error("full set did not evict")
	}
}

func TestOccupancy(t *testing.T) {
	c := small(t, 2) // 8 lines
	if c.Occupancy() != 0 {
		t.Error("fresh cache occupied")
	}
	c.Access(0, false)
	c.Access(1, false)
	if got := c.Occupancy(); got != 0.25 {
		t.Errorf("occupancy = %v", got)
	}
}

// Property: a cache never holds two copies of one line, and hit/miss
// matches a reference map model.
func TestCacheMatchesReferenceModel(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, err := New(Config{Name: "p", Size: 16 * 64, Ways: 4, Latency: 0})
		if err != nil {
			return false
		}
		// Reference: per-set LRU lists.
		type ref struct{ lines []uint64 }
		refs := make([]ref, c.Sets())
		for _, a := range addrs {
			la := uint64(a % 64)
			set := int(la % uint64(c.Sets()))
			r := &refs[set]
			hit := false
			for i, l := range r.lines {
				if l == la {
					hit = true
					r.lines = append(r.lines[:i], r.lines[i+1:]...)
					r.lines = append(r.lines, la)
					break
				}
			}
			if !hit {
				if len(r.lines) == 4 {
					r.lines = r.lines[1:]
				}
				r.lines = append(r.lines, la)
			}
			got := c.Access(la, false)
			if got.Hit != hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyFiltering(t *testing.T) {
	h := NewHierarchy()
	var wbs []uint64
	h.WriteBack = func(l uint64) { wbs = append(wbs, l) }

	r := h.Access(100, false)
	if !r.Missed || r.MissLine != 100 {
		t.Fatalf("cold access: %+v", r)
	}
	r = h.Access(100, false)
	if r.Missed {
		t.Error("second access missed")
	}
	if r.Latency != sim.NS(1) {
		t.Errorf("L1 hit latency = %v", r.Latency)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := NewHierarchy()
	h.Access(100, false)
	// Evict 100 from L1 by filling its set (L1 32KiB/8w/64B = 64 sets):
	// lines 100+64k map to the same L1 set.
	for k := 1; k <= 8; k++ {
		h.Access(100+uint64(k*64), false)
	}
	r := h.Access(100, false)
	if r.Missed {
		t.Error("L2 should have held the line")
	}
	if r.Latency != sim.NS(5) {
		t.Errorf("L1miss+L2hit latency = %v, want 5ns", r.Latency)
	}
}

func TestHierarchyWriteback(t *testing.T) {
	h := NewHierarchy()
	var wbs []uint64
	h.WriteBack = func(l uint64) { wbs = append(wbs, l) }
	// Dirty many distinct lines mapping over L2 (512 KiB = 8192 lines);
	// writing 3x that many lines must force dirty L2 evictions.
	n := 0
	for i := uint64(0); i < 8192*3; i++ {
		r := h.Access(i*7+3, true)
		if r.Missed {
			n++
		}
	}
	if len(wbs) == 0 {
		t.Fatal("no writebacks escaped L2 despite dirty working set 3x its size")
	}
	if n == 0 {
		t.Fatal("no misses")
	}
}

func TestHierarchyStoreDirtyPropagation(t *testing.T) {
	// A store dirties L1; when the line is evicted to L2 and then out of
	// L2, a writeback must appear even though L2 saw a "clean" install.
	h := NewHierarchy()
	var wbs []uint64
	h.WriteBack = func(l uint64) { wbs = append(wbs, l) }
	h.Access(0, true) // dirty in L1
	// Thrash both caches with a large clean scan.
	for i := uint64(1); i < 20000; i++ {
		h.Access(i, false)
	}
	found := false
	for _, w := range wbs {
		if w == 0 {
			found = true
		}
	}
	if !found {
		t.Error("dirtied line never written back through the hierarchy")
	}
}

// BenchmarkHierarchyAccess runs recorded workload streams through the
// default system-sized stack (4 KiB L1, 64 KiB L2), so the hit/miss
// branches see the simulator's real, unlearnable mix rather than a
// fixed stride:
//
//   - prewarm: pr.25 over a 16 MiB DRAM cache (15 % stores), the
//     random, miss-heavy stream of a cold cell's functional prewarm;
//   - serve-hits: bt.C over a 1 MiB DRAM cache, as in tdserve's small
//     miss cells. Its 921-line per-core region fits the 1024-line L2,
//     so after one warming pass (outside the timer) nearly every access
//     misses L1 and hits L2.
func BenchmarkHierarchyAccess(b *testing.B) {
	for _, m := range []struct {
		name, workload string
		cacheBytes     uint64
		warm           bool
	}{
		{"prewarm", "pr.25", 16 << 20, false},
		{"serve-hits", "bt.C", 1 << 20, true},
	} {
		b.Run(m.name, func(b *testing.B) {
			spec, err := workload.ByName(m.workload)
			if err != nil {
				b.Fatal(err)
			}
			st := spec.NewStream(0, 8, m.cacheBytes, 1)
			lines, stores := make([]uint64, 1<<16), make([]bool, 1<<16)
			for i := range lines {
				lines[i], stores[i], _ = st.Next()
			}
			h := NewSizedHierarchy(4<<10, 64<<10)
			h.WriteBack = func(uint64) {}
			if m.warm {
				for i, l := range lines {
					h.Access(l, stores[i])
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i & (len(lines) - 1)
				h.Access(lines[j], stores[j])
			}
		})
	}
}
