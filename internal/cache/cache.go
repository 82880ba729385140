// Package cache implements the on-chip SRAM cache models (private L1 and
// L2 per core, Table III) that sit between the request-generating cores
// and the DRAM cache. They are functional set-associative write-back,
// write-allocate caches with LRU replacement plus a fixed hit latency;
// their purpose in the reproduction is to filter the address stream and
// to generate the dirty writebacks that become the DRAM cache's write
// demands, exactly as LLC writebacks do in the paper's system.
package cache

import (
	"fmt"
	"math/bits"

	"tdram/internal/mem"
	"tdram/internal/sim"
)

// Config sizes one cache level.
type Config struct {
	Name    string
	Size    uint64   // bytes
	Ways    int      // associativity
	Latency sim.Tick // hit latency contribution of this level
}

// Cache is one level. It is purely functional: Access returns what
// happened and what was evicted; the caller composes latencies.
//
// Per-way state lives in two parallel arrays of sets × ways entries, so
// the hit scan walks one compact array (an 8-way set's tags fit in one
// host cache line):
//
//   - tags[i] is the way's tag+1 when it is valid and 0 when it is not;
//   - dirty[i] is the way's dirty bit (meaningful only while valid).
//
// Replacement is exact LRU under one rule: give every way a stamp (0
// while invalid, else the tick of its last use, larger = more recent)
// and the victim is the lowest stamp, ties broken toward the lowest way
// — the first invalid way if there is one, else the least recently
// used. The stamps themselves are not stored. Each set keeps its ways
// sorted by that rule instead (setOrder), so a miss takes rank 0 and a
// hit moves one way to the top, both in O(1). Clone copies 9 B per line
// plus 16 B per set (11 B per line at 8 ways).
type Cache struct {
	cfg  Config
	sets int
	tick uint64 // advanced once per Access

	tags  []uint64
	dirty []bool
	order []setOrder // one per set

	mru uint // bit offset of the top rank's nibble: 4·(ways−1)

	// Power-of-two set decode (the common configuration): index by mask
	// and shift instead of modulo and divide, which dominate the access
	// cost otherwise. pow2 false falls back to the general arithmetic.
	pow2  bool
	mask  uint64
	shift uint

	Hits, Misses, Evictions, DirtyEvictions uint64
}

// setOrder is one set's recency order: its ways sorted by (stamp, way
// index), least recent first. Stamps only ever tie in two groups. The
// invalid ways all share stamp 0 and sit at the bottom. MarkDirty stamps
// without advancing the tick, so ways stamped at the current tick share
// the top. A tie left behind once the tick moves on can only shrink, so
// tracking the top group suffices to keep every tie in way-index order.
//
//   - ranks packs the permutation 4 bits per rank: nibble r holds the
//     way at rank r, rank 0 is the victim, nibbles above the set's ways
//     are 0;
//   - top is topTick<<topBits | topSize: the tick the top group was
//     stamped at and how many ways (the top topSize ranks) carry it.
type setOrder struct {
	ranks uint64
	top   uint64
}

const (
	// maxWays is the widest set a packed recency order holds.
	maxWays = 16

	topBits = 5 // topSize ≤ maxWays; ticks stay far below 2^59
	topMask = 1<<topBits - 1

	nibbleLSB = 0x1111111111111111
	nibbleMSB = nibbleLSB << 3
)

// rankOf returns the rank of way w. x has a zero nibble exactly where w
// sits; the borrow trick flags zero nibbles, exactly up to and including
// the lowest one, and w occurs once among the set's ranks (any unused
// nibbles lie above them), so the lowest flag is w's rank.
func rankOf(ranks, w uint64) uint {
	x := ranks ^ w*nibbleLSB
	return uint(bits.TrailingZeros64((x-nibbleLSB)&^x&nibbleMSB)) / 4
}

// removeRank deletes rank r, sliding the ranks above it down one; the
// top nibble becomes 0.
func removeRank(ranks uint64, r uint) uint64 {
	return ranks&(uint64(1)<<(4*r)-1) | ranks>>(4*r+4)<<(4*r)
}

// insertRank puts way w at rank r, sliding rank r and above up one.
func insertRank(ranks, w uint64, r uint) uint64 {
	return ranks&(uint64(1)<<(4*r)-1) | w<<(4*r) | ranks>>(4*r)<<(4*r+4)
}

// New builds a cache level. Size must be a multiple of Ways*LineSize and
// Ways at most maxWays.
func New(cfg Config) (*Cache, error) {
	if cfg.Ways <= 0 || cfg.Ways > maxWays {
		return nil, fmt.Errorf("cache %s: ways = %d, want 1..%d", cfg.Name, cfg.Ways, maxWays)
	}
	lines := cfg.Size / mem.LineSize
	if lines == 0 || lines%uint64(cfg.Ways) != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible into %d ways of %d B lines",
			cfg.Name, cfg.Size, cfg.Ways, mem.LineSize)
	}
	sets := int(lines) / cfg.Ways
	c := &Cache{cfg: cfg, sets: sets, mru: 4 * uint(cfg.Ways-1),
		tags: make([]uint64, lines), dirty: make([]bool, lines), order: make([]setOrder, sets)}
	// All ways start invalid, tied at stamp 0: way-index order.
	var identity uint64
	for w := cfg.Ways - 1; w >= 0; w-- {
		identity = identity<<4 | uint64(w)
	}
	for i := range c.order {
		c.order[i].ranks = identity
	}
	if sets&(sets-1) == 0 {
		c.pow2 = true
		c.mask = uint64(sets - 1)
		c.shift = uint(bits.TrailingZeros(uint(sets)))
	}
	return c, nil
}

// Config returns the construction parameters.
func (c *Cache) Config() Config { return c.cfg }

// Sets reports the number of sets.
func (c *Cache) Sets() int { return c.sets }

func (c *Cache) set(lineAddr uint64) (int, uint64) {
	if c.pow2 {
		return int(lineAddr & c.mask), lineAddr >> c.shift
	}
	set := int(lineAddr % uint64(c.sets))
	tag := lineAddr / uint64(c.sets)
	return set, tag
}

// Result describes one access.
type Result struct {
	Hit         bool
	Evicted     bool   // a valid victim was displaced (only on miss fills)
	VictimDirty bool   // the victim needs writing back
	VictimLine  uint64 // line address of the victim
}

// Lookup probes without modifying state (used by tests and by warmup
// verification).
func (c *Cache) Lookup(lineAddr uint64) bool {
	set, tag := c.set(lineAddr)
	base := set * c.cfg.Ways
	key := tag + 1
	for _, tv := range c.tags[base : base+c.cfg.Ways] {
		if tv == key {
			return true
		}
	}
	return false
}

// Access performs a load (dirty=false) or store (dirty=true) of one line,
// allocating on miss and evicting LRU. The returned Result tells the
// caller whether a dirty victim must be written back to the next level.
func (c *Cache) Access(lineAddr uint64, dirty bool) Result {
	set, tag := c.set(lineAddr)
	base := set * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	key := tag + 1
	c.tick++
	o := &c.order[set]
	// Hit scan first over the compact tag words — the overwhelmingly
	// common case pays for nothing else. A hit takes a fresh stamp, so
	// the way moves to the top alone.
	for w, tv := range tags {
		if tv == key {
			r := rankOf(o.ranks, uint64(w))
			o.ranks = removeRank(o.ranks, r) | uint64(w)<<c.mru
			o.top = c.tick<<topBits | 1
			if dirty {
				c.dirty[base+w] = true
			}
			c.Hits++
			return Result{Hit: true}
		}
	}
	// Victim: rank 0 (see Cache); the refilled way rotates to the top.
	vw := int(o.ranks & 0xF)
	o.ranks = o.ranks>>4 | uint64(vw)<<c.mru
	o.top = c.tick<<topBits | 1
	c.Misses++
	res := Result{}
	if tv := tags[vw]; tv != 0 {
		res.Evicted = true
		res.VictimDirty = c.dirty[base+vw]
		res.VictimLine = (tv-1)*uint64(c.sets) + uint64(set)
		c.Evictions++
		if res.VictimDirty {
			c.DirtyEvictions++
		}
	}
	tags[vw] = key
	c.dirty[base+vw] = dirty
	return res
}

// Invalidate drops a line if present, returning whether it was dirty.
// The way's stamp returns to 0: it joins the bottom group of invalid
// ways at its way-index position.
func (c *Cache) Invalidate(lineAddr uint64) (present, dirty bool) {
	set, tag := c.set(lineAddr)
	base := set * c.cfg.Ways
	key := tag + 1
	for w, tv := range c.tags[base : base+c.cfg.Ways] {
		if tv == key {
			i := base + w
			present, dirty = true, c.dirty[i]
			c.tags[i], c.dirty[i] = 0, false
			o := &c.order[set]
			n := uint(c.cfg.Ways)
			r := rankOf(o.ranks, uint64(w))
			if r >= n-uint(o.top&topMask) {
				o.top-- // it leaves the tied top group
			}
			ranks := removeRank(o.ranks, r)
			pos := uint(0)
			for ; pos < n-1; pos++ {
				if v := ranks >> (4 * pos) & 0xF; c.tags[base+int(v)] != 0 || v > uint64(w) {
					break
				}
			}
			o.ranks = insertRank(ranks, uint64(w), pos)
			return
		}
	}
	return
}

// MarkDirty sets the dirty bit of a resident line (e.g. a writeback from
// an upper level landing in this one). It reports whether the line was
// resident.
//
// The line is stamped with the current tick without advancing it, so it
// can share its stamp with the line the last Access touched; on a later
// miss in that set the lower of the two ways is the victim. That tie is
// model behaviour the kernel goldens freeze: changing it changes results.
// In the recency order the way joins the set's top group in way-index
// order when that group carries the current tick, and goes to the top
// alone otherwise.
func (c *Cache) MarkDirty(lineAddr uint64) bool {
	set, tag := c.set(lineAddr)
	base := set * c.cfg.Ways
	key := tag + 1
	for w, tv := range c.tags[base : base+c.cfg.Ways] {
		if tv == key {
			c.dirty[base+w] = true
			o := &c.order[set]
			r := rankOf(o.ranks, uint64(w))
			if o.top>>topBits != c.tick {
				o.ranks = removeRank(o.ranks, r) | uint64(w)<<c.mru
				o.top = c.tick<<topBits | 1
				return true
			}
			n := uint(c.cfg.Ways)
			first := n - uint(o.top&topMask) // lowest rank of the tied group
			if r >= first {
				return true // already stamped at this tick
			}
			// With w removed the group starts one rank lower; w goes
			// in after the members with a lower way index.
			ranks := removeRank(o.ranks, r)
			pos := first - 1
			for pos < n-1 && ranks>>(4*pos)&0xF < uint64(w) {
				pos++
			}
			o.ranks = insertRank(ranks, uint64(w), pos)
			o.top++
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the cache: content, recency order, and
// hit counters all duplicated, so the copy and the original evolve
// independently. The warmup-image fork uses this to hand every design
// cell its own prewarmed SRAM stack.
//
//tdlint:copier Cache
func (c *Cache) Clone() *Cache {
	d := *c
	d.tags = append([]uint64(nil), c.tags...)
	d.dirty = append([]bool(nil), c.dirty...)
	d.order = append([]setOrder(nil), c.order...)
	return &d
}

// Occupancy reports the fraction of valid lines (warmup diagnostics).
func (c *Cache) Occupancy() float64 {
	n := 0
	for _, tv := range c.tags {
		if tv != 0 {
			n++
		}
	}
	return float64(n) / float64(len(c.tags))
}

// Hierarchy is one core's private L1+L2 stack. An access flows through
// both levels functionally; writebacks falling out of L2 are handed to
// the owner via the WriteBack callback (they become DRAM cache write
// demands). Misses in L2 are demand reads for the DRAM cache.
type Hierarchy struct {
	L1, L2 *Cache

	// WriteBack receives dirty L2 victims.
	//tdlint:shared WriteBack — Clone drops it on purpose: it points at the original owner's core and must be rebound by the new owner
	WriteBack func(lineAddr uint64)
}

// NewHierarchy builds the Table III per-core stack: 32 KiB L1 and 512 KiB
// private L2 (the paper's "LLC" for writeback purposes).
func NewHierarchy() *Hierarchy {
	return NewSizedHierarchy(32<<10, 512<<10)
}

// NewSizedHierarchy builds a per-core stack with explicit L1/L2 capacities.
// Scaled-down simulations shrink the on-chip caches along with the DRAM
// cache so the reuse the SRAM levels absorb stays proportionate.
func NewSizedHierarchy(l1Bytes, l2Bytes uint64) *Hierarchy {
	l1, err := New(Config{Name: "l1d", Size: l1Bytes, Ways: 8, Latency: sim.NS(1)})
	if err != nil {
		panic(err)
	}
	l2, err := New(Config{Name: "l2", Size: l2Bytes, Ways: 8, Latency: sim.NS(4)})
	if err != nil {
		panic(err)
	}
	return &Hierarchy{L1: l1, L2: l2}
}

// Clone returns a deep copy of the stack's content and counters. The
// WriteBack callback is NOT carried over — it points at the original
// owner's core; the new owner must rebind it before the first access.
//
//tdlint:copier Hierarchy
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{L1: h.L1.Clone(), L2: h.L2.Clone()}
}

// AccessResult summarizes one core access against the stack.
type AccessResult struct {
	Latency  sim.Tick // on-chip latency (excludes any DRAM access)
	MissLine uint64   // valid when Missed
	Missed   bool     // needs a DRAM-cache read demand for MissLine
}

// Access runs one load/store through L1 then L2. When the access misses
// both levels, the caller must issue a read demand for the returned line
// and call Fill once data returns. Store misses allocate like loads
// (write-allocate); stores mark lines dirty so evictions eventually
// produce write demands downstream.
func (h *Hierarchy) Access(lineAddr uint64, store bool) AccessResult {
	res := AccessResult{Latency: h.L1.cfg.Latency}
	r1 := h.L1.Access(lineAddr, store)
	if r1.Hit {
		return res
	}
	// L1 victim falls into L2 (it is inclusive enough for our purposes:
	// mark dirty there, or install if absent).
	if r1.Evicted && r1.VictimDirty {
		if !h.L2.MarkDirty(r1.VictimLine) {
			h.spillToL2(r1.VictimLine)
		}
	}
	res.Latency += h.L2.cfg.Latency
	r2 := h.L2.Access(lineAddr, false) // dirty bit tracked in L1 until eviction
	if r2.Hit {
		return res
	}
	if r2.Evicted && r2.VictimDirty && h.WriteBack != nil {
		h.WriteBack(r2.VictimLine)
	}
	res.Missed = true
	res.MissLine = lineAddr
	return res
}

// spillToL2 installs a dirty L1 victim that L2 no longer holds.
func (h *Hierarchy) spillToL2(lineAddr uint64) {
	r := h.L2.Access(lineAddr, true)
	if r.Evicted && r.VictimDirty && h.WriteBack != nil {
		h.WriteBack(r.VictimLine)
	}
}
