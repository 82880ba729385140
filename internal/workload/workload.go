// Package workload provides deterministic synthetic address-stream
// generators standing in for the paper's NPB (class C/D) and GAPBS
// (inputs 22/25) benchmarks. The binaries themselves cannot be run inside
// this reproduction, so each named workload is parameterized to land in
// the paper's measured DRAM-cache miss-ratio band (Fig. 1: low < 30 %,
// high > 50 %, nothing in between) with a representative write intensity
// and locality mix. See DESIGN.md §2 for the substitution rationale.
package workload

import (
	"fmt"
	"math"
	"math/bits"

	"tdram/internal/mem"
)

// Band is the paper's Fig. 1 miss-ratio grouping.
type Band uint8

const (
	LowMiss  Band = iota // DRAM-cache miss ratio below 30 %
	HighMiss             // above 50 %
)

func (b Band) String() string {
	if b == HighMiss {
		return "high"
	}
	return "low"
}

// Spec describes one named workload.
type Spec struct {
	Name  string // e.g. "ft.C", "pr.25"
	Suite string // "npb" or "gapbs"

	// FootprintRatio is total footprint divided by DRAM-cache capacity.
	// Ratios below ~0.6 produce the low band; above ~2 the high band.
	FootprintRatio float64

	// WriteFrac is the store fraction of the core's accesses.
	WriteFrac float64

	// ScanFrac of accesses walk the footprint sequentially; the rest are
	// random, of which HotFrac go to a hot region of HotRatio × footprint.
	ScanFrac, HotFrac, HotRatio float64

	// ThinkNS is the mean per-access compute gap modeled in the core.
	// Streams are bursty, as HPC phases are: runs of accesses at ~0.3x
	// the mean think time alternate with compute stretches at ~3x, so
	// queues see transient pressure without sustained saturation.
	ThinkNS float64

	// Band is the expected miss-ratio band, used to validate calibration.
	Band Band

	// ConflictFrac of accesses walk same-set rings: ConflictSets rings of
	// ConflictDepth lines spaced exactly one cache capacity apart, so the
	// lines of a ring collide in the same set at any associativity. A
	// direct-mapped cache thrashes on them; a cache with at least
	// ConflictDepth ways holds them all. None of the 28 named workloads
	// use this (the paper's HPC codes have negligible conflict misses,
	// §V-F); it exists so the set-associativity study can also show the
	// pattern associativity is for.
	ConflictFrac  float64
	ConflictSets  int
	ConflictDepth int
}

// String implements fmt.Stringer.
func (s Spec) String() string { return s.Name }

// rng is a SplitMix64 generator: tiny, deterministic and plenty good for
// address-stream synthesis.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// below reports whether a uniform draw in [0, 1) falls under the
// probability f whose threshold(f) it is given. It consumes one draw,
// exactly as the float test float64(r.next()>>11)/2^53 < f does, and
// gives the same answer.
func (r *rng) below(thresh uint64) bool { return r.next()>>11 < thresh }

// threshold converts a probability f to the integer bound below tests
// against: ceil(f·2^53), clamped to [0, 2^53]. For a 53-bit draw u, the
// quotient u/2^53 is exact (u fits the significand and dividing by a
// power of two only moves the exponent), and so is f·2^53. Hence
// u/2^53 < f ⇔ u < f·2^53 ⇔ u < ceil(f·2^53), u being an integer.
// f ≤ 0 (and NaN) never passes, f ≥ 1 always does.
func threshold(f float64) uint64 {
	switch {
	case !(f > 0):
		return 0
	case f >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(f * (1 << 53)))
}

// intn returns a uniform value in [0, n) via Lemire's multiply-shift
// rejection method. The previous r.next() % n carried the classic
// modulo bias: for any n that does not divide 2^64, the low residues
// are (slightly) more likely, which skews address distributions for
// every non-power-of-two footprint. Here the 128-bit product x*n is
// uniform over [0, n) in its high word once the low word clears the
// rejection threshold (2^64 mod n); fewer than one draw in 2^20 is
// rejected at the footprint sizes the workloads use.
func (r *rng) intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	hi, lo := bits.Mul64(r.next(), n)
	if lo < n {
		thresh := -n % n // (2^64 - n) mod n
		for lo < thresh {
			hi, lo = bits.Mul64(r.next(), n)
		}
	}
	return hi
}

// Stream generates one core's line-address stream for a Spec. Each core
// works in its own slice of the footprint, as the multithreaded HPC
// codes the paper uses partition their data.
type Stream struct {
	spec      Spec
	rng       *rng
	base      uint64 // first line of this core's region
	lines     uint64 // region length in lines
	hotLines  uint64
	scanPos   uint64
	scanBurst int // remaining accesses in the current sequential run

	// Burstiness state: memory-intensive runs alternate with compute
	// stretches.
	phaseLeft int
	inBurst   bool

	cacheLines uint64 // ring spacing for the conflict pattern

	// Integer draw thresholds (see threshold) for the Spec's fractions.
	conflictThresh, scanThresh, hotThresh, writeThresh uint64
}

// NewStream builds the stream for one core. cacheBytes is the DRAM-cache
// capacity the footprint ratio refers to; cores is the core count the
// footprint is partitioned over.
func (s Spec) NewStream(core, cores int, cacheBytes uint64, seed uint64) *Stream {
	totalLines := uint64(float64(cacheBytes)*s.FootprintRatio) / mem.LineSize
	per := totalLines / uint64(cores)
	if per < 64 {
		per = 64
	}
	hot := uint64(float64(per) * s.HotRatio)
	if hot < 16 {
		hot = 16
	}
	if hot > per {
		hot = per
	}
	st := &Stream{
		spec:       s,
		rng:        newRNG(seed ^ uint64(core+1)*0x8CB92BA72F3D8DD7),
		base:       uint64(core) * per,
		lines:      per,
		hotLines:   hot,
		cacheLines: cacheBytes / mem.LineSize,

		conflictThresh: threshold(s.ConflictFrac),
		scanThresh:     threshold(s.ScanFrac),
		hotThresh:      threshold(s.HotFrac),
		writeThresh:    threshold(s.WriteFrac),
	}
	st.scanPos = st.rng.intn(per)
	return st
}

// Lines reports the per-core region length.
func (st *Stream) Lines() uint64 { return st.lines }

// Clone returns an independent deep copy of the stream: the copy draws
// the exact same future address sequence as the original would, and
// advancing either does not disturb the other. The warmup snapshot/fork
// machinery clones one prewarmed stream per (workload, core) into every
// design's forked run.
//
//tdlint:copier Stream
func (st *Stream) Clone() *Stream {
	c := *st
	r := *st.rng
	c.rng = &r
	return &c
}

// Next returns the next line address, whether it is a store, and the
// compute time (ns) the core spends before issuing it.
func (st *Stream) Next() (line uint64, store bool, thinkNS float64) {
	r := st.rng
	// Two-phase burstiness: ~48-access memory bursts at 0.3x the mean
	// think time, ~16-access compute stretches at 3x. The weighted mean
	// stays at Spec.ThinkNS.
	if st.phaseLeft == 0 {
		if st.inBurst {
			st.inBurst = false
			st.phaseLeft = 8 + int(r.intn(16))
		} else {
			st.inBurst = true
			st.phaseLeft = 24 + int(r.intn(48))
		}
	}
	st.phaseLeft--
	if st.inBurst {
		thinkNS = st.spec.ThinkNS * 0.3
	} else {
		thinkNS = st.spec.ThinkNS * 3.0
	}
	if st.conflictThresh > 0 && r.below(st.conflictThresh) {
		// Same-set ring: ring s, way k -> line s + k*cacheLines. These
		// addresses collide in set s of the DRAM cache regardless of its
		// associativity.
		s := r.intn(uint64(st.spec.ConflictSets))
		k := r.intn(uint64(st.spec.ConflictDepth))
		line = s + k*st.cacheLines
		store = r.below(st.writeThresh)
		return line, store, thinkNS
	}
	switch {
	case st.scanBurst > 0:
		st.scanBurst--
		line = st.base + st.advanceScan()
	case r.below(st.scanThresh):
		// Start (or continue) a sequential run of 32 lines so scans have
		// the spatial behaviour of the real stencil/FFT codes.
		st.scanBurst = 31
		line = st.base + st.advanceScan()
	case r.below(st.hotThresh):
		line = st.base + r.intn(st.hotLines)
	default:
		line = st.base + r.intn(st.lines)
	}
	store = r.below(st.writeThresh)
	return line, store, thinkNS
}

// advanceScan steps the scan position, wrapping at the region's end.
func (st *Stream) advanceScan() uint64 {
	st.scanPos++
	if st.scanPos == st.lines {
		st.scanPos = 0
	}
	return st.scanPos
}

// specs is the full 28-workload roster: NPB classes C and D, GAPBS
// inputs 22 and 25. Band assignments follow Fig. 1's grouping: class C /
// input 22 runs mostly fit the 8 GiB cache (low band), class D / input 25
// runs exceed it (high band), with ep tiny in both classes and ft/is/mg
// cache-hostile in both (the paper calls out ft, is, mg, ua for wasted
// movement and high miss traffic).
var specs = []Spec{
	// NPB class C.
	{Name: "bt.C", Suite: "npb", FootprintRatio: 0.45, WriteFrac: 0.35, ScanFrac: 0.55, HotFrac: 0.50, HotRatio: 0.12, ThinkNS: 5.0, Band: LowMiss},
	{Name: "cg.C", Suite: "npb", FootprintRatio: 0.40, WriteFrac: 0.20, ScanFrac: 0.20, HotFrac: 0.55, HotRatio: 0.10, ThinkNS: 4.0, Band: LowMiss},
	{Name: "ep.C", Suite: "npb", FootprintRatio: 0.02, WriteFrac: 0.30, ScanFrac: 0.30, HotFrac: 0.70, HotRatio: 0.30, ThinkNS: 30.0, Band: LowMiss},
	{Name: "ft.C", Suite: "npb", FootprintRatio: 4.0, WriteFrac: 0.45, ScanFrac: 0.70, HotFrac: 0.06, HotRatio: 0.04, ThinkNS: 3.6, Band: HighMiss},
	{Name: "is.C", Suite: "npb", FootprintRatio: 4.5, WriteFrac: 0.50, ScanFrac: 0.15, HotFrac: 0.10, HotRatio: 0.04, ThinkNS: 3.0, Band: HighMiss},
	{Name: "lu.C", Suite: "npb", FootprintRatio: 0.35, WriteFrac: 0.40, ScanFrac: 0.60, HotFrac: 0.50, HotRatio: 0.15, ThinkNS: 5.0, Band: LowMiss},
	{Name: "mg.C", Suite: "npb", FootprintRatio: 3.0, WriteFrac: 0.30, ScanFrac: 0.75, HotFrac: 0.10, HotRatio: 0.05, ThinkNS: 4.5, Band: HighMiss},
	{Name: "sp.C", Suite: "npb", FootprintRatio: 0.50, WriteFrac: 0.38, ScanFrac: 0.55, HotFrac: 0.45, HotRatio: 0.12, ThinkNS: 5.0, Band: LowMiss},
	{Name: "ua.C", Suite: "npb", FootprintRatio: 0.42, WriteFrac: 0.35, ScanFrac: 0.35, HotFrac: 0.50, HotRatio: 0.10, ThinkNS: 5.5, Band: LowMiss},
	// NPB class D.
	{Name: "bt.D", Suite: "npb", FootprintRatio: 3.5, WriteFrac: 0.35, ScanFrac: 0.55, HotFrac: 0.15, HotRatio: 0.04, ThinkNS: 6.0, Band: HighMiss},
	{Name: "cg.D", Suite: "npb", FootprintRatio: 4.0, WriteFrac: 0.20, ScanFrac: 0.20, HotFrac: 0.20, HotRatio: 0.03, ThinkNS: 4.5, Band: HighMiss},
	{Name: "ep.D", Suite: "npb", FootprintRatio: 0.03, WriteFrac: 0.30, ScanFrac: 0.30, HotFrac: 0.70, HotRatio: 0.30, ThinkNS: 30.0, Band: LowMiss},
	{Name: "ft.D", Suite: "npb", FootprintRatio: 6.0, WriteFrac: 0.45, ScanFrac: 0.70, HotFrac: 0.08, HotRatio: 0.02, ThinkNS: 3.6, Band: HighMiss},
	{Name: "is.D", Suite: "npb", FootprintRatio: 5.0, WriteFrac: 0.50, ScanFrac: 0.15, HotFrac: 0.10, HotRatio: 0.02, ThinkNS: 3.0, Band: HighMiss},
	{Name: "lu.D", Suite: "npb", FootprintRatio: 0.55, WriteFrac: 0.40, ScanFrac: 0.60, HotFrac: 0.45, HotRatio: 0.12, ThinkNS: 5.0, Band: LowMiss},
	{Name: "mg.D", Suite: "npb", FootprintRatio: 5.5, WriteFrac: 0.30, ScanFrac: 0.75, HotFrac: 0.10, HotRatio: 0.03, ThinkNS: 4.5, Band: HighMiss},
	{Name: "sp.D", Suite: "npb", FootprintRatio: 3.2, WriteFrac: 0.38, ScanFrac: 0.55, HotFrac: 0.15, HotRatio: 0.04, ThinkNS: 6.0, Band: HighMiss},
	{Name: "ua.D", Suite: "npb", FootprintRatio: 4.2, WriteFrac: 0.35, ScanFrac: 0.35, HotFrac: 0.18, HotRatio: 0.04, ThinkNS: 6.6, Band: HighMiss},
	// GAPBS, synthetic graphs with 2^22 vertices.
	{Name: "bc.22", Suite: "gapbs", FootprintRatio: 0.45, WriteFrac: 0.30, ScanFrac: 0.10, HotFrac: 0.60, HotRatio: 0.08, ThinkNS: 3.0, Band: LowMiss},
	{Name: "bfs.22", Suite: "gapbs", FootprintRatio: 0.40, WriteFrac: 0.15, ScanFrac: 0.15, HotFrac: 0.60, HotRatio: 0.08, ThinkNS: 3.0, Band: LowMiss},
	{Name: "cc.22", Suite: "gapbs", FootprintRatio: 0.42, WriteFrac: 0.20, ScanFrac: 0.20, HotFrac: 0.55, HotRatio: 0.08, ThinkNS: 3.0, Band: LowMiss},
	{Name: "pr.22", Suite: "gapbs", FootprintRatio: 0.50, WriteFrac: 0.15, ScanFrac: 0.30, HotFrac: 0.55, HotRatio: 0.10, ThinkNS: 3.0, Band: LowMiss},
	{Name: "sssp.22", Suite: "gapbs", FootprintRatio: 0.48, WriteFrac: 0.25, ScanFrac: 0.10, HotFrac: 0.58, HotRatio: 0.08, ThinkNS: 3.0, Band: LowMiss},
	// GAPBS, 2^25 vertices: footprints up to ~80 GiB vs the 8 GiB cache.
	{Name: "bc.25", Suite: "gapbs", FootprintRatio: 7.0, WriteFrac: 0.30, ScanFrac: 0.10, HotFrac: 0.25, HotRatio: 0.01, ThinkNS: 3.6, Band: HighMiss},
	{Name: "bfs.25", Suite: "gapbs", FootprintRatio: 6.0, WriteFrac: 0.15, ScanFrac: 0.15, HotFrac: 0.25, HotRatio: 0.01, ThinkNS: 3.0, Band: HighMiss},
	{Name: "cc.25", Suite: "gapbs", FootprintRatio: 6.5, WriteFrac: 0.20, ScanFrac: 0.20, HotFrac: 0.22, HotRatio: 0.01, ThinkNS: 3.0, Band: HighMiss},
	{Name: "pr.25", Suite: "gapbs", FootprintRatio: 8.0, WriteFrac: 0.15, ScanFrac: 0.30, HotFrac: 0.22, HotRatio: 0.01, ThinkNS: 3.0, Band: HighMiss},
	{Name: "sssp.25", Suite: "gapbs", FootprintRatio: 7.5, WriteFrac: 0.25, ScanFrac: 0.10, HotFrac: 0.25, HotRatio: 0.01, ThinkNS: 3.6, Band: HighMiss},
}

// All returns the full 28-workload roster in a fixed order.
func All() []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs)
	return out
}

// ByName returns the named workload.
func ByName(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Names lists all workload names in roster order.
func Names() []string {
	ns := make([]string, len(specs))
	for i, s := range specs {
		ns[i] = s.Name
	}
	return ns
}

// Representative returns a small, band-balanced subset used by quick
// benchmark runs: two low-miss and two high-miss NPB workloads plus one
// of each from GAPBS.
func Representative() []Spec {
	names := []string{"bt.C", "lu.C", "ft.C", "is.D", "bfs.22", "pr.25"}
	out := make([]Spec, 0, len(names))
	for _, n := range names {
		s, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}
