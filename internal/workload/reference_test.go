package workload

import (
	"math"
	"testing"
)

// This file keeps the float-compare Stream.Next that the integer-draw
// Next replaced alive as a test-only reference, and checks that both
// produce identical (line, store, thinkNS) sequences. The reference
// compares a float draw in [0, 1) against each Spec fraction and wraps
// the scan position with %; Next compares the raw 53-bit draw against
// thresholds precomputed by threshold and wraps by compare.

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// refNext is Stream.Next as it was written with float draws.
func (st *Stream) refNext() (line uint64, store bool, thinkNS float64) {
	r := st.rng
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
	if st.spec.ConflictFrac > 0 && r.float() < st.spec.ConflictFrac {
		s := r.intn(uint64(st.spec.ConflictSets))
		k := r.intn(uint64(st.spec.ConflictDepth))
		line = s + k*st.cacheLines
		store = r.float() < st.spec.WriteFrac
		return line, store, thinkNS
	}
	switch {
	case st.scanBurst > 0:
		st.scanBurst--
		st.scanPos = (st.scanPos + 1) % st.lines
		line = st.base + st.scanPos
	case r.float() < st.spec.ScanFrac:
		st.scanBurst = 31
		st.scanPos = (st.scanPos + 1) % st.lines
		line = st.base + st.scanPos
	case r.float() < st.spec.HotFrac:
		line = st.base + r.intn(st.hotLines)
	default:
		line = st.base + r.intn(st.lines)
	}
	store = r.float() < st.spec.WriteFrac
	return line, store, thinkNS
}

// TestStreamMatchesReference drives every named workload's stream, for
// every core of an 8-core partition and three seeds, through Next and
// through the float reference from the same start, plus one spec that
// uses the conflict rings; the two must agree draw for draw. The 1 MiB
// cache keeps per-core regions small, so scan runs wrap the region many
// times.
func TestStreamMatchesReference(t *testing.T) {
	specs := append(All(), Spec{
		Name: "conflict", FootprintRatio: 0.5, WriteFrac: 0.3, ScanFrac: 0.4, HotFrac: 0.5, HotRatio: 0.1,
		ThinkNS: 4, ConflictFrac: 0.25, ConflictSets: 8, ConflictDepth: 4,
	})
	n := 20000
	if testing.Short() {
		n = 5000
	}
	const cores = 8
	for _, s := range specs {
		for core := 0; core < cores; core++ {
			for _, seed := range []uint64{1, 2, 42} {
				st := s.NewStream(core, cores, 1<<20, seed)
				ref := st.Clone()
				for i := 0; i < n; i++ {
					l1, w1, t1 := st.Next()
					l2, w2, t2 := ref.refNext()
					if l1 != l2 || w1 != w2 || t1 != t2 {
						t.Fatalf("%s core %d seed %d draw %d: Next (%d, %v, %v), reference (%d, %v, %v)",
							s.Name, core, seed, i, l1, w1, t1, l2, w2, t2)
					}
				}
				if *st.rng != *ref.rng {
					t.Fatalf("%s core %d seed %d: generators out of step after %d draws", s.Name, core, seed, n)
				}
			}
		}
	}
}

// rngYielding returns a generator whose next draw is v, by running
// SplitMix64's output mix backwards: each xorshift is undone by
// re-applying it until the high bits settle, each odd multiplier by its
// inverse mod 2^64 (Newton's iteration, doubling the correct low bits).
func rngYielding(v uint64) *rng {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for i := 0; i < 64; i += int(s) {
			x = y ^ x>>s
		}
		return x
	}
	inverse := func(a uint64) uint64 {
		x := a // correct to 3 bits for odd a
		for i := 0; i < 5; i++ {
			x *= 2 - a*x
		}
		return x
	}
	z := unshift(v, 31) * inverse(0x94D049BB133111EB)
	z = unshift(z, 27) * inverse(0xBF58476D1CE4E5B9)
	return &rng{state: unshift(z, 30) - 0x9E3779B97F4A7C15}
}

// TestThresholdEdges checks threshold against the float test it
// replaces at the edges: f = 0 and 1, out-of-range and NaN fractions,
// and fractions on and next to k/2^53. Each case is probed with the
// 53-bit draws around its bound, fed through below.
func TestThresholdEdges(t *testing.T) {
	const two53 = 1 << 53
	for _, c := range []struct {
		f    float64
		want uint64
	}{
		{0, 0},
		{math.Copysign(0, -1), 0},
		{-0.5, 0},
		{math.NaN(), 0},
		{math.SmallestNonzeroFloat64, 1},
		{1, two53},
		{1.5, two53},
		{math.Inf(1), two53},
		{0.5, two53 / 2},
		{math.Nextafter(0.5, 0), two53 / 2},
		{math.Nextafter(0.5, 1), two53/2 + 1},
		{3.0 / two53, 3},
		{math.Nextafter(3.0/two53, 0), 3},
		{math.Nextafter(3.0/two53, 1), 4},
		{(two53 - 1.0) / two53, two53 - 1},
		{math.Nextafter(1, 0), two53 - 1},
		{math.Nextafter((two53-1.0)/two53, 0), two53 - 2},
	} {
		got := threshold(c.f)
		if got != c.want {
			t.Errorf("threshold(%v) = %d, want %d", c.f, got, c.want)
		}
		// Draws on either side of the bound decide exactly as the float
		// compare does.
		for _, u := range []uint64{0, 1, got - 1, got, got + 1, two53 - 1} {
			if u >= two53 {
				continue
			}
			r := rngYielding(u<<11 | 0x7FF) // the low 11 bits are dropped
			if probe := *r; probe.next()>>11 != u {
				t.Fatalf("rngYielding does not yield draw %d", u)
			}
			if float, integer := float64(u)/two53 < c.f, r.below(got); float != integer {
				t.Errorf("f=%v u=%d: float test %v, threshold test %v", c.f, u, float, integer)
			}
		}
	}
}
