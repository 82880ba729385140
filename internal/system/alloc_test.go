package system

import (
	"runtime"
	"testing"

	"tdram/internal/dramcache"
)

// measuredMallocsPerAccess is the measured phase's heap allocation
// count per simulated access on the gate's cell (16 MiB cache, ft.C,
// 1500 warmup and 2500 measured accesses per core; Go 1.24, amd64) —
// what is left once transactions, demand requests and wheel slots are
// recycled: map and queue growth past the warmup's high-water marks.
// Before recycling the figure was about 3.9 for every design.
// Allocation counts are deterministic for a fixed program and input, so
// unlike wall time they can gate the hot path exactly.
var measuredMallocsPerAccess = map[dramcache.Design]float64{
	dramcache.TDRAM:       0.00265, // 53 mallocs over 20,000 accesses
	dramcache.CascadeLake: 0.00275, // 55
	dramcache.BEAR:        0.00360, // 65-72: map growth varies with the hash seed
	dramcache.Ideal:       0.00045, // 9
}

// measuredMallocsSlack is the headroom above each figure the gate allows.
const measuredMallocsSlack = 0.15

// TestMeasuredPhaseAllocsPerAccess pins the steady-state allocation of
// the simulated access path: after prewarm and warmup, the measured
// phase must allocate (almost) nothing per access. A per-access record
// that stops being recycled — a fresh txn, mem.Request or wheel slab per
// demand — adds one or more mallocs per access and fails it.
func TestMeasuredPhaseAllocsPerAccess(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for d, figure := range measuredMallocsPerAccess {
		sys, err := New(smallConfig(t, d, "ft.C"))
		if err != nil {
			t.Fatal(err)
		}
		sys.prewarm()
		if err := sys.phase(sys.cfg.WarmupPerCore); err != nil {
			t.Fatal(err)
		}
		sys.ctl.ResetStats()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := sys.phase(sys.cfg.RequestsPerCore); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		accesses := float64(sys.cfg.Cores * sys.cfg.RequestsPerCore)
		got := float64(after.Mallocs-before.Mallocs) / accesses
		limit := figure * (1 + measuredMallocsSlack)
		t.Logf("%v: %d mallocs, %.5f per measured access (figure %.5f)", d, after.Mallocs-before.Mallocs, got, figure)
		if got > limit {
			t.Errorf("%v: measured phase allocates %.4f times per access, budget %.4f (%.4f + %.0f%%)",
				d, got, limit, figure, 100*measuredMallocsSlack)
		}
	}
}
