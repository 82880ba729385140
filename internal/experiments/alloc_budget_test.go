package experiments

import (
	"runtime"
	"testing"

	"tdram/internal/sim"
	"tdram/internal/workload"
)

// serveMatrixAllocBytes is what one serve-shaped matrix — the seven
// design cells of one small tdserve miss, forked from a shared warmup
// image — allocates on the heap (Go 1.24, amd64). Heap allocation is
// deterministic for a fixed program and input, so unlike wall time it
// can gate the miss path exactly. With transactions, demand requests and
// wheel slots recycled, the simulated accesses themselves allocate
// almost nothing: about two fifths is the cells' SRAM clones, a third
// their tag stores and an eighth their event kernels' bucket arrays
// (sim.New).
const serveMatrixAllocBytes = 2_560_000

// serveMatrixAllocSlack is the headroom above serveMatrixAllocBytes the
// gate allows (runtime and toolchain drift).
const serveMatrixAllocSlack = 0.15

// TestServeMatrixAllocBudget pins the allocation of one serve-shaped
// matrix (bt.C, 1 MiB cache, 50 measured and 10 warmup accesses per
// core, one job). A fork path that builds a throwaway machine per cell,
// a tag store that spends a struct per line again, or a per-access record
// that stops being recycled blows the budget.
func TestServeMatrixAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation")
	}
	wl, err := workload.ByName("bt.C")
	if err != nil {
		t.Fatal(err)
	}
	sc := Scale{Name: "serve", CacheBytes: 1 << 20, RequestsPerCore: 50, WarmupPerCore: 10,
		Workloads: []workload.Spec{wl}, Watchdog: 10 * sim.Millisecond}
	run := func() {
		if _, err := RunMatrixOpts(sc, MatrixOptions{Jobs: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run() // one-time initialisation stays out of the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(serveMatrixAllocBytes * (1 + serveMatrixAllocSlack))
	t.Logf("serve-shaped matrix allocated %d B (%.1f%% of the %d B figure)",
		got, 100*float64(got)/serveMatrixAllocBytes, serveMatrixAllocBytes)
	if got > limit {
		t.Errorf("serve-shaped matrix allocated %d B, budget %d B (%d B + %.0f%%)",
			got, limit, serveMatrixAllocBytes, 100*serveMatrixAllocSlack)
	}
}
