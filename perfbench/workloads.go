package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tdram/internal/dramcache"
	"tdram/internal/experiments"
	"tdram/internal/system"
	"tdram/internal/workload"
)

// bench is one prepared workload.
type bench interface {
	// round runs one fixed unit of the workload's work. traced adds the
	// spans the traced pass reports; the work is the same.
	round(traced bool) *round
	// simCells lists the simulated cells behind the workload, and whether
	// the cells of one workload share a warmup image (matrix and serve
	// jobs do; cold tdsim cells replay their own prewarm).
	simCells() (cells []system.Config, shareImages bool)
	close() error
}

// round is what one unit of work did.
type round struct {
	wall      time.Duration
	cpu       time.Duration   // process CPU time, filled in by timedRound
	ops       []time.Duration // per-operation times behind op_p50_us
	attempted int
	failed    int
	drift     int    // results whose digest differs from the record
	accesses  uint64 // simulated measured-phase core accesses

	// Filled in by timedRound.
	alloc, mallocs uint64
	gcCycles       uint32
	gcPause        time.Duration

	// matrix-quick: per-cell intervals between OnCell callbacks.
	cellSpans []time.Duration
	// cells-*: the traced round is a system pass.
	sys *sysPass
	// serve-mixed.
	serve *serveRound
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(options) (bench, error){
	"matrix-quick": newMatrixBench,
	"cells-read":   func(o options) (bench, error) { return newCellsBench(o, readHeavy...) },
	"cells-write":  func(o options) (bench, error) { return newCellsBench(o, writeHeavy...) },
	"serve-mixed":  newServeBench,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// cellSeeds is the size of the recorded seed family: a run's cells use
// system.Config.Seed = 1 + seed mod cellSeeds, so every input a run can
// draw has a recorded digest to be checked against.
const cellSeeds = 16

func cellSeed(seed uint64) uint64 { return 1 + seed%cellSeeds }

// The cold-cell workloads' high-miss workloads: read-heavy (write
// fraction 0.15) and write-heavy (0.50 and 0.45).
var (
	readHeavy  = []string{"pr.25", "bfs.25"}
	writeHeavy = []string{"is.D", "ft.C"}
)

// cellDesigns are the two designs the cold-cell workloads compare.
var cellDesigns = []dramcache.Design{dramcache.TDRAM, dramcache.CascadeLake}

// matrixScale is the fig9 quick matrix, or a small one for the smoke test.
func matrixScale(size string) experiments.Scale {
	sc := experiments.Quick()
	if size == "tiny" {
		sc.CacheBytes = 1 << 20
		sc.RequestsPerCore = 100
		sc.WarmupPerCore = 20
		sc.Workloads = sc.Workloads[:2]
	}
	return sc
}

// matrixCells lists a scale's cells in the runner's workload-major
// sweep order.
func matrixCells(sc experiments.Scale) []system.Config {
	var cells []system.Config
	for _, wl := range sc.Workloads {
		for _, d := range experiments.MatrixDesigns() {
			cells = append(cells, sc.Config(d, wl))
		}
	}
	return cells
}

// coldCells lists the cold tdsim cells of two workloads: the tdsim
// defaults (16 MiB, 10000 measured and 1000 warmup accesses per core).
func coldCells(size string, seed uint64, names ...string) ([]system.Config, error) {
	var cells []system.Config
	for _, name := range names {
		wl, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, d := range cellDesigns {
			cfg := system.DefaultConfig(d, wl, 16<<20)
			cfg.RequestsPerCore = 10000
			cfg.WarmupPerCore = 1000
			if size == "tiny" {
				cfg = system.DefaultConfig(d, wl, 1<<20)
				cfg.RequestsPerCore = 200
				cfg.WarmupPerCore = 50
			}
			cfg.Seed = cellSeed(seed)
			cells = append(cells, cfg)
		}
	}
	return cells, nil
}

// warmUp runs one small cell of cfg's workload and design so code and
// heap reach steady state before anything is timed.
func warmUp(cfg system.Config) error {
	small := system.DefaultConfig(cfg.Cache.Design, cfg.Workload, 1<<20)
	small.RequestsPerCore = 200
	small.WarmupPerCore = 50
	small.Seed = cfg.Seed
	_, err := system.Run(small)
	return err
}

// matrixBench is matrix-quick: experiments.RunMatrixOpts over the quick
// scale with one job, every design cell forked from one shared warmup
// image per workload.
type matrixBench struct {
	sc      experiments.Scale
	cells   []system.Config
	configs map[experiments.Key]system.Config
	record  digestTable
}

func newMatrixBench(o options) (bench, error) {
	b := &matrixBench{sc: matrixScale(o.size)}
	b.cells = matrixCells(b.sc)
	b.configs = make(map[experiments.Key]system.Config, len(b.cells))
	for _, cfg := range b.cells {
		b.configs[experiments.Key{Design: cfg.Cache.Design, Workload: cfg.Workload.Name}] = cfg
	}
	var err error
	if b.record, err = loadDigests(); err != nil {
		return nil, err
	}
	if err := warmUp(b.cells[0]); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *matrixBench) simCells() ([]system.Config, bool) { return b.cells, true }
func (b *matrixBench) close() error                      { return nil }

func (b *matrixBench) round(traced bool) *round {
	r := &round{}
	start := time.Now()
	last := cpuTime()
	opts := experiments.MatrixOptions{
		Jobs: 1,
		// With one job the runner simulates each cell while this
		// goroutine waits, so the CPU time between two callbacks is the
		// cell's (and, for the first cell of a workload, its image's).
		OnCell: func(k experiments.Key, res *system.Result, err error) {
			now := cpuTime()
			r.ops = append(r.ops, now-last)
			last = now
			r.attempted++
			if !checkCell(b.configs[k], res, err, b.record, r) {
				fmt.Printf("cell %s/%v failed: %v\n", k.Workload, k.Design, err)
			}
		},
	}
	_, _ = experiments.RunMatrixOpts(b.sc, opts) // per-cell errors arrive through OnCell
	r.wall = time.Since(start)
	if traced {
		r.cellSpans = r.ops
	}
	return r
}

// checkCell counts one simulated cell into r: its accesses, and a
// failure for an error, a wrong access count or a digest that differs
// from the record. It reports whether the cell was correct.
func checkCell(cfg system.Config, res *system.Result, err error, record digestTable, r *round) bool {
	if err != nil || res == nil {
		r.failed++
		return false
	}
	want := uint64(cfg.Cores * cfg.RequestsPerCore)
	r.accesses += res.Accesses
	if res.Accesses != want {
		r.failed++
		return false
	}
	if !record.matches(cellKey(cfg), resultDigest(res)) {
		r.drift++
		r.failed++
		return false
	}
	return true
}

// cellsBench is cells-read / cells-write: cold cells through
// system.Run, which replays the prewarm inside every cell as tdsim does.
type cellsBench struct {
	cells  []system.Config
	record digestTable
}

func newCellsBench(o options, names ...string) (bench, error) {
	cells, err := coldCells(o.size, o.seed, names...)
	if err != nil {
		return nil, err
	}
	b := &cellsBench{cells: cells}
	if b.record, err = loadDigests(); err != nil {
		return nil, err
	}
	if err := warmUp(cells[0]); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *cellsBench) simCells() ([]system.Config, bool) { return b.cells, false }
func (b *cellsBench) close() error                      { return nil }

func (b *cellsBench) round(traced bool) *round {
	if traced {
		// The traced cells take the image-and-fork path, bit-identical
		// to system.Run, so prewarm, fork and run get their own spans.
		return runSysPass(b.cells, false, b.record)
	}
	r := &round{}
	start := time.Now()
	for _, cfg := range b.cells {
		t := cpuTime()
		res, err := system.Run(cfg)
		r.ops = append(r.ops, cpuTime()-t)
		r.attempted++
		if !checkCell(cfg, res, err, b.record, r) {
			fmt.Printf("cell %s/%v failed: %v\n", cfg.Workload.Name, cfg.Cache.Design, err)
		}
	}
	r.wall = time.Since(start)
	return r
}
