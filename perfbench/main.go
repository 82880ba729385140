// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator's public packages for a fixed
// wall-clock budget, checks every simulated result against the digests
// recorded in digests.json, and prints its metrics by name with their
// units; the last line of standard output is one JSON object.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the traced pass instead: spans around its own calls into each
// layer, a CPU profile folded per layer, and the simulated per-layer
// counters. The benchmark adds nothing inside the program; every figure
// is taken from outside, around public calls. baseline.json defines each
// metric per workload and records the baseline and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     string // "full", or "tiny" for the smoke test
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; the lists below are the
// contract BENCHMARK.json declares.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"accesses_per_s", "1/s"},
	{"req_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
}

var perLayer = []metricDef{
	{"workload.next_ns", "ns"},
	{"cache.access_ns", "ns"},
	{"cache.accesses", "count"},
	{"cache.l2_miss_ratio", "ratio"},
	{"system.prewarm_s", "s"},
	{"system.fork_ms", "ms"},
	{"system.run_s", "s"},
	{"system.prewarm_share", "ratio"},
	{"sim.events", "count"},
	{"sim.events_per_access", "ratio"},
	{"sim.ns_per_event", "ns"},
	{"dramcache.miss_ratio", "ratio"},
	{"dramcache.tag_check_ns", "ns"},
	{"dramcache.read_queueing_ns", "ns"},
	{"dramcache.bloat", "ratio"},
	{"dramcache.flush_stalls", "count"},
	{"dramcache.queue_rejects", "count"},
	{"dram.activates", "count"},
	{"dram.tag_activates", "count"},
	{"dram.dq_util", "ratio"},
	{"backing.reads", "count"},
	{"backing.writes", "count"},
	{"backing.write_drain_switches", "count"},
	{"backing.read_queueing_ns", "ns"},
	{"workload.self_share", "ratio"},
	{"cache.self_share", "ratio"},
	{"system.self_share", "ratio"},
	{"sim.self_share", "ratio"},
	{"dramcache.self_share", "ratio"},
	{"dram.self_share", "ratio"},
	{"backing.self_share", "ratio"},
	{"experiments.self_share", "ratio"},
	{"serve.self_share", "ratio"},
	{"runtime.self_share", "ratio"},
	{"other.self_share", "ratio"},
	{"experiments.cell_p50_s", "s"},
	{"experiments.cell_max_s", "s"},
	{"experiments.image_s", "s"},
	{"serve.mem_hit_frac", "ratio"},
	{"serve.disk_hit_frac", "ratio"},
	{"serve.store_get_us", "us"},
	{"serve.rejects_429", "count"},
	{"serve.handler_p50_us", "us"},
	{"serve.hit_p99_us", "us"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.hit_sim_share", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.mallocs_per_access", "ratio"},
	{"check.digest_drift", "count"},
	{"check.fail_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// workDir holds the temporary serve stores; run.sh builds into the
// same directory of the checkout.
const workDir = ".bench_build"

// setupProbes is how many times a run times its set-up; setup_s is
// their median.
const setupProbes = 9

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 25, "wall-clock budget of the timed section")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer pass")
	fs.StringVar(&o.size, "size", "full", "input size: full, or tiny for the smoke test")
	setupOnly := fs.Bool("setup-only", false, "perform the workload's set-up once and exit (the timed probe)")
	record := fs.String("record", "", "recompute every recorded digest into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *record != "" {
		if err := recordDigests(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = *traceFlag == 1
	if o.size != "full" && o.size != "tiny" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --size %q\n", o.size)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	wl, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want one of %s)\n", o.workload, workloadNames())
		return 2
	}

	if *setupOnly {
		b, err := wl(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		if err := b.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		return 0
	}

	rep, err := measure(wl, o, args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("%-30s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

// measure performs one run: set-up, then either the end-to-end
// measurement or the traced pass.
func measure(wl func(options) (bench, error), o options, args []string) (*report, error) {
	var setup float64
	if !o.trace {
		var err error
		if setup, err = probeSetup(args); err != nil {
			return nil, err
		}
	}
	b, err := wl(o)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var rep *report
	if o.trace {
		rep, err = tracedRun(b, o)
	} else {
		rep = endToEndRun(b, o, setup)
	}
	if cerr := b.close(); err == nil && cerr != nil {
		err = cerr
	}
	return rep, err
}

// probeSetup runs the workload's set-up in fresh processes of this
// binary, so package initialization is counted too, and returns the
// median of their CPU seconds (user and system, all threads). CPU time
// rather than wall time, because on a shared host the wall time of a
// sub-second set-up mostly measures the neighbours.
func probeSetup(args []string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	probeArgs := append(append([]string(nil), args...), "--setup-only")
	var times []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, probeArgs...)
		cmd.Stdout = io.Discard
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ps := cmd.ProcessState
		times = append(times, (ps.UserTime() + ps.SystemTime()).Seconds())
	}
	return median(times), nil
}

// endToEndRun repeats rounds of the workload until the next one would
// overrun the budget, then reports the end-to-end metrics.
func endToEndRun(b bench, o options, setup float64) *report {
	budget := time.Duration(o.seconds * float64(time.Second))
	var rounds []*round
	start := time.Now()
	var longest time.Duration
	for {
		r := timedRound(b, false)
		rounds = append(rounds, r)
		if r.wall > longest {
			longest = r.wall
		}
		if time.Since(start)+longest > budget {
			break
		}
	}

	var cpus, walls, allocs, accRates, opRates, ops []float64
	rep := &report{Metrics: map[string]metric{}}
	drift := 0
	for _, r := range rounds {
		cpus = append(cpus, r.cpu.Seconds())
		walls = append(walls, r.wall.Seconds())
		allocs = append(allocs, float64(r.alloc)/(1<<20))
		accRates = append(accRates, float64(r.accesses)/r.cpu.Seconds())
		opRates = append(opRates, float64(r.attempted)/r.cpu.Seconds())
		for _, d := range r.ops {
			ops = append(ops, float64(d.Nanoseconds())/1e3)
		}
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		drift += r.drift
	}
	set := func(name string, v float64) { rep.Metrics[name] = metric{v, unitOf(endToEnd, name)} }
	set("setup_s", setup)
	set("cpu_s", median(cpus))
	set("accesses_per_s", median(accRates))
	set("req_per_s", median(opRates))
	set("op_p50_us", median(ops))
	set("peak_rss_mb", peakRSSMB())
	set("alloc_mb", median(allocs))
	rep.Correct = rep.Failed == 0 && drift == 0
	fmt.Printf("workload %s seed %d: %d rounds, median wall %.4g s, %d operations (%d op samples), %d failed, digest drift %d\n",
		o.workload, o.seed, len(rounds), median(walls), rep.Attempted, len(ops), rep.Failed, drift)
	return rep
}

// timedRound runs one round and fills in its CPU, heap and GC figures.
func timedRound(b bench, traced bool) *round {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	r := b.round(traced)
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	r.alloc = after.TotalAlloc - before.TotalAlloc
	r.mallocs = after.Mallocs - before.Mallocs
	r.gcCycles = after.NumGC - before.NumGC
	r.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return r
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// cpuTime is the process's CPU time so far, user and system, all
// threads. The kernel leaves out time the hypervisor steals, which on a
// shared host swings wall time by tens of percent from minute to minute.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		var kb float64
		for _, line := range strings.Split(string(data), "\n") {
			if n, _ := fmt.Sscanf(line, "VmHWM: %g kB", &kb); n == 1 {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
