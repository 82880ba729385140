package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"time"

	"tdram/internal/cache"
	"tdram/internal/mem"
	"tdram/internal/system"
)

// sysPass is one pass over a workload's simulated cells through
// system.BuildWarmupImage, system.NewWithImage and System.Run, with a
// span around each call, plus the simulated per-layer counters of the
// resulting systems.
type sysPass struct {
	prewarm, fork, run time.Duration
	cells              int
	events             uint64
	digests            []string // per cell, in cell order

	// Simulated sums over the cells.
	outcomes, misses         uint64
	tagCheckSum, tagCheckN   float64
	readQueueSum, readQueueN float64
	trafficBytes, demandB    uint64
	flushStalls, queueRej    uint64
	activates, tagActivates  uint64
	dqBusy, dqCapacity       float64
	mmReads, mmWrites        uint64
	mmDrainSwitches          uint64
	mmQueueSum, mmQueueN     float64
}

// runSysPass runs cells through the image-and-fork path, which is
// bit-identical to system.Run. With shareImages, consecutive cells that
// an image can seed fork from one image, as the matrix runner does;
// otherwise every cell builds its own, which is the prewarm a cold cell
// replays.
func runSysPass(cells []system.Config, shareImages bool, record digestTable) *round {
	sp := &sysPass{}
	r := &round{sys: sp}
	start := time.Now()
	var img *system.WarmupImage
	for _, cfg := range cells {
		cellStart := time.Now()
		r.attempted++
		sp.cells++
		sp.digests = append(sp.digests, "")
		if img == nil || !shareImages || img.CompatibleWith(cfg) != nil {
			t := time.Now()
			var err error
			img, err = system.BuildWarmupImage(cfg)
			sp.prewarm += time.Since(t)
			if err != nil {
				fmt.Printf("cell %s/%v: warmup image: %v\n", cfg.Workload.Name, cfg.Cache.Design, err)
				r.failed++
				img = nil
				continue
			}
		}
		t := time.Now()
		sys, err := system.NewWithImage(cfg, img)
		if errors.Is(err, system.ErrIncompatibleImage) {
			// The runner's fallback: this design's config replays its own prewarm.
			sys, err = system.New(cfg)
		}
		sp.fork += time.Since(t)
		var res *system.Result
		if err == nil {
			t = time.Now()
			res, err = sys.Run()
			sp.run += time.Since(t)
		}
		r.ops = append(r.ops, time.Since(cellStart))
		if !checkCell(cfg, res, err, record, r) {
			fmt.Printf("cell %s/%v failed: %v\n", cfg.Workload.Name, cfg.Cache.Design, err)
		}
		if res == nil {
			continue
		}
		sp.digests[len(sp.digests)-1] = resultDigest(res)
		sp.add(sys, res)
	}
	r.wall = time.Since(start)
	return r
}

// add sums one finished cell's simulated counters.
func (sp *sysPass) add(sys *system.System, res *system.Result) {
	sp.events += sys.Simulator().Fired()
	c := &res.Cache
	total := c.Outcomes.Total()
	sp.outcomes += total
	sp.misses += total - c.Outcomes.Count(mem.ReadHit) - c.Outcomes.Count(mem.WriteHit)
	sp.tagCheckSum += c.TagCheck.Sum()
	sp.tagCheckN += float64(c.TagCheck.N())
	sp.readQueueSum += c.ReadQueueing.Sum()
	sp.readQueueN += float64(c.ReadQueueing.N())
	sp.trafficBytes += c.Traffic.Total()
	sp.demandB += (c.DemandReads + c.DemandWrites) * 64
	sp.flushStalls += c.FlushStalls
	sp.queueRej += c.QueueRejects
	act := sys.Controller().DeviceActivity()
	sp.activates += act.Activates
	sp.tagActivates += act.TagActivates
	if dev := sys.Controller().Device(); dev != nil {
		sp.dqBusy += float64(act.DQBusyTicks)
		sp.dqCapacity += float64(res.Runtime) * float64(dev.Channels())
	}
	sp.mmReads += res.MM.Reads
	sp.mmWrites += res.MM.Writes
	sp.mmDrainSwitches += res.MM.WriteDrainSwitches
	sp.mmQueueSum += res.MM.ReadQueueing.Sum()
	sp.mmQueueN += float64(res.MM.ReadQueueing.N())
}

// replayStats is the traced replay of the prewarm access sequence.
type replayStats struct {
	next, access     time.Duration
	accesses, misses uint64
}

// replayPrewarm replays the functional prewarm of each distinct stream
// set among cells, timing workload.Stream.Next and cache.Hierarchy.Access
// in separate loops. It mirrors system's prewarm: the automatic length
// covers core 0's footprint twice, at least 4096 accesses.
func replayPrewarm(cells []system.Config) replayStats {
	var rs replayStats
	seen := map[string]bool{}
	var lines []uint64
	var stores []bool
	for _, cfg := range cells {
		capacity := cfg.Cache.CapacityBytes
		if capacity == 0 {
			capacity = 64 << 20
		}
		l1, l2 := cfg.L1Bytes, cfg.L2Bytes
		if l1 == 0 {
			l1 = 4 << 10
		}
		if l2 == 0 {
			l2 = 64 << 10
		}
		key := fmt.Sprint(cfg.Workload.Name, cfg.Cores, capacity, cfg.Seed, l1, l2, cfg.PrewarmPerCore)
		if seen[key] || cfg.PrewarmPerCore < 0 {
			continue
		}
		seen[key] = true
		n := cfg.PrewarmPerCore
		if n == 0 {
			n = max(int(2*cfg.Workload.NewStream(0, cfg.Cores, capacity, cfg.Seed).Lines()), 4096)
		}
		if cap(lines) < n {
			lines, stores = make([]uint64, n), make([]bool, n)
		}
		lines, stores = lines[:n], stores[:n]
		for core := 0; core < cfg.Cores; core++ {
			st := cfg.Workload.NewStream(core, cfg.Cores, capacity, cfg.Seed)
			t := time.Now()
			for i := range lines {
				lines[i], stores[i], _ = st.Next()
			}
			rs.next += time.Since(t)
			h := cache.NewSizedHierarchy(l1, l2)
			h.WriteBack = func(uint64) {}
			t = time.Now()
			for i, line := range lines {
				if h.Access(line, stores[i]).Missed {
					rs.misses++
				}
			}
			rs.access += time.Since(t)
			rs.accesses += uint64(n)
		}
	}
	return rs
}

// roundsFor repeats rounds until at least d has passed, at least once.
func roundsFor(b bench, traced bool, d time.Duration) []*round {
	var rs []*round
	start := time.Now()
	for len(rs) == 0 || time.Since(start) < d {
		rs = append(rs, timedRound(b, traced))
	}
	return rs
}

// tracedRun is the per-layer pass: untraced rounds for the overhead
// baseline and the runtime counters, profiled rounds with spans, a
// system pass over the workload's cells, the prewarm replay, and one
// cell re-run by replay (system.Run) whose digest must equal its forked
// twin's.
func tracedRun(b bench, o options) (*report, error) {
	record, err := loadDigests()
	if err != nil {
		return nil, err
	}
	base := roundsFor(b, false, 3*time.Second)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced := roundsFor(b, true, 3*time.Second)
	pprof.StopCPUProfile()
	folded, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}

	all := append(append([]*round(nil), base...), traced...)
	cells, share := b.simCells()
	passRound := traced[0]
	if passRound.sys == nil {
		passRound = runSysPass(cells, share, record)
		all = append(all, passRound)
	}
	sp := passRound.sys
	replay := replayPrewarm(cells)

	// Fork versus replay: one cell, chosen by the seed, through system.Run.
	check := &round{}
	i := int(o.seed % uint64(len(cells)))
	res, err := system.Run(cells[i])
	check.attempted++
	if checkCell(cells[i], res, err, record, check) && resultDigest(res) != sp.digests[i] {
		fmt.Printf("cell %s/%v: replay digest differs from the forked cell's\n",
			cells[i].Workload.Name, cells[i].Cache.Design)
		check.failed++
		check.drift++
	}
	all = append(all, check)

	rep := &report{Metrics: map[string]metric{}}
	set := func(name string, v float64) { rep.Metrics[name] = metric{v, unitOf(perLayer, name)} }
	var drift int
	for _, r := range all {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		drift += r.drift
	}
	rep.Correct = rep.Failed == 0 && drift == 0

	set("workload.next_ns", ratio(float64(replay.next.Nanoseconds()), float64(replay.accesses)))
	set("cache.access_ns", ratio(float64(replay.access.Nanoseconds()), float64(replay.accesses)))
	set("cache.accesses", float64(replay.accesses))
	set("cache.l2_miss_ratio", ratio(float64(replay.misses), float64(replay.accesses)))

	set("system.prewarm_s", sp.prewarm.Seconds())
	set("system.fork_ms", ratio(float64(sp.fork.Nanoseconds())/1e6, float64(sp.cells)))
	set("system.run_s", sp.run.Seconds())
	set("system.prewarm_share", ratio(sp.prewarm.Seconds(), passRound.wall.Seconds()))
	set("sim.events", float64(sp.events))
	set("sim.events_per_access", ratio(float64(sp.events), float64(passRound.accesses)))
	set("sim.ns_per_event", ratio(float64(sp.run.Nanoseconds()), float64(sp.events)))

	set("dramcache.miss_ratio", ratio(float64(sp.misses), float64(sp.outcomes)))
	set("dramcache.tag_check_ns", ratio(sp.tagCheckSum, sp.tagCheckN))
	set("dramcache.read_queueing_ns", ratio(sp.readQueueSum, sp.readQueueN))
	set("dramcache.bloat", ratio(float64(sp.trafficBytes), float64(sp.demandB)))
	set("dramcache.flush_stalls", float64(sp.flushStalls))
	set("dramcache.queue_rejects", float64(sp.queueRej))
	set("dram.activates", float64(sp.activates))
	set("dram.tag_activates", float64(sp.tagActivates))
	set("dram.dq_util", ratio(sp.dqBusy, sp.dqCapacity))
	set("backing.reads", float64(sp.mmReads))
	set("backing.writes", float64(sp.mmWrites))
	set("backing.write_drain_switches", float64(sp.mmDrainSwitches))
	set("backing.read_queueing_ns", ratio(sp.mmQueueSum, sp.mmQueueN))

	for _, l := range append(append([]string(nil), layers...), "runtime", "other") {
		set(l+".self_share", folded.share[l])
	}

	var cellSpans []float64
	for _, d := range traced[0].cellSpans {
		cellSpans = append(cellSpans, d.Seconds())
	}
	imageS := 0.0
	if cellSpans != nil {
		imageS = sp.prewarm.Seconds() // the images the runner builds, timed in the system pass
	}
	set("experiments.cell_p50_s", median(cellSpans))
	set("experiments.cell_max_s", maxOf(cellSpans))
	set("experiments.image_s", imageS)

	var memHits, diskHits, r429, requests int
	var missMS, hitUS []float64
	for _, r := range traced {
		if r.serve == nil {
			continue
		}
		for _, d := range r.ops {
			hitUS = append(hitUS, float64(d.Nanoseconds())/1e3)
		}
		requests += r.attempted
		memHits += r.serve.memHits
		diskHits += r.serve.diskHits
		r429 += r.serve.r429
		for _, d := range r.serve.misses {
			missMS = append(missMS, float64(d.Nanoseconds())/1e6)
		}
	}
	storeUS, handlerUS, hitSim := 0.0, 0.0, 0.0
	if sv, ok := b.(*serveBench); ok {
		if storeUS, err = sv.storeGetUS(); err != nil {
			return nil, err
		}
		if handlerUS, err = sv.handlerP50US(); err != nil {
			return nil, err
		}
		hitSim = folded.hitSim
	}
	set("serve.mem_hit_frac", ratio(float64(memHits), float64(requests)))
	set("serve.disk_hit_frac", ratio(float64(diskHits), float64(requests)))
	set("serve.store_get_us", storeUS)
	set("serve.rejects_429", float64(r429))
	set("serve.handler_p50_us", handlerUS)
	sort.Float64s(hitUS)
	set("serve.hit_p99_us", percentile(hitUS, 0.99))
	set("serve.miss_p50_ms", median(missMS))
	set("serve.hit_sim_share", hitSim)

	var gcCycles, gcPauseMS []float64
	var mallocs, accesses uint64
	for _, r := range base {
		gcCycles = append(gcCycles, float64(r.gcCycles))
		gcPauseMS = append(gcPauseMS, float64(r.gcPause.Nanoseconds())/1e6)
		mallocs += r.mallocs
		accesses += r.accesses
	}
	set("runtime.gc_cycles", median(gcCycles))
	set("runtime.gc_pause_ms", median(gcPauseMS))
	set("runtime.mallocs_per_access", ratio(float64(mallocs), float64(accesses)))

	set("check.digest_drift", float64(drift))
	set("check.fail_frac", ratio(float64(rep.Failed), float64(rep.Attempted)))
	// Overhead in CPU time, the basis of cpu_s.
	var baseCPU, tracedCPU []float64
	for _, r := range base {
		baseCPU = append(baseCPU, r.cpu.Seconds())
	}
	for _, r := range traced {
		tracedCPU = append(tracedCPU, r.cpu.Seconds())
	}
	set("trace.overhead_frac", median(tracedCPU)/median(baseCPU)-1)
	fmt.Printf("workload %s seed %d traced: %d untraced and %d traced rounds, %d profiled samples folded, replay check on cell %d\n",
		o.workload, o.seed, len(base), len(traced), folded.samples, i)
	return rep, nil
}
