package system

import (
	"errors"
	"fmt"

	"tdram/internal/cache"
	"tdram/internal/dramcache"
	"tdram/internal/workload"
)

// This file implements the shared-warmup fork. The prewarm phase is
// functional — zero simulated time, no events, no device state — and its
// evolution (workload stream positions, SRAM hierarchy content, DRAM
// cache content) depends only on the workload, seed, core count, and the
// cache geometries, never on the design's timing protocol: every design
// sees the identical access sequence and applies the identical
// insert-on-miss transition. A WarmupImage captures that post-prewarm
// state once per workload; each (design, workload) cell then installs a
// deep copy instead of replaying the prewarm pass, and runs its timed
// warmup + measured phases from there. Because the fork point precedes
// the first timed event, a forked cell's event sequence — and hence its
// Result — is bit-identical to a full-replay cell's.

// ErrIncompatibleImage reports that a WarmupImage cannot seed the given
// configuration (different workload, seed, topology, or cache geometry).
// Callers fall back to a full prewarm replay.
var ErrIncompatibleImage = errors.New("system: warmup image incompatible with config")

// WarmupImage is frozen post-prewarm state shared by every design cell
// of one workload. It is immutable once built: installs deep-copy the
// streams and hierarchies and the controller copies the tag content, so
// concurrent cells can fork from the same image.
type WarmupImage struct {
	// The parameters the prewarm evolution depends on; a config must
	// match all of them for the image to seed it.
	workload string
	cores    int
	seed     uint64
	prewarmN int    // resolved accesses per core (0 when prewarming is disabled)
	capacity uint64 // normalized stream-footprint capacity
	l1, l2   uint64 // normalized SRAM sizes

	streams []*workload.Stream
	hiers   []*cache.Hierarchy
	tags    *dramcache.TagImage // nil when the config has no tag store
}

// normalized applies New's defaulting of the sizing knobs; images record
// and compare the normalized values so an image built from one design's
// config matches another design's.
func (cfg *Config) normalized() (capacity, l1, l2 uint64) {
	capacity = cfg.Cache.CapacityBytes
	if capacity == 0 {
		capacity = 64 << 20
	}
	l1, l2 = cfg.L1Bytes, cfg.L2Bytes
	if l1 == 0 {
		l1 = 4 << 10
	}
	if l2 == 0 {
		l2 = 64 << 10
	}
	return capacity, l1, l2
}

// prewarmCount resolves PrewarmPerCore against a core-0 stream: negative
// disables, zero selects the automatic footprint-doubling default.
func prewarmCount(cfg *Config, s *workload.Stream) int {
	n := cfg.PrewarmPerCore
	if n < 0 {
		return 0
	}
	if n == 0 {
		n = int(2 * s.Lines())
		if n < 4096 {
			n = 4096
		}
	}
	return n
}

// BuildWarmupImage runs the functional prewarm pass once for cfg's
// workload and freezes the result. The image seeds any config that
// matches the workload/seed/topology parameters — in the experiment
// matrix, every design cell of the workload.
//
//tdlint:copier WarmupImage
func BuildWarmupImage(cfg Config) (*WarmupImage, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	capacity, l1, l2 := cfg.normalized()
	img := &WarmupImage{
		workload: cfg.Workload.Name,
		cores:    cfg.Cores,
		seed:     cfg.Seed,
		capacity: capacity,
		l1:       l1,
		l2:       l2,
	}
	var pw *dramcache.Prewarmer
	if cfg.Cache.CapacityBytes > 0 {
		var err error
		if pw, err = dramcache.NewPrewarmer(cfg.Cache.CapacityBytes, cfg.Cache.Ways); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Cores; i++ {
		st := cfg.Workload.NewStream(i, cfg.Cores, capacity, cfg.Seed)
		hier := cache.NewSizedHierarchy(l1, l2)
		if pw != nil {
			// Same hook wiring as a live core while prewarming: dirty L2
			// victims reach Prewarm during the access, before the miss does.
			hier.WriteBack = func(line uint64) { pw.Prewarm(line, true) }
		}
		if i == 0 {
			img.prewarmN = prewarmCount(&cfg, st)
		}
		for a := 0; a < img.prewarmN; a++ {
			line, store, _ := st.Next()
			res := hier.Access(line, store)
			if res.Missed && pw != nil {
				pw.Prewarm(res.MissLine, false)
			}
		}
		hier.WriteBack = nil
		img.streams = append(img.streams, st)
		img.hiers = append(img.hiers, hier)
	}
	if pw != nil {
		img.tags = pw.Image()
	}
	return img, nil
}

// CompatibleWith reports whether the image can seed cfg; the error
// (wrapping ErrIncompatibleImage) names the first mismatched parameter.
func (img *WarmupImage) CompatibleWith(cfg Config) error {
	mismatch := func(what string, img, cfg any) error {
		return fmt.Errorf("%w: %s %v vs %v", ErrIncompatibleImage, what, img, cfg)
	}
	if img.workload != cfg.Workload.Name {
		return mismatch("workload", img.workload, cfg.Workload.Name)
	}
	if img.cores != cfg.Cores {
		return mismatch("cores", img.cores, cfg.Cores)
	}
	if img.seed != cfg.Seed {
		return mismatch("seed", img.seed, cfg.Seed)
	}
	capacity, l1, l2 := cfg.normalized()
	if img.capacity != capacity {
		return mismatch("stream capacity", img.capacity, capacity)
	}
	if img.l1 != l1 || img.l2 != l2 {
		return mismatch("sram sizes", fmt.Sprintf("%d/%d", img.l1, img.l2), fmt.Sprintf("%d/%d", l1, l2))
	}
	// The resolved prewarm length must match; resolving the automatic
	// default needs a throwaway core-0 stream for its footprint.
	n := cfg.PrewarmPerCore
	if n <= 0 {
		n = prewarmCount(&cfg, cfg.Workload.NewStream(0, cfg.Cores, capacity, cfg.Seed))
	}
	if img.prewarmN != n {
		return mismatch("prewarm accesses", img.prewarmN, n)
	}
	if img.tags == nil && cfg.Cache.CapacityBytes > 0 && cfg.Cache.Design != dramcache.NoCache {
		return fmt.Errorf("%w: image has no cache content but config has a tag store", ErrIncompatibleImage)
	}
	return nil
}

// NewWithImage builds the machine like New and seeds it from the image
// instead of leaving prewarm to Run: each core's stream and SRAM
// hierarchy is built as a copy of the image's, the DRAM-cache content is
// installed into the controller (geometry mismatches surface as
// ErrIncompatibleImage), and Run's prewarm pass is skipped.
func NewWithImage(cfg Config, img *WarmupImage) (*System, error) {
	if img == nil {
		return New(cfg)
	}
	if err := img.CompatibleWith(cfg); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return build(cfg, img)
}

// RunWithImage builds from the image and runs in one call.
func RunWithImage(cfg Config, img *WarmupImage) (*Result, error) {
	sys, err := NewWithImage(cfg, img)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}
