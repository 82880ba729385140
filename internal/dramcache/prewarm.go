package dramcache

import "fmt"

// This file lets the warmup-image fork share prewarmed DRAM-cache
// content across designs. Controller.Prewarm evolves the tag store
// purely functionally — tagStore.prewarm, no timing, no device state —
// and the resulting content depends only on the store's geometry
// (capacity, ways) and the access sequence, never on the design's
// protocol. A Prewarmer applies that exact transition function outside
// any controller, so one prewarm pass per workload produces a TagImage
// every same-geometry design cell installs instead of replaying the
// pass itself.

// TagImage is a frozen copy of prewarmed cache content. It is immutable
// after Image() returns: installs copy it, so any number of controllers
// can start from the same image.
type TagImage struct {
	sets    uint64
	ways    int
	lines   []uint64 // packed line words, as in tagStore
	lru     []uint64 // nil when ways == 1, as in tagStore
	lruTick uint64
}

// Prewarmer accumulates functional prewarm accesses against a private
// tag store with the same geometry a controller would build.
type Prewarmer struct {
	t *tagStore
}

// NewPrewarmer builds a prewarmer for a cache of capacityBytes split
// into ways (matching Config.CapacityBytes/Config.Ways; a zero ways
// selects the paper's direct-mapped default like Config.Validate does).
func NewPrewarmer(capacityBytes uint64, ways int) (*Prewarmer, error) {
	if ways == 0 {
		ways = 1
	}
	t, err := newTagStore(capacityBytes, ways)
	if err != nil {
		return nil, err
	}
	return &Prewarmer{t: t}, nil
}

// Prewarm applies one functional access — the same transition
// Controller.Prewarm performs: insert on miss, fill assumed done,
// victims dropped.
func (p *Prewarmer) Prewarm(line uint64, write bool) { p.t.prewarm(line, write) }

// Image freezes the current content into an immutable TagImage.
func (p *Prewarmer) Image() *TagImage { return p.t.image() }

// image copies the store's content into a new TagImage.
//
//tdlint:copier TagImage
func (t *tagStore) image() *TagImage {
	img := &TagImage{
		sets:    t.sets,
		ways:    t.ways,
		lines:   append([]uint64(nil), t.lines...),
		lruTick: t.lruTick,
	}
	if t.lru != nil {
		img.lru = append([]uint64(nil), t.lru...)
	}
	return img
}

// install overwrites the store's content with a copy of the image, which
// must have the store's geometry.
func (t *tagStore) install(img *TagImage) error {
	if img.sets != t.sets || img.ways != t.ways {
		return fmt.Errorf("dramcache: tag image geometry %d sets x %d ways, controller has %d x %d",
			img.sets, img.ways, t.sets, t.ways)
	}
	copy(t.lines, img.lines)
	copy(t.lru, img.lru)
	t.lruTick = img.lruTick
	return nil
}

// InstallTags overwrites the controller's cache content with a copy of
// the image. It fails if the image's geometry does not match the
// controller's tag store — the caller then falls back to replaying
// prewarm. Installing into a NoCache controller (which has no tag
// store) is a no-op. Must be called before any traffic: installed
// content replaces whatever the store held.
func (c *Controller) InstallTags(img *TagImage) error {
	if c.tags == nil {
		return nil
	}
	return c.tags.install(img)
}
