package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"

	"tdram/internal/mem"
	"tdram/internal/system"
)

// recorded holds the digest of every cell and serve document the
// benchmark can produce, keyed by cellKey / docKey. Regenerate it with
// `go run . --record digests.json` from this directory after a change
// that is meant to alter simulated results.
//
//go:embed digests.json
var recorded []byte

type digestTable map[string]string

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(recorded, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

// matches reports whether got is the recorded digest for key. An input
// without a record does not match: every input a run can draw must be
// recorded.
func (t digestTable) matches(key, got string) bool {
	want, ok := t[key]
	return ok && want == got
}

// cellKey names a cell by everything its result depends on.
func cellKey(cfg system.Config) string {
	return fmt.Sprintf("cell|%s|%v|cap=%d|req=%d|warm=%d|seed=%d",
		cfg.Workload.Name, cfg.Cache.Design, cfg.Cache.CapacityBytes,
		cfg.RequestsPerCore, cfg.WarmupPerCore, cfg.Seed)
}

// resultDigest fingerprints a cell's simulated result: runtime,
// accesses, outcome counts, traffic bytes, the tag-check mean and the
// energy total, floats by their exact bits.
func resultDigest(r *system.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "runtime=%d accesses=%d\n", r.Runtime, r.Accesses)
	for o := 0; o < mem.NumOutcomes; o++ {
		fmt.Fprintf(h, "outcome%d=%d\n", o, r.Cache.Outcomes.Count(mem.Outcome(o)))
	}
	fmt.Fprintf(h, "traffic=%+v\n", r.Cache.Traffic)
	fmt.Fprintf(h, "tagcheck=%d/%x\n", r.Cache.TagCheck.N(), math.Float64bits(r.Cache.TagCheck.Value()))
	fmt.Fprintf(h, "energy=%x\n", math.Float64bits(r.Energy.Total()))
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// docDigest fingerprints the cells of a served result document.
func docDigest(cells []byte) string {
	sum := sha256.Sum256(cells)
	return hex.EncodeToString(sum[:8])
}

// recordDigests recomputes every digest the benchmark checks and
// writes them to path.
func recordDigests(path string) error {
	seen := map[string]bool{}
	var cells []system.Config
	add := func(cfgs []system.Config) {
		for _, cfg := range cfgs {
			if k := cellKey(cfg); !seen[k] {
				seen[k] = true
				cells = append(cells, cfg)
			}
		}
	}
	table := digestTable{}
	for _, size := range []string{"full", "tiny"} {
		add(matrixCells(matrixScale(size)))
		for s := uint64(0); s < cellSeeds; s++ {
			for _, pair := range [][]string{readHeavy, writeHeavy} {
				cfgs, err := coldCells(size, s, pair...)
				if err != nil {
					return err
				}
				add(cfgs)
			}
		}
		sv, err := startServe(options{size: size, seed: 1})
		if err != nil {
			return err
		}
		add(sv.missCells())
		for name, cells := range sv.setupDocs {
			table[docKey(size, name)] = docDigest(cells)
		}
		missCells, err := sv.submitMiss()
		if err != nil {
			sv.close()
			return err
		}
		table[docKey(size, sv.miss.Workloads[0])] = docDigest(missCells)
		if err := sv.close(); err != nil {
			return err
		}
	}

	// Two workers: the reference host in baseline.json has two cores.
	var mu sync.Mutex
	var firstErr error
	next := make(chan system.Config)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cfg := range next {
				res, err := system.Run(cfg)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", cellKey(cfg), err)
				} else if err == nil {
					table[cellKey(cfg)] = resultDigest(res)
				}
				mu.Unlock()
			}
		}()
	}
	for _, cfg := range cells {
		next <- cfg
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	out, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
