package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"tdram/internal/serve"
	"tdram/internal/system"
)

// serve-mixed: an in-process tdserve on a loopback listener over a
// temporary store, driven by a closed loop of two clients sending
// POST /jobs?wait=1. Nine in ten requests repeat a hot set stored during
// set-up; every tenth is a configuration no one has asked for, with a
// fault seed derived from the workload seed, so it must simulate.

const (
	serveClients = 2
	missEvery    = 10
)

// hotWorkloads name the hot set's configurations, one workload each at
// the tdserve loadtest's tiny size: four high-miss workloads, whose 50
// measured accesses per core reach the DRAM cache, so a changed
// simulation changes the stored documents, and four low-miss ones.
var hotWorkloads = []string{"ft.C", "bt.C", "is.D", "lu.C", "pr.25", "cg.C", "mg.C", "bfs.22"}

// missWorkload is the workload of the miss configurations, whose body
// is otherwise the loadtest's default.
const missWorkload = "bt.C"

func tinyRequest(name string) serve.Request {
	return serve.Request{Workloads: []string{name}, CacheMB: 1, RequestsPerCore: 50, WarmupPerCore: 10}
}

type serveBench struct {
	o         options
	perClient int // requests per client per round

	srv    *serve.Server
	hs     *http.Server
	served chan error
	dir    string
	url    string
	client *http.Client

	hot       []serve.Request
	hotBodies [][]byte          // each hot configuration's first response
	setupDocs map[string][]byte // workload -> the cells of its first document
	miss      serve.Request
	misses    uint64 // miss configurations submitted so far
	rounds    uint64

	record     digestTable
	setupDrift int // hot-set documents that differ from the record
}

// serveRound is what one serve-mixed round saw besides its hit latencies.
type serveRound struct {
	misses                  []time.Duration
	memHits, diskHits, r429 int
}

func newServeBench(o options) (bench, error) {
	sv, err := startServe(o)
	if err != nil {
		return nil, err
	}
	if sv.record, err = loadDigests(); err != nil {
		sv.close()
		return nil, err
	}
	for name, cells := range sv.setupDocs {
		if !sv.record.matches(docKey(o.size, name), docDigest(cells)) {
			sv.setupDrift++
		}
	}
	return sv, nil
}

func docKey(size, workload string) string { return "serve|" + size + "|" + workload }

// startServe starts the server and stores the hot set through it.
func startServe(o options) (*serveBench, error) {
	sv := &serveBench{o: o, perClient: 100, served: make(chan error, 1), setupDocs: map[string][]byte{}}
	names := hotWorkloads
	if o.size == "tiny" {
		sv.perClient = 10
		names = names[:2]
	}
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, err
	}
	sv.dir = dir
	// One simulation token leaves the second core to the hit path, so
	// hit latency measures serving rather than the two cores' contention.
	if sv.srv, err = serve.NewServer(serve.Config{Dir: dir, SimTokens: 1}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.srv.Close(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	sv.url = "http://" + ln.Addr().String()
	sv.hs = &http.Server{Handler: sv.srv.Handler()}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	sv.client = &http.Client{Timeout: 2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}

	sv.miss = tinyRequest(missWorkload)
	for k, name := range names {
		req := tinyRequest(name)
		req.FaultSeed = mix(o.seed, uint64(k))
		status, _, body, err := sv.post(req)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("hot-set request %s: status %d", name, status)
		}
		var cells []byte
		if err == nil {
			cells, err = docCells(body)
		}
		if err != nil {
			sv.close()
			return nil, err
		}
		sv.hot = append(sv.hot, req)
		sv.hotBodies = append(sv.hotBodies, body)
		sv.setupDocs[name] = cells
	}
	return sv, nil
}

// mix derives a 64-bit value from a seed and a stream index (splitmix64).
func mix(seed, i uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + i + 0x632BE59BD9B4E019
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// post submits req and waits for the result.
func (sv *serveBench) post(req serve.Request) (status int, tier string, body []byte, err error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := sv.client.Post(sv.url+"/jobs?wait=1", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Tdserve-Cache"), body, err
}

// docCells extracts the cells of a result document.
func docCells(body []byte) ([]byte, error) {
	var doc struct {
		Cells json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("result document: %w", err)
	}
	if len(doc.Cells) == 0 {
		return nil, errors.New("result document has no cells")
	}
	return doc.Cells, nil
}

// nextMiss returns a configuration no earlier request used.
func (sv *serveBench) nextMiss() serve.Request {
	sv.misses++
	req := sv.miss
	req.FaultSeed = mix(sv.o.seed, 1<<32+sv.misses)
	return req
}

// submitMiss sends one miss configuration and returns its cells.
func (sv *serveBench) submitMiss() ([]byte, error) {
	status, _, body, err := sv.post(sv.nextMiss())
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("miss request: status %d", status)
	}
	if err != nil {
		return nil, err
	}
	return docCells(body)
}

// missCells are the simulated cells one miss configuration runs.
func (sv *serveBench) missCells() []system.Config {
	req := sv.miss
	if err := req.Canonicalize(); err != nil {
		panic(fmt.Sprintf("perfbench: miss configuration does not canonicalize: %v", err))
	}
	return matrixCells(req.Scale())
}

func (sv *serveBench) simCells() ([]system.Config, bool) { return sv.missCells(), true }

// sample is one request as a client saw it.
type sample struct {
	d      time.Duration
	miss   bool
	status int
	tier   string
	ok     bool // correct status, tier and body
}

func (sv *serveBench) round(traced bool) *round {
	sv.rounds++
	// Requests are drawn before the round so the clients share no state.
	plan := make([][]serve.Request, serveClients)
	hotIdx := make([][]int, serveClients)
	for c := range plan {
		rng := mix(sv.o.seed, sv.rounds<<8|uint64(c))
		for j := 0; j < sv.perClient; j++ {
			if j%missEvery == missEvery-1 {
				plan[c] = append(plan[c], sv.nextMiss())
				hotIdx[c] = append(hotIdx[c], -1)
				continue
			}
			rng = mix(rng, uint64(j))
			k := int(rng % uint64(len(sv.hot)))
			plan[c] = append(plan[c], sv.hot[k])
			hotIdx[c] = append(hotIdx[c], k)
		}
	}
	missWant := docKey(sv.o.size, sv.miss.Workloads[0])
	samples := make([][]sample, serveClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range plan {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j, req := range plan[c] {
				t := time.Now()
				status, tier, body, err := sv.post(req)
				s := sample{d: time.Since(t), miss: hotIdx[c][j] < 0, status: status, tier: tier}
				if err == nil && status == http.StatusOK {
					if s.miss {
						cells, cerr := docCells(body)
						s.ok = tier == "miss" && cerr == nil && sv.record.matches(missWant, docDigest(cells))
					} else {
						s.ok = (tier == "mem" || tier == "disk") && bytes.Equal(body, sv.hotBodies[hotIdx[c][j]])
					}
				}
				samples[c] = append(samples[c], s)
			}
		}(c)
	}
	wg.Wait()
	r := &round{wall: time.Since(start), serve: &serveRound{}}
	var perMiss uint64
	for _, cfg := range sv.missCells() {
		perMiss += uint64(cfg.Cores * cfg.RequestsPerCore)
	}
	for _, ss := range samples {
		for _, s := range ss {
			r.attempted++
			if !s.ok {
				r.failed++
			}
			switch {
			case s.status == http.StatusTooManyRequests:
				r.serve.r429++
			case s.miss:
				r.serve.misses = append(r.serve.misses, s.d)
				r.accesses += perMiss
			default:
				r.ops = append(r.ops, s.d)
				if s.tier == "mem" {
					r.serve.memHits++
				} else if s.tier == "disk" {
					r.serve.diskHits++
				}
			}
		}
	}
	if sv.setupDrift > 0 {
		// Reported once, with the first round.
		r.drift += sv.setupDrift
		r.failed += sv.setupDrift
		sv.setupDrift = 0
	}
	return r
}

// storeGetUS times Store.GetResult on the hot set directly and returns
// the median in microseconds.
func (sv *serveBench) storeGetUS() (float64, error) {
	var us []float64
	for i := 0; i < 20; i++ {
		for _, req := range sv.hot {
			req := req
			if err := req.Canonicalize(); err != nil {
				return 0, err
			}
			id := req.ID()
			t := time.Now()
			_, ok := sv.srv.Store().GetResult(id)
			us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
			if !ok {
				return 0, fmt.Errorf("hot result %s missing from the store", id)
			}
		}
	}
	return median(us), nil
}

// handlerP50US reads the submit handler's median latency from /metricz.
func (sv *serveBench) handlerP50US() (float64, error) {
	resp, err := sv.client.Get(sv.url + "/metricz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var rows []struct {
		Name  string  `json:"name"`
		P50NS float64 `json:"p50_ns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return 0, fmt.Errorf("/metricz: %w", err)
	}
	for _, row := range rows {
		if row.Name == "http.submit" {
			return row.P50NS / 1e3, nil
		}
	}
	return 0, errors.New("/metricz has no http.submit histogram")
}

func (sv *serveBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var errs []error
	if sv.hs != nil {
		errs = append(errs, sv.hs.Shutdown(ctx))
		if err := <-sv.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, sv.srv.Close(ctx))
	sv.client.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(sv.dir))
	return errors.Join(errs...)
}
