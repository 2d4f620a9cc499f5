package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hierclust/pkg/hierclust"
	"hierclust/pkg/hierclust/serve"
)

// The serve-mix cycle: ten requests over one keep-alive connection, eight
// answered by the result LRU, one by the trace cache, one by nobody.
var serveCycle = [10]string{"hit", "hit", "hit", "hit", "trace-hit", "hit", "hit", "hit", "hit", "miss"}

const (
	serveHitsPerCycle = 8
	servePPN          = 4
	traceCacheEntries = 64
)

// serveWL is serve-mix: op = one POST /v1/evaluate to an in-process hcserve
// (memory trace cache, result LRU, no disk tier, default admission).
type serveWL struct {
	sc     scale
	seed   uint64
	mem    *hierclust.MemoryTraceCache
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	bare   *hierclust.Pipeline // run_small: the pipeline with no server around it

	hotBody [][]byte // request documents of the hot set
	hotWant [][]byte // the response each got when it was first evaluated
	hotPerm []int    // seed-derived visiting order of the hot set
	tsunami hierclust.Scenario

	// What the requests issued so far must have done to the server's
	// counters; close holds /metrics against it.
	expHits, expMisses, expTraceHits, expInserts int
}

func newServe(seed uint64, sc scale) (w *serveWL, err error) {
	w = &serveWL{sc: sc, seed: seed, mem: hierclust.NewMemoryTraceCache(traceCacheEntries)}
	w.srv = serve.New(serve.Options{
		Pipeline:  hierclust.NewPipeline(hierclust.WithWorkers(1), hierclust.WithTraceCache(w.mem)),
		CacheSize: sc.serveLRU,
	})
	w.ts = httptest.NewServer(w.srv)
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	w.bare = hierclust.NewPipeline(hierclust.WithWorkers(1))
	defer func() {
		if err != nil {
			w.shutdown()
		}
	}()

	// The hot set: every document is evaluated once (a miss) and its
	// response kept; a later hit must return the same bytes.
	for j := 0; j < sc.serveHot; j++ {
		s := w.synthetic(fmt.Sprintf("hot/%d", j), sc.serveHotRanks,
			50+int(mix64(seed, streamServe, uint64(j))%100), 1024+int64(j))
		body, err := hierclust.EncodeScenario(s)
		if err != nil {
			return nil, err
		}
		class, resp, err := w.post(body)
		if err != nil || class != "miss" {
			return nil, fmt.Errorf("hot document %d: class %q: %v", j, class, err)
		}
		w.account("miss")
		w.hotBody = append(w.hotBody, body)
		w.hotWant = append(w.hotWant, resp)
	}
	w.hotPerm = make([]int, sc.serveHot)
	for i := range w.hotPerm {
		w.hotPerm[i] = i
	}
	for i := len(w.hotPerm) - 1; i > 0; i-- {
		j := mix64(seed, streamServe, 1<<20+uint64(i)) % uint64(i+1)
		w.hotPerm[i], w.hotPerm[j] = w.hotPerm[j], w.hotPerm[i]
	}

	// The traced-application trace is built once, after the hot set so that
	// it is the trace cache's newest entry; every cycle touches it again.
	w.tsunami = hierclust.Scenario{
		Name:      "tsunami",
		Machine:   hierclust.MachineSpec{Model: "tsubame2", Nodes: 8},
		Placement: hierclust.PlacementSpec{Policy: "block", Ranks: 64, ProcsPerNode: 8},
		Trace:     hierclust.TraceSpec{Source: "tsunami", Iterations: 20},
		Strategies: []hierclust.StrategySpec{
			{Kind: "naive", Size: 8},
			{Kind: "hierarchical"},
		},
	}
	body, err := hierclust.EncodeScenario(&w.tsunami)
	if err != nil {
		return nil, err
	}
	if class, _, err := w.post(body); err != nil || class != "miss" {
		return nil, fmt.Errorf("tsunami pre-warm: class %q: %v", class, err)
	}
	w.account("miss")

	for i := 0; i < sc.serveWarmCycles; i++ {
		if _, failed := w.step(-1-i, nil); failed != 0 {
			return nil, fmt.Errorf("warm-up cycle %d: %d requests failed their check", i, failed)
		}
	}
	return w, nil
}

func (w *serveWL) synthetic(name string, ranks, iterations int, bytesPerMsg int64) *hierclust.Scenario {
	return &hierclust.Scenario{
		Name:      name,
		Machine:   hierclust.MachineSpec{Model: "tsubame2", Nodes: ranks / servePPN},
		Placement: hierclust.PlacementSpec{Policy: "block", Ranks: ranks, ProcsPerNode: servePPN},
		Trace: hierclust.TraceSpec{
			Source: "synthetic", Pattern: "stencil2d", Iterations: iterations, BytesPerMsg: bytesPerMsg,
		},
		Strategies: []hierclust.StrategySpec{
			{Kind: "naive", Size: 32},
			{Kind: "hierarchical"},
		},
	}
}

// traceHitScenario shares the pre-warmed tsunami trace but carries a mix no
// earlier request had, so the result LRU misses and only the (dense-matrix)
// evaluation runs.
func (w *serveWL) traceHitScenario(idx int) *hierclust.Scenario {
	s := w.tsunami
	s.Name = fmt.Sprintf("tsunami/%d", idx)
	s.Mix = &hierclust.MixSpec{
		Transient: 0.05 + float64(idx)*1e-7 + float64(w.seed%1000)*1e-11,
		NodeLoss:  []float64{0.9429, 6.3e-3, 6.6e-4, 6.6e-5},
	}
	return &s
}

// missScenario has a bytes_per_msg no earlier request had: a new trace, a
// full pipeline run, an LRU insert and — once the LRU is full — an eviction.
func (w *serveWL) missScenario(idx int) *hierclust.Scenario {
	return w.synthetic(fmt.Sprintf("cold/%d", idx), w.sc.serveMissRanks,
		50+int(w.seed%100), 1<<20+int64(idx))
}

// request returns the body and, for a hit, the expected response of
// position k of cycle idx.
func (w *serveWL) request(idx, k int) (body, want []byte, err error) {
	switch serveCycle[k] {
	case "trace-hit":
		body, err = hierclust.EncodeScenario(w.traceHitScenario(idx))
		return body, nil, err
	case "miss":
		body, err = hierclust.EncodeScenario(w.missScenario(idx))
		return body, nil, err
	}
	// Hits walk the hot set in permutation order, so each document comes
	// round every serveHot/8 cycles and is never the LRU's oldest entry.
	hitNo := k
	if k > 4 {
		hitNo = k - 1
	}
	n := len(w.hotPerm)
	h := w.hotPerm[((idx*serveHitsPerCycle+hitNo)%n+n)%n]
	return w.hotBody[h], w.hotWant[h], nil
}

// post sends one document and returns the cache class the server reported
// and the response body.
func (w *serveWL) post(body []byte) (class string, resp []byte, err error) {
	r, err := w.client.Post(w.ts.URL+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	if err != nil {
		return "", nil, err
	}
	if r.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("status %d: %s", r.StatusCode, resp)
	}
	return r.Header.Get("X-Hierclust-Cache"), resp, nil
}

// account records what a request of the given class does to the counters.
func (w *serveWL) account(class string) {
	switch class {
	case "hit":
		w.expHits++
	case "trace-hit":
		w.expMisses++
		w.expTraceHits++
		w.expInserts++
	case "miss":
		w.expMisses++
		w.expInserts++
	}
}

// cycle sends the ten requests of unit idx through do, which times each.
func (w *serveWL) cycle(idx int, do func(class string, fn func())) (failed int) {
	for k, want := range serveCycle {
		body, wantResp, err := w.request(idx, k)
		if err != nil {
			failed++
			continue
		}
		var class string
		var resp []byte
		do(want, func() { class, resp, err = w.post(body) })
		w.account(want)
		if err != nil || class != want || (wantResp != nil && !bytes.Equal(resp, wantResp)) {
			failed++
		}
	}
	return failed
}

func (w *serveWL) step(idx int, lat []time.Duration) ([]time.Duration, int) {
	failed := w.cycle(idx, func(_ string, fn func()) {
		t0 := time.Now()
		fn()
		lat = append(lat, time.Since(t0))
	})
	return lat, failed
}

func (w *serveWL) opSpans() []string { return []string{"serve.hit", "serve.trace-hit", "serve.miss"} }

func (w *serveWL) input(idx int) ([]byte, string) {
	var all []byte
	for k := range serveCycle {
		body, _, _ := w.request(idx, k)
		all = append(all, body...)
	}
	return all, strings.Join(serveCycle[:], ",")
}

// traced sends the cycle with a client-side span per request, then times
// the layers under a request on their own: document decode, cache key, the
// trace-cache lookup, the handler without the network, and the cold-class
// pipeline run without the server.
func (w *serveWL) traced(idx int, tr *tracer) (int, int) {
	failed := 0
	tr.do("serve.unit", idx, false, func() {
		tr.do("serve.cycle", idx, false, func() {
			failed = w.cycle(idx, func(class string, fn func()) { tr.do("serve."+class, idx, false, fn) })
		})
		tr.do("serve.split", idx, false, func() {
			body, _, _ := w.request(idx, 0)
			var s *hierclust.Scenario
			var err error
			tr.do("pipeline.decode", idx, false, func() { s, err = hierclust.DecodeScenario(body) })
			if err != nil {
				failed++
				return
			}
			tr.do("pipeline.cachekey", idx, false, func() { _, err = s.CacheKey() })
			key, _ := w.tsunami.TraceKey()
			ok := false
			tr.do("pipeline.tracecache_get", idx, false, func() { _, ok = w.mem.Get(key) })
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body))
			tr.do("serve.handler_hit", idx, false, func() { w.srv.ServeHTTP(rec, req) })
			w.account("hit")
			if err != nil || !ok || rec.Header().Get("X-Hierclust-Cache") != "hit" {
				failed++
			}
			tr.do("pipeline.run_small", idx, false, func() {
				_, err = w.bare.Run(context.Background(), w.missScenario(idx))
			})
			if err != nil {
				failed++
			}
		})
	})
	return len(serveCycle), failed
}

// counters reads the server's own counters from GET /metrics.
func (w *serveWL) counters() (map[string]float64, error) {
	r, err := w.client.Get(w.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	names := map[string]string{
		"hcserve_result_cache_hits_total":         "serve.result_hits",
		"hcserve_result_cache_misses_total":       "serve.result_misses",
		`hcserve_cache_hits_total{cache="trace"}`: "serve.trace_hits",
		"hcserve_result_cache_evictions_total":    "serve.evictions",
		"hcserve_shed_total":                      "serve.shed",
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		series, value, ok := strings.Cut(sc.Text(), " ")
		if name, known := names[series]; ok && known {
			if out[name], err = strconv.ParseFloat(value, 64); err != nil {
				return nil, fmt.Errorf("/metrics: %s: %w", series, err)
			}
		}
	}
	return out, sc.Err()
}

// expected is what the schedule says the counters must read.
func (w *serveWL) expected() map[string]float64 {
	evictions := w.expInserts - w.sc.serveLRU
	if evictions < 0 {
		evictions = 0
	}
	return map[string]float64{
		"serve.result_hits":   float64(w.expHits),
		"serve.result_misses": float64(w.expMisses),
		"serve.trace_hits":    float64(w.expTraceHits),
		"serve.evictions":     float64(evictions),
		"serve.shed":          0,
	}
}

func (w *serveWL) layers(tr *tracer, out map[string]float64) error {
	for span, name := range map[string]string{
		"serve.hit": "serve.hit_ms", "serve.trace-hit": "serve.tracehit_ms", "serve.miss": "serve.miss_ms",
		"serve.handler_hit": "serve.handler_hit_ms", "pipeline.decode": "pipeline.decode_ms",
		"pipeline.cachekey": "pipeline.cachekey_ms", "pipeline.tracecache_get": "pipeline.tracecache_get_ms",
		"pipeline.run_small": "pipeline.run_small_ms",
	} {
		out[name] = tr.medianMS(span)
	}
	out["serve.net_ms"] = out["serve.hit_ms"] - out["serve.handler_hit_ms"]
	out["serve.miss_overhead_ms"] = out["serve.miss_ms"] - out["pipeline.run_small_ms"]

	// Allocations of the hit path inside the handler, over a batch so the
	// two MemStats reads do not show.
	const batch = 200
	var m0, m1 runtime.MemStats
	body := w.hotBody[0]
	recs := make([]*httptest.ResponseRecorder, batch)
	reqs := make([]*http.Request, batch)
	for i := range reqs {
		recs[i] = httptest.NewRecorder()
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body))
	}
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		w.srv.ServeHTTP(recs[i], reqs[i])
		w.account("hit")
	}
	runtime.ReadMemStats(&m1)
	out["serve.hit_allocs"] = float64(m1.Mallocs-m0.Mallocs) / batch

	counts, err := w.counters()
	if err != nil {
		return err
	}
	for name, v := range counts {
		out[name] = v
	}
	return w.diskTier(out)
}

// diskTier times the durable result tier that serve-mix leaves off: Put and
// Get of result documents under a scratch directory. It syncs to disk, so
// it is not gated.
func (w *serveWL) diskTier(out map[string]float64) error {
	if err := os.MkdirAll(w.sc.scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.sc.scratch, "disktier-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := hierclust.NewDiskResultCache(dir, 0)
	if err != nil {
		return err
	}
	var put, get []float64
	for i := 0; i < w.sc.diskDocs; i++ {
		key := fmt.Sprintf("doc/%d", i)
		doc := w.hotWant[i%len(w.hotWant)]
		t0 := time.Now()
		cache.Put(key, doc)
		put = append(put, ms(time.Since(t0)))
	}
	for i := 0; i < w.sc.diskDocs; i++ {
		t0 := time.Now()
		doc, ok := cache.Get(fmt.Sprintf("doc/%d", i))
		get = append(get, ms(time.Since(t0)))
		if !ok || !bytes.Equal(doc, w.hotWant[i%len(w.hotWant)]) {
			return fmt.Errorf("disk result tier lost document %d", i)
		}
	}
	out["diskstore.result_put_ms"] = median(put)
	out["diskstore.result_get_ms"] = median(get)
	return nil
}

func (w *serveWL) shutdown() {
	w.client.CloseIdleConnections()
	w.ts.Close()
}

// close holds the server's counters against the schedule: a hot document
// evicted, a request shed or a cache level answering out of turn shows here
// even if every single response looked right.
func (w *serveWL) close() error {
	defer w.shutdown()
	got, err := w.counters()
	if err != nil {
		return err
	}
	for name, want := range w.expected() {
		if got[name] != want {
			return fmt.Errorf("%s = %v, the schedule says %v", name, got[name], want)
		}
	}
	return nil
}
