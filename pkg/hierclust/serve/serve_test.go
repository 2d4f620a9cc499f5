package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"hierclust/internal/racedetect"
	"hierclust/pkg/hierclust"
)

const testScenario = `{
	"name": "serve-test",
	"machine": {"nodes": 16},
	"placement": {"ranks": 64, "procs_per_node": 4},
	"trace": {"source": "synthetic", "iterations": 10},
	"strategies": [{"kind": "naive", "size": 8}, {"kind": "hierarchical"}]
}`

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{CacheSize: 4})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestEvaluateEndpoint(t *testing.T) {
	s, ts := newTestServer(t)

	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(testScenario))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Hierclust-Cache"); got != "miss" {
		t.Fatalf("first request cache header = %q, want miss", got)
	}
	var res hierclust.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "serve-test" || len(res.Evaluations) != 2 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if res.Evaluations[0].Strategy != "naive-8" {
		t.Fatalf("first evaluation = %q, want naive-8", res.Evaluations[0].Strategy)
	}

	// Identical scenario → cache hit with identical bytes.
	resp2, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(testScenario))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if got := resp2.Header.Get("X-Hierclust-Cache"); got != "hit" {
		t.Fatalf("second request cache header = %q, want hit", got)
	}
	hits, misses, size := s.CacheStats()
	if hits != 1 || misses != 1 || size != 1 {
		t.Fatalf("cache stats = %d hits / %d misses / %d entries, want 1/1/1", hits, misses, size)
	}
}

func TestEvaluateRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", "{nope", http.StatusBadRequest},
		{"unknown field", `{"name":"x","machne":{}}`, http.StatusBadRequest},
		{"no strategies", `{"name":"x","machine":{"nodes":4},"placement":{"ranks":16,"procs_per_node":4},"trace":{"source":"synthetic"},"strategies":[]}`, http.StatusBadRequest},
		// The partitioner's tuning knobs are not part of the schema.
		{"multilevel tuning knob", `{"name":"x","machine":{"nodes":4},"placement":{"ranks":16,"procs_per_node":4},"trace":{"source":"synthetic"},"strategies":[{"kind":"hierarchical","hier":{"multilevel":true,"coarsen_threshold":64}}]}`, http.StatusBadRequest},
		{"negative hier field", `{"name":"x","machine":{"nodes":4},"placement":{"ranks":16,"procs_per_node":4},"trace":{"source":"synthetic"},"strategies":[{"kind":"hierarchical","hier":{"min_nodes_per_l1":-3}}]}`, http.StatusBadRequest},
		{"paired max below paired min", `{"name":"x","machine":{"nodes":16},"placement":{"ranks":64,"procs_per_node":4},"trace":{"source":"synthetic"},"strategies":[{"kind":"hierarchical","hier":{"align_power_pairs":true,"min_nodes_per_l1":5,"max_nodes_per_l1":5}}]}`, http.StatusBadRequest},
		{"file source over HTTP", `{"name":"x","machine":{"nodes":4},"placement":{"ranks":16,"procs_per_node":4},"trace":{"source":"file","path":"/etc/passwd"},"strategies":[{"kind":"hierarchical"}]}`, http.StatusBadRequest},
		// Validates but cannot build: 1024 ranks at 4/node exceed 4 nodes.
		{"unbuildable placement", `{"name":"x","machine":{"model":"tsubame2"},"placement":{"ranks":99999,"procs_per_node":4},"trace":{"source":"synthetic"},"strategies":[{"kind":"hierarchical"}]}`, http.StatusUnprocessableEntity},
		// Validates but cannot build: the pair volume alone is 2^63, and a
		// wrapped total would score a logged fraction of 0.
		{"synthetic volume past int64", `{"name":"x","machine":{"nodes":256},"placement":{"ranks":1024,"procs_per_node":4},"trace":{"source":"synthetic","pattern":"stencil2d","iterations":2147483648,"bytes_per_msg":4294967296},"strategies":[{"kind":"hierarchical"}]}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("error body missing: %v (%v)", e, err)
			}
		})
	}
}

// TestEvaluateUnknownKindBody: a strategy kind outside the four answers 400
// with the message that lists them, byte for byte.
func TestEvaluateUnknownKindBody(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postEvaluate(t, ts.URL, `{"name":"x","machine":{"nodes":4},"placement":{"ranks":16,"procs_per_node":4},
		"trace":{"source":"synthetic"},"strategies":[{"kind":"hierarchical"},{"kind":"magic"}]}`)
	const want = `{"error":"hierclust: scenario \"x\": strategy 1: hierclust: unknown strategy kind \"magic\" (have [distributed hierarchical naive size-guided])"}`
	if resp.StatusCode != http.StatusBadRequest || strings.TrimSpace(string(body)) != want {
		t.Fatalf("unknown kind: %d %s, want 400 %s", resp.StatusCode, body, want)
	}
}

// TestOversizedScenario422 is the live repro of a rank count the pipeline
// cannot allocate: 2^30 ranks once passed validation, and the 8 GiB L1 array
// it asked for was a runtime fatal no recover boundary catches. Evaluate, a
// batch element and a sweep with such a machines axis answer 422 before
// anything is built, and the same server then answers a normal request.
func TestOversizedScenario422(t *testing.T) {
	_, ts := newTestServer(t)
	huge := `{"name":"huge","machine":{"nodes":268435456},"placement":{"ranks":1073741824,"procs_per_node":4},
		"trace":{"source":"synthetic"},"strategies":[{"kind":"naive"}]}`
	sweep := `{"name":"huge-sweep","base":{"name":"b","machine":{"nodes":16},
		"placement":{"ranks":64,"procs_per_node":4},"trace":{"source":"synthetic"},
		"strategies":[{"kind":"naive","size":8}]},
		"axes":{"machines":[{"nodes":16},{"nodes":16,"ranks":1073741824}]}}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/evaluate", huge},
		{"/v1/sweeps", sweep},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity || err != nil || !strings.Contains(e.Error, "exceeds the bound 4194304") {
			t.Fatalf("%s: status %d, error %q (%v); want 422 naming the rank bound", tc.path, resp.StatusCode, e.Error, err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/evaluate-batch", "application/json", strings.NewReader("["+huge+"]"))
	if err != nil {
		t.Fatal(err)
	}
	var line CellLine
	err = json.NewDecoder(resp.Body).Decode(&line)
	resp.Body.Close()
	if err != nil || line.Status != http.StatusUnprocessableEntity {
		t.Fatalf("batch element: %+v (%v); want status 422", line, err)
	}
	if resp, err = http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(testScenario)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal request after the rejections: status %d, want 200", resp.StatusCode)
	}
}

func TestScenariosAndHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var scenarios []hierclust.Scenario
	if err := json.NewDecoder(resp.Body).Decode(&scenarios); err != nil {
		t.Fatal(err)
	}
	if len(scenarios) == 0 {
		t.Fatal("no built-in scenarios listed")
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", hresp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz body: %v (%v)", h, err)
	}
}

// A nil *DiskResultCache in Options.ResultCache is no tier: requests and
// /healthz answer 200, and /healthz carries no result_cache object.
func TestNilResultCacheMountsNoTier(t *testing.T) {
	ts := httptest.NewServer(New(Options{ResultCache: (*hierclust.DiskResultCache)(nil)}))
	defer ts.Close()
	for i := 0; i < 2; i++ { // a miss, then a hit
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(testScenario))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/evaluate #%d = %d, want 200", i+1, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d (decode err %v), want 200", resp.StatusCode, err)
	}
	if rc, ok := health["result_cache"]; ok {
		t.Fatalf("healthz carries result_cache %s with no tier mounted", rc)
	}
}

// TestEvaluateFastPath pins that answering a resident result from the
// body's compact form changes no response and no count: every form of one
// scenario gets the same bytes, each request moves the result-cache
// counters by exactly one, and a body that is not resident, or that fails
// to decode, is answered as the decode path answers it.
func TestEvaluateFastPath(t *testing.T) {
	s := New(Options{CacheSize: 2})
	sc, err := hierclust.DecodeScenario([]byte(testScenario))
	if err != nil {
		t.Fatal(err)
	}
	pretty, err := hierclust.EncodeScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, pretty); err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(pretty, &fields); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(fields) // keys sorted: not the struct's order
	if err != nil {
		t.Fatal(err)
	}
	counts := func() (hits, misses string) {
		c := cacheCounters(t, s)
		return c["hcserve_result_cache_hits_total"], c["hcserve_result_cache_misses_total"]
	}
	post := func(body, wantCache, wantHits, wantMisses string) []byte {
		t.Helper()
		rec := serveRecorded(s, context.Background(), http.MethodPost, "/v1/evaluate", body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Hierclust-Cache") != wantCache {
			t.Fatalf("%.40s…: %d %q, want 200 %q: %s", body, rec.Code, rec.Header().Get("X-Hierclust-Cache"), wantCache, rec.Body)
		}
		if hits, misses := counts(); hits != wantHits || misses != wantMisses {
			t.Fatalf("%.40s…: result hits/misses %s/%s, want %s/%s", body, hits, misses, wantHits, wantMisses)
		}
		return rec.Body.Bytes()
	}

	// (a) A document the decode path refuses is refused every time.
	file := `{"name":"x","machine":{"nodes":4},"placement":{"ranks":16,"procs_per_node":4},"trace":{"source":"file","path":"/etc/passwd"},"strategies":[{"kind":"hierarchical"}]}`
	for i := range 2 {
		if rec := serveRecorded(s, context.Background(), http.MethodPost, "/v1/evaluate", file); rec.Code != http.StatusBadRequest {
			t.Fatalf("file source, request %d: %d, want 400", i+1, rec.Code)
		}
	}
	if hits, misses := counts(); hits != "0" || misses != "0" {
		t.Fatalf("refused documents counted result hits/misses %s/%s, want 0/0", hits, misses)
	}

	// (b) The pretty, compact and reordered forms share one entry and one
	// answer; (d) so does the version-less original, through the decode path.
	want := post(string(pretty), "miss", "0", "1")
	for i, body := range []string{compact.String(), string(reordered), testScenario, string(pretty)} {
		if got := post(body, "hit", strconv.Itoa(i+1), "1"); !bytes.Equal(got, want) {
			t.Fatalf("form %d answers\n%s\nwant\n%s", i, got, want)
		}
	}

	// (c) Evicted, the compact form is evaluated once and resident again.
	for _, name := range []string{"evict-a", "evict-b"} {
		if rec := serveRecorded(s, context.Background(), http.MethodPost, "/v1/evaluate", chaosScenario(name)); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", name, rec.Code)
		}
	}
	if got := post(compact.String(), "miss", "4", "4"); !bytes.Equal(got, want) {
		t.Fatalf("re-evaluated document differs:\n%s\nwant\n%s", got, want)
	}
	post(compact.String(), "hit", "5", "4")
}

// TestEvaluateHitAllocationCount pins the objects one POST /v1/evaluate
// answered from the result LRU allocates inside ServeHTTP, measured over a
// batch of prebuilt requests as hcbench's serve.hit_allocs is. The body is
// found by its compact form, so no scenario is decoded and no key rendered.
// What remains is net/http's and the wrapper's:
//   - the body slice readBody fills (1);
//   - the statusWriter that instrument wraps the response in (1);
//   - the two header values Header().Set stores and the header map's first
//     group (3);
//   - on Write, the recorder's copy of the headers (3) and the growth of its
//     body buffer (1); a live connection writes into its bufio.Writer.
//
// Decoding the scenario would add about thirty.
func TestEvaluateHitAllocationCount(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	s := New(Options{CacheSize: 4})
	sc, err := hierclust.DecodeScenario([]byte(testScenario))
	if err != nil {
		t.Fatal(err)
	}
	body, err := hierclust.EncodeScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The fewest objects over a few batches: a goroutine an earlier test
	// left behind may allocate during one.
	const batch, rounds = 100, 5
	recs := make([]*httptest.ResponseRecorder, batch*rounds+1)
	reqs := make([]*http.Request, len(recs))
	for i := range reqs {
		recs[i] = httptest.NewRecorder()
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body))
	}
	// One P and no collection, set before the warm-up: a collection or a
	// new P count would empty the buffer pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s.ServeHTTP(recs[len(recs)-1], reqs[len(reqs)-1]) // the miss that makes it resident
	got := math.Inf(1)
	for r := range rounds {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := r * batch; i < (r+1)*batch; i++ {
			s.ServeHTTP(recs[i], reqs[i])
		}
		runtime.ReadMemStats(&m1)
		got = min(got, float64(m1.Mallocs-m0.Mallocs)/batch)
	}
	for i := range batch * rounds {
		if recs[i].Code != http.StatusOK || recs[i].Header().Get("X-Hierclust-Cache") != "hit" {
			t.Fatalf("request %d: %d %q, want a 200 hit", i, recs[i].Code, recs[i].Header().Get("X-Hierclust-Cache"))
		}
	}
	const bound = 9
	t.Logf("a resident hit allocates %.2f objects (bound %d)", got, bound)
	if got > bound {
		t.Errorf("a resident hit allocates %.2f objects, bound %d", got, bound)
	}
}

// TestReadBodyGrowsLargeDeclaredBodies pins that a body is allocated at its
// declared Content-Length only up to maxSizedBody: a client that declares
// an endpoint's whole limit and drops after one byte costs the server about
// what it sent, not what it declared.
func TestReadBodyGrowsLargeDeclaredBodies(t *testing.T) {
	s := New(Options{})
	for _, c := range []struct {
		path     string
		declared int64
	}{
		{"/v1/evaluate", maxEvaluateBody},
		{"/v1/evaluate-batch", maxBatchBody},
		{"/v1/sweeps", maxBatchBody},
	} {
		body := io.MultiReader(strings.NewReader("{"), iotest.ErrReader(io.ErrUnexpectedEOF))
		r := httptest.NewRequest(http.MethodPost, c.path, body)
		r.ContentLength = c.declared
		rec := httptest.NewRecorder()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s.ServeHTTP(rec, r)
		runtime.ReadMemStats(&m1)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400 for a body cut short: %s", c.path, rec.Code, rec.Body)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got > 4*maxSizedBody {
			t.Errorf("%s: %d bytes allocated for a 1-byte body declaring %d", c.path, got, c.declared)
		}
	}
}
