package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
	var line BatchLine
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
