package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"hierclust/internal/faultinject"
	"hierclust/internal/racedetect"
	"hierclust/pkg/hierclust"
)

// chaosScenario is small, synthetic, and parameterized by name so two
// documents can share every input but miss the result cache.
func chaosScenario(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"machine": {"nodes": 16},
		"placement": {"ranks": 64, "procs_per_node": 4},
		"trace": {"source": "synthetic", "iterations": 10},
		"strategies": [{"kind": "hierarchical"}]
	}`, name)
}

func postEvaluate(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeDegradedResultCacheBitIdentical is the degraded-tier drill:
// with every disk write of the result cache failing, hcserve must keep
// serving — results bit-identical to a server with no disk tier at all —
// put the tier in degraded mode, answer a repeated document from the
// result LRU above the tier, and surface the mode on /healthz and
// /metrics.
func TestServeDegradedResultCacheBitIdentical(t *testing.T) {
	defer faultinject.DisarmAll()
	dir := t.TempDir()
	rc, err := hierclust.NewDiskResultCache(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// The memory trace cache is what hcserve mounts by default; it reports
	// no health.
	pl := hierclust.NewPipeline(hierclust.WithTraceCache(hierclust.NewMemoryTraceCache(4)))
	ts := httptest.NewServer(New(Options{Pipeline: pl, ResultCache: rc}))
	defer ts.Close()
	refTS := httptest.NewServer(New(Options{})) // no disk tier → no disk writes
	defer refTS.Close()

	faultinject.Arm("resultcache.disk.write", faultinject.Fault{Kind: faultinject.KindError})

	for _, name := range []string{"chaos-a", "chaos-b"} { // the second runs degraded
		doc := tsunamiScenario(name, "hierarchical")
		resp, body := postEvaluate(t, ts.URL, doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status under write faults = %d, want 200 (body %s)", name, resp.StatusCode, body)
		}
		_, refBody := postEvaluate(t, refTS.URL, doc)
		if !bytes.Equal(body, refBody) {
			t.Fatalf("%s: degraded-mode result differs from a server without a disk tier:\n%s\nvs\n%s", name, body, refBody)
		}
		// The tier stored nothing, so the same scenario again is answered
		// by the result LRU above it: no second evaluation.
		resp2, body2 := postEvaluate(t, ts.URL, doc)
		if got := resp2.Header.Get("X-Hierclust-Cache"); got != "hit" || !bytes.Equal(body2, refBody) {
			t.Fatalf("%s: repeated scenario cache header = %q (same bytes %v), want a bit-identical hit from the result LRU",
				name, got, bytes.Equal(body2, refBody))
		}
	}
	if st := rc.Stats(); !st.Degraded || st.Entries != 0 || st.ReadErrors != 0 {
		t.Fatalf("tier stats = %+v, want degraded, empty, never read", st)
	}

	var health struct {
		Status      string                     `json:"status"`
		ResultCache map[string]json.RawMessage `json:"result_cache"`
		TraceCache  any                        `json:"trace_cache"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "degraded" {
		t.Fatalf("healthz status = %q, want degraded", health.Status)
	}
	var writeErrs int64
	if string(health.ResultCache["degraded"]) != "true" ||
		json.Unmarshal(health.ResultCache["write_errors"], &writeErrs) != nil || writeErrs < 3 {
		t.Fatalf("healthz result_cache = %s, want degraded=true and >=3 write errors", health.ResultCache)
	}
	if _, ok := health.ResultCache["mem_entries"]; ok {
		t.Fatal("healthz result_cache still reports mem_entries; the tier has no memory copy")
	}
	if health.TraceCache != nil {
		t.Fatalf("healthz carries a trace_cache object %v; the trace tier has no disk health", health.TraceCache)
	}

	mtext := getMetrics(t, ts.URL)
	if !strings.Contains(mtext, "\nhcserve_result_cache_degraded 1\n") {
		t.Fatal("metrics missing hcserve_result_cache_degraded 1")
	}
	if !strings.Contains(mtext, "\nhcserve_result_cache_disk_write_errors_total ") {
		t.Fatal("metrics missing hcserve_result_cache_disk_write_errors_total")
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Fatalf("failed writes left %d files in the result cache (%v), want none", len(files), err)
	}
}

// TestServePipelineWorkerPanicIncident pins the panic contract end to end:
// an injected pipeline-worker panic answers 500 with an incident id (no
// stack leaks to the client), increments hcserve_panics_total, and the
// very next request succeeds — the server survives its own bugs.
func TestServePipelineWorkerPanicIncident(t *testing.T) {
	defer faultinject.DisarmAll()
	_, ts := newTestServer(t)

	faultinject.Arm("pipeline.worker", faultinject.Fault{Kind: faultinject.KindPanic})
	resp, body := postEvaluate(t, ts.URL, chaosScenario("panic-a"))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status under injected worker panic = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "incident") {
		t.Fatalf("500 body %q does not carry an incident id", body)
	}
	if strings.Contains(e.Error, "goroutine") {
		t.Fatalf("500 body leaks a stack trace: %q", e.Error)
	}
	if m := getMetrics(t, ts.URL); !strings.Contains(m, "hcserve_panics_total 1") {
		t.Fatal("hcserve_panics_total not incremented")
	}

	faultinject.DisarmAll()
	resp2, body2 := postEvaluate(t, ts.URL, chaosScenario("panic-a"))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("request after recovered panic = %d, want 200 (body %s)", resp2.StatusCode, body2)
	}
}

// TestServeHandlerPanicIsolated drives the outermost isolation boundary:
// a panic raised inside the handler itself (before the pipeline) is
// recovered by instrument, answered 500 + incident, and counted.
func TestServeHandlerPanicIsolated(t *testing.T) {
	defer faultinject.DisarmAll()
	_, ts := newTestServer(t)

	faultinject.Arm("serve.evaluate", faultinject.Fault{Kind: faultinject.KindPanic})
	resp, body := postEvaluate(t, ts.URL, chaosScenario("handler-panic"))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status under handler panic = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "incident") {
		t.Fatalf("500 body %q does not carry an incident id", body)
	}

	faultinject.DisarmAll()
	if resp2, _ := postEvaluate(t, ts.URL, chaosScenario("handler-panic")); resp2.StatusCode != http.StatusOK {
		t.Fatalf("request after handler panic = %d, want 200", resp2.StatusCode)
	}
}

// TestServeEvalTimeout504 pins the server-side deadline: an evaluation
// held past Options.EvalTimeout (via injected worker latency) is cancelled
// and answered 504 with the deadline in the message, counted on
// hcserve_eval_timeouts_total — and on the batch endpoint the same
// deadline applies per element, as an element-level 504 line.
func TestServeEvalTimeout504(t *testing.T) {
	defer faultinject.DisarmAll()
	// The deadline must comfortably fit a clean evaluation of the test
	// scenario (so the post-disarm request succeeds) while the injected
	// latency comfortably exceeds it; the race detector slows evaluations
	// by an order of magnitude, so both scale with it.
	timeout := 150 * time.Millisecond
	if racedetect.Enabled {
		timeout = time.Second
	}
	s := New(Options{CacheSize: -1, EvalTimeout: timeout})
	ts := httptest.NewServer(s)
	defer ts.Close()

	faultinject.Arm("pipeline.worker", faultinject.Fault{Kind: faultinject.KindLatency, Delay: 4 * timeout})

	resp, body := postEvaluate(t, ts.URL, chaosScenario("slow"))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("504 body %q does not mention the deadline", body)
	}
	if m := getMetrics(t, ts.URL); !strings.Contains(m, "hcserve_eval_timeouts_total 1") {
		t.Fatal("hcserve_eval_timeouts_total not incremented")
	}

	// Batch: one malformed element (400 line) and one slow element (504
	// line); the batch request itself still answers 200 and streams both.
	batch := fmt.Sprintf(`[{"nope": true}, %s]`, chaosScenario("slow-batch"))
	bresp, err := http.Post(ts.URL+"/v1/evaluate-batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", bresp.StatusCode)
	}
	dec := json.NewDecoder(bresp.Body)
	var lines []CellLine
	for {
		var ln CellLine
		if err := dec.Decode(&ln); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, ln)
	}
	if len(lines) != 2 {
		t.Fatalf("batch returned %d lines, want 2", len(lines))
	}
	if lines[0].Status != http.StatusBadRequest {
		t.Fatalf("malformed element status = %d, want 400", lines[0].Status)
	}
	if lines[1].Status != http.StatusGatewayTimeout || !strings.Contains(lines[1].Error, "deadline") {
		t.Fatalf("slow element line = %+v, want a 504 deadline error", lines[1])
	}

	// With the fault cleared the same scenario fits the deadline.
	faultinject.DisarmAll()
	if resp2, body2 := postEvaluate(t, ts.URL, chaosScenario("slow")); resp2.StatusCode != http.StatusOK {
		t.Fatalf("status after fault cleared = %d, want 200 (body %s)", resp2.StatusCode, body2)
	}
}

// TestServeDrainCompletesUnderFaults: draining while a fault point is
// armed must still answer health (reporting "draining") and reject new
// work with 503 — chaos must not wedge shutdown.
func TestServeDrainCompletesUnderFaults(t *testing.T) {
	defer faultinject.DisarmAll()
	s, ts := newTestServer(t)

	faultinject.Arm("pipeline.worker", faultinject.Fault{Kind: faultinject.KindPanic})
	s.Drain()

	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "draining" {
		t.Fatalf("healthz status = %q, want draining", health.Status)
	}
	resp, _ := postEvaluate(t, ts.URL, chaosScenario("drain"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 under drain missing Retry-After")
	}
}
