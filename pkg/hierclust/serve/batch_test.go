package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hierclust/internal/faultinject"
	"hierclust/pkg/hierclust"
)

// batchScenario renders a small synthetic scenario document.
func batchScenario(name, kind string, size int) string {
	spec := fmt.Sprintf(`{"kind":%q}`, kind)
	if size > 0 {
		spec = fmt.Sprintf(`{"kind":%q,"size":%d}`, kind, size)
	}
	return fmt.Sprintf(`{
		"name": %q,
		"machine": {"nodes": 16},
		"placement": {"ranks": 64, "procs_per_node": 4},
		"trace": {"source": "synthetic", "iterations": 10},
		"strategies": [%s]
	}`, name, spec)
}

// postBatch posts an NDJSON batch and decodes every line.
func postBatch(t *testing.T, url, body string) (*http.Response, []BatchLine) {
	t.Helper()
	resp, err := http.Post(url+"/v1/evaluate-batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch status = %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("batch content type = %q", ct)
	}
	var lines []BatchLine
	scan := bufio.NewScanner(resp.Body)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	for scan.Scan() {
		var l BatchLine
		if err := json.Unmarshal(scan.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scan.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, lines
}

// TestBatchOrderingAndPartialFailure pins the core batch contract: one
// line per element, in input order, independent failure — a malformed
// element and an unbuildable element fail with the status the single
// endpoint would give, without touching their neighbors.
func TestBatchOrderingAndPartialFailure(t *testing.T) {
	_, ts := newTestServer(t)
	batch := "[" + strings.Join([]string{
		batchScenario("b-0", "naive", 8),
		// Valid JSON at the array level, but not a scenario (unknown field).
		`{"name":"b-1","machne":{}}`,
		batchScenario("b-2", "hierarchical", 0),
		// Validates but cannot build: too many ranks for the machine.
		`{"name":"b-3","machine":{"model":"tsubame2"},"placement":{"ranks":99999,"procs_per_node":4},"trace":{"source":"synthetic"},"strategies":[{"kind":"hierarchical"}]}`,
		batchScenario("b-4", "size-guided", 8),
	}, ",") + "]"
	resp, lines := postBatch(t, ts.URL, batch)

	if got := resp.Header.Get("X-Hierclust-Batch-Count"); got != "5" {
		t.Fatalf("batch count header = %q, want 5", got)
	}
	if len(lines) != 5 {
		t.Fatalf("%d NDJSON lines, want 5", len(lines))
	}
	wantStatus := []int{200, 400, 200, 422, 200}
	for i, l := range lines {
		if l.Index != i {
			t.Fatalf("line %d has index %d — output not in input order", i, l.Index)
		}
		if l.Status != wantStatus[i] {
			t.Fatalf("line %d status = %d (%s), want %d", i, l.Status, l.Error, wantStatus[i])
		}
		if l.Status == 200 {
			if l.Error != "" || len(l.Result) == 0 {
				t.Fatalf("line %d: 200 with error=%q result=%d bytes", i, l.Error, len(l.Result))
			}
			var res hierclust.Result
			if err := json.Unmarshal(l.Result, &res); err != nil {
				t.Fatalf("line %d result does not decode: %v", i, err)
			}
			if want := fmt.Sprintf("b-%d", i); res.Scenario != want {
				t.Fatalf("line %d result is scenario %q, want %q", i, res.Scenario, want)
			}
		} else if l.Error == "" || len(l.Result) != 0 {
			t.Fatalf("line %d: status %d with error=%q result=%d bytes", i, l.Status, l.Error, len(l.Result))
		}
	}
}

// TestBatchSharesResultCache re-POSTs an already-evaluated scenario inside
// a batch: the element must be answered from the result LRU.
func TestBatchSharesResultCache(t *testing.T) {
	_, ts := newTestServer(t)
	one := batchScenario("shared", "naive", 8)
	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(one))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, lines := postBatch(t, ts.URL, "["+one+"]")
	if len(lines) != 1 || lines[0].Cache != "hit" {
		t.Fatalf("batch element after single POST: %+v, want cache hit", lines)
	}

	// And the reverse: a batch miss populates the cache for the single
	// endpoint.
	two := batchScenario("shared-2", "size-guided", 8)
	_, lines = postBatch(t, ts.URL, "["+two+"]")
	if len(lines) != 1 || lines[0].Cache != "miss" {
		t.Fatalf("fresh batch element: %+v, want cache miss", lines)
	}
	resp2, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(two))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if got := resp2.Header.Get("X-Hierclust-Cache"); got != "hit" {
		t.Fatalf("single POST after batch = %q, want hit", got)
	}
}

// TestBatchSharesBuilds: a batch is planned like a sweep, so eight
// scenarios that differ only in failure mix build their clustering once
// (counted at the pipeline.build fault point, armed with a zero delay).
// Each line is byte-identical to /v1/evaluate of its document, and the
// labels follow the plan: the first element built the trace.
func TestBatchSharesBuilds(t *testing.T) {
	docs := make([]string, 8)
	for k := range docs {
		docs[k] = fmt.Sprintf(`{"name": "mix", "machine": {"nodes": 16},
			"placement": {"ranks": 64, "procs_per_node": 4},
			"trace": {"source": "synthetic", "iterations": 10},
			"strategies": [{"kind": "naive", "size": 8}],
			"mix": {"transient": %g, "node_loss": [0.9, 0.05]}}`, 0.05*float64(k+1))
	}
	_, ts := newTestServer(t)
	defer faultinject.DisarmAll()
	faultinject.Arm("pipeline.build", faultinject.Fault{Kind: faultinject.KindLatency})
	_, lines := postBatch(t, ts.URL, "["+strings.Join(docs, ",")+"]")
	builds := faultinject.Triggered("pipeline.build")
	faultinject.DisarmAll()
	if builds != 1 {
		t.Errorf("a batch of %d mixes built the clustering %d times, want 1", len(docs), builds)
	}
	if len(lines) != len(docs) {
		t.Fatalf("%d lines for %d elements", len(lines), len(docs))
	}
	for k, l := range lines {
		want := "trace-hit"
		if k == 0 {
			want = "miss"
		}
		if l.Index != k || l.Status != http.StatusOK || l.Cache != want {
			t.Errorf("line %d: index %d status %d label %q (%s), want %d 200 %q", k, l.Index, l.Status, l.Cache, l.Error, k, want)
		}
		_, fresh := newTestServer(t)
		resp, body := postEvaluate(t, fresh.URL, docs[k])
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/evaluate of element %d: %d %s (%v)", k, resp.StatusCode, body, err)
		}
		if !bytes.Equal(l.Result, compact.Bytes()) {
			t.Errorf("line %d differs from /v1/evaluate of its document:\n%s\nvs\n%s", k, l.Result, compact.Bytes())
		}
	}
}

// TestBatchObservesEvaluateSeconds: every computed batch element lands in
// hcserve_evaluate_seconds, as a /v1/evaluate would; a result-cache hit and
// a malformed element do not.
func TestBatchObservesEvaluateSeconds(t *testing.T) {
	_, ts := newTestServer(t)
	cached := batchScenario("observed-0", "naive", 8)
	if resp, body := postEvaluate(t, ts.URL, cached); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/evaluate: %d %s", resp.StatusCode, body)
	}
	metricLine(t, scrapeMetrics(t, ts.URL), `hcserve_evaluate_seconds_count{source="synthetic"} 1`)
	_, lines := postBatch(t, ts.URL, "["+strings.Join([]string{
		cached, `{"nope": true}`, batchScenario("observed-1", "naive", 8), batchScenario("observed-2", "hierarchical", 0),
	}, ",")+"]")
	if got := fmt.Sprintf("%s %d %d %d", lines[0].Cache, lines[1].Status, lines[2].Status, lines[3].Status); got != "hit 400 200 200" {
		t.Fatalf("batch lines %+v", lines)
	}
	metricLine(t, scrapeMetrics(t, ts.URL), `hcserve_evaluate_seconds_count{source="synthetic"} 3`)
}

func TestBatchRejectsBadBodies(t *testing.T) {
	s := New(Options{CacheSize: 4, MaxBatchScenarios: 2})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"not an array", `{"name":"x"}`, http.StatusBadRequest},
		{"malformed array", `[{"name":`, http.StatusBadRequest},
		{"empty batch", `[]`, http.StatusBadRequest},
		{"over element bound", "[" + strings.Join([]string{
			batchScenario("a", "naive", 8), batchScenario("b", "naive", 8), batchScenario("c", "naive", 8),
		}, ",") + "]", http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/evaluate-batch", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestBatchStreamsBeforeCompletion pins the streaming shape: with element 0
// instantly servable from the result cache and element 1 blocked on the
// limiter, line 0 must arrive while line 1 is still pending.
func TestBatchStreamsBeforeCompletion(t *testing.T) {
	s := New(Options{CacheSize: 8, MaxConcurrent: 1, QueueDepth: 4})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	cached := batchScenario("streamed", "naive", 8)
	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(cached))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Occupy the only evaluation slot so the second element queues.
	adm, release := s.lim.acquire(context.Background(), "batch-test", false)
	if adm != admitted {
		t.Fatal("could not occupy the evaluation slot")
	}

	bresp, err := http.Post(ts.URL+"/v1/evaluate-batch", "application/json",
		strings.NewReader("["+cached+","+batchScenario("streamed-2", "hierarchical", 0)+"]"))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()

	reader := bufio.NewReader(bresp.Body)
	type lineOrErr struct {
		line string
		err  error
	}
	first := make(chan lineOrErr, 1)
	go func() {
		l, err := reader.ReadString('\n')
		first <- lineOrErr{l, err}
	}()
	select {
	case lo := <-first:
		if lo.err != nil {
			t.Fatalf("reading first line: %v", lo.err)
		}
		var l BatchLine
		if err := json.Unmarshal([]byte(lo.line), &l); err != nil {
			t.Fatal(err)
		}
		if l.Index != 0 || l.Cache != "hit" {
			t.Fatalf("first streamed line = %+v, want index 0 cache hit", l)
		}
	case <-time.After(5 * time.Second):
		release()
		t.Fatal("first line did not stream while the second element was blocked")
	}

	release()
	rest, err := io.ReadAll(reader)
	if err != nil {
		t.Fatal(err)
	}
	var l BatchLine
	if err := json.Unmarshal(rest, &l); err != nil {
		t.Fatalf("second line %q: %v", rest, err)
	}
	if l.Index != 1 || l.Status != 200 {
		t.Fatalf("second line = %+v", l)
	}
}
