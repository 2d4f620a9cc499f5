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
	"runtime"
	"strings"
	"testing"
	"time"

	"hierclust/internal/faultinject"
	"hierclust/pkg/hierclust"
)

// sweepDoc renders a 2×2 machines × strategies sweep over a synthetic
// base — two machine sizes, two strategy sets, four cells, with the two
// cells of each machine size sharing one trace (dedup ratio 0.25).
func sweepDoc(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"base": {
			"name": "grid-base",
			"machine": {"nodes": 16},
			"placement": {"ranks": 64, "procs_per_node": 4},
			"trace": {"source": "synthetic", "iterations": 10}
		},
		"axes": {
			"machines": [{"nodes": 16}, {"nodes": 8, "ranks": 32, "procs_per_node": 4}],
			"strategies": [[{"kind": "naive", "size": 8}], [{"kind": "hierarchical"}]]
		}
	}`, name)
}

// submitSweep posts a sweep and returns the accepted job's status doc.
func submitSweep(t *testing.T, url, body string) *sweepStatusDoc {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep submit status = %d: %s", resp.StatusCode, b)
	}
	var doc sweepStatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID == "" || doc.State != "running" {
		t.Fatalf("accepted job doc = %+v", doc)
	}
	return &doc
}

// pollSweep polls GET /v1/sweeps/{id} until the job leaves "running".
func pollSweep(t *testing.T, url, id string) *sweepStatusDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var doc sweepStatusDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if doc.State != "running" {
			return &doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still running: %+v", id, doc)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sweepResults streams GET /v1/sweeps/{id}/results to completion.
func sweepResults(t *testing.T, url, id string) (*http.Response, []CellLine) {
	t.Helper()
	resp, err := http.Get(url + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("results status = %d: %s", resp.StatusCode, b)
	}
	var lines []CellLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line CellLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, lines
}

// TestSweepJobLifecycle drives the async job API end to end: submit,
// poll to completion, stream ordered NDJSON results, and verify a cell's
// document is byte-identical to — and cross-warms the result cache of —
// the single-evaluate endpoint.
func TestSweepJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	doc := submitSweep(t, ts.URL, sweepDoc("lifecycle"))
	if doc.Cells.Total != 4 {
		t.Fatalf("planned %d cells, want 4", doc.Cells.Total)
	}
	if doc.Plan.DedupRatio != 0.25 {
		t.Fatalf("dedup ratio = %g, want 0.25 (2 trace builds + 4 partitions over 8 refs)", doc.Plan.DedupRatio)
	}
	if doc.Plan.TraceBuilds != 2 || doc.Plan.TraceRefs != 4 {
		t.Fatalf("planned trace builds/refs = %d/%d, want 2/4", doc.Plan.TraceBuilds, doc.Plan.TraceRefs)
	}

	final := pollSweep(t, ts.URL, doc.ID)
	if final.State != "completed" || final.Cells.Completed != 4 || final.Cells.Failed != 0 {
		t.Fatalf("final status = %+v, want completed 4/0", final)
	}

	resp, lines := sweepResults(t, ts.URL, doc.ID)
	if got := resp.Header.Get("X-Hierclust-Sweep-Cells"); got != "4" {
		t.Fatalf("X-Hierclust-Sweep-Cells = %q, want 4", got)
	}
	if got := resp.Header.Get("X-Hierclust-Sweep-Dedup"); got != "0.2500" {
		t.Fatalf("X-Hierclust-Sweep-Dedup = %q, want 0.2500", got)
	}
	wantNames := []string{"grid-base/m0/s0", "grid-base/m0/s1", "grid-base/m1/s0", "grid-base/m1/s1"}
	if len(lines) != 4 {
		t.Fatalf("streamed %d lines, want 4", len(lines))
	}
	for i, line := range lines {
		if line.Index != i || line.Scenario != wantNames[i] {
			t.Fatalf("line %d = index %d scenario %q, want %d %q", i, line.Index, line.Scenario, i, wantNames[i])
		}
		if line.Status != http.StatusOK || len(line.Result) == 0 {
			t.Fatalf("line %d status %d error %q", i, line.Status, line.Error)
		}
	}

	// Byte-identity + cache cross-warming: hand-write cell m0/s0's
	// scenario and POST it to /v1/evaluate — it must hit the result cache
	// the sweep warmed, and (re-compacted) match the sweep line exactly.
	hand := `{
		"name": "grid-base/m0/s0",
		"machine": {"nodes": 16},
		"placement": {"ranks": 64, "procs_per_node": 4},
		"trace": {"source": "synthetic", "iterations": 10},
		"strategies": [{"kind": "naive", "size": 8}]
	}`
	evResp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(hand))
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if evResp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(evResp.Body)
		t.Fatalf("evaluate status = %d: %s", evResp.StatusCode, b)
	}
	if got := evResp.Header.Get("X-Hierclust-Cache"); got != "hit" {
		t.Fatalf("hand-written cell scenario cache state = %q, want hit (sweep should have warmed it)", got)
	}
	pretty, err := io.ReadAll(evResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, pretty); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact.Bytes(), []byte(lines[0].Result)) {
		t.Fatalf("sweep cell document diverges from POST /v1/evaluate:\n%s\nvs\n%s", lines[0].Result, compact.Bytes())
	}

	text := scrapeMetrics(t, ts.URL)
	metricLine(t, text, "hcserve_sweep_jobs_total 1")
	metricLine(t, text, "hcserve_sweep_cells_total 4")
	metricLine(t, text, "hcserve_sweep_cells_completed_total 4")
	metricLine(t, text, "hcserve_sweep_cell_cache_hits_total 0")
	metricLine(t, text, "hcserve_sweep_node_builds_total 6")
	metricLine(t, text, "hcserve_sweep_node_refs_total 8")
	metricLine(t, text, "hcserve_sweeps_running 0")
	metricLine(t, text, "hcserve_evaluation_slots 4")
	metricLine(t, text, "hcserve_queued_background 0")
}

// TestSweepResubmitFullCacheHit: re-submitting a completed sweep serves
// every cell from the result cache without evaluating anything.
func TestSweepResubmitFullCacheHit(t *testing.T) {
	_, ts := newTestServer(t)

	first := submitSweep(t, ts.URL, sweepDoc("warm"))
	if got := pollSweep(t, ts.URL, first.ID); got.State != "completed" {
		t.Fatalf("first run state = %q", got.State)
	}

	second := submitSweep(t, ts.URL, sweepDoc("warm-again"))
	final := pollSweep(t, ts.URL, second.ID)
	if final.State != "completed" || final.Cells.Cached != 4 || final.Cells.Completed != 0 {
		t.Fatalf("resubmit status = %+v, want 4 cached / 0 evaluated", final)
	}
	_, lines := sweepResults(t, ts.URL, second.ID)
	for i, line := range lines {
		if line.Cache != "hit" {
			t.Fatalf("resubmit line %d cache = %q, want hit", i, line.Cache)
		}
	}
}

// TestSweepDeleteCancelsRunning: with the only evaluation slot occupied,
// a running sweep's cells block in background admission; DELETE cancels
// the job, every line terminates with 499, and a second DELETE of the
// finished job removes it (404 afterwards).
func TestSweepDeleteCancelsRunning(t *testing.T) {
	s := New(Options{CacheSize: -1, MaxConcurrent: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	adm, release := s.lim.acquire(context.Background(), "occupier", false)
	if adm != admitted {
		t.Fatal("could not occupy the evaluation slot")
	}
	defer release()

	doc := submitSweep(t, ts.URL, sweepDoc("doomed"))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+doc.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running job status = %d, want 202", dresp.StatusCode)
	}

	final := pollSweep(t, ts.URL, doc.ID)
	if final.State != "cancelled" {
		t.Fatalf("state after DELETE = %q, want cancelled", final.State)
	}
	_, lines := sweepResults(t, ts.URL, doc.ID)
	if len(lines) != 4 {
		t.Fatalf("cancelled job streamed %d lines, want 4", len(lines))
	}
	for i, line := range lines {
		if line.Status != statusClientClosed {
			t.Fatalf("cancelled line %d status = %d, want %d", i, line.Status, statusClientClosed)
		}
	}

	dresp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE finished job status = %d, want 204", dresp2.StatusCode)
	}
	gresp, err := http.Get(ts.URL + "/v1/sweeps/" + doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET removed job status = %d, want 404", gresp.StatusCode)
	}
}

// TestSweepChaosFaultResumeOverHTTP is the kill-mid-sweep acceptance
// drill at the API level: an injected fault fails part of the first job;
// after disarming, resubmitting the same sweep completes only the
// remaining cells — the survivors are cache hits.
func TestSweepChaosFaultResumeOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)

	faultinject.Seed(7)
	faultinject.Arm("sweep.cell", faultinject.Fault{Kind: faultinject.KindError, P: 0.5})
	first := submitSweep(t, ts.URL, sweepDoc("chaos"))
	firstFinal := pollSweep(t, ts.URL, first.ID)
	faultinject.DisarmAll()
	if firstFinal.Cells.Failed == 0 || firstFinal.Cells.Completed == 0 {
		t.Fatalf("chaos run completed/failed = %d/%d, want both nonzero (pick a new seed)",
			firstFinal.Cells.Completed, firstFinal.Cells.Failed)
	}
	if firstFinal.State != "completed" {
		t.Fatalf("chaos run state = %q (partial cell failure is per-line, not job-level)", firstFinal.State)
	}

	second := submitSweep(t, ts.URL, sweepDoc("chaos-resume"))
	final := pollSweep(t, ts.URL, second.ID)
	if final.State != "completed" || final.Cells.Failed != 0 {
		t.Fatalf("resume run = %+v, want clean completion", final)
	}
	if final.Cells.Cached != firstFinal.Cells.Completed {
		t.Fatalf("resume served %d cells from cache, want the %d that survived",
			final.Cells.Cached, firstFinal.Cells.Completed)
	}
	if final.Cells.Completed != firstFinal.Cells.Failed {
		t.Fatalf("resume evaluated %d cells, want exactly the %d that failed",
			final.Cells.Completed, firstFinal.Cells.Failed)
	}
}

// TestSweepSubmitRejections pins the request-scoped failure modes:
// malformed JSON, server-side file paths, over-bound grids, unknown job
// ids, and the concurrent-job bound.
func TestSweepSubmitRejections(t *testing.T) {
	s := New(Options{CacheSize: -1, MaxConcurrent: 1, MaxSweepCells: 2, MaxConcurrentSweeps: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post(`{"not a sweep`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d, want 400", resp.StatusCode)
	}
	fileSweep := `{"name":"f","base":{"name":"b","machine":{"nodes":8},
		"placement":{"ranks":32,"procs_per_node":4},
		"trace":{"source":"file","path":"/etc/passwd"},
		"strategies":[{"kind":"naive","size":8}]},"axes":{}}`
	if resp := post(fileSweep); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("file-source sweep status = %d, want 400", resp.StatusCode)
	}
	if resp := post(sweepDoc("too-big")); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-bound sweep status = %d, want 413 (4 cells > MaxSweepCells 2)", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/v1/sweeps/deadbeef"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
		}
	}

	// Concurrency bound: occupy the slot so the first job stays running,
	// then a second submission must shed with 429 + Retry-After.
	adm, release := s.lim.acquire(context.Background(), "occupier", false)
	if adm != admitted {
		t.Fatal("could not occupy the evaluation slot")
	}
	small := `{"name":"one","base":{"name":"b","machine":{"nodes":8},
		"placement":{"ranks":32,"procs_per_node":4},
		"trace":{"source":"synthetic"},
		"strategies":[{"kind":"naive","size":8}]},"axes":{}}`
	doc := submitSweep(t, ts.URL, small)
	resp := post(small)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second concurrent sweep status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	release()
	if final := pollSweep(t, ts.URL, doc.ID); final.State != "completed" {
		t.Fatalf("first job state = %q after slot release", final.State)
	}
}

// TestSweepDrainCancelsJobs: Drain cancels running sweep jobs (their
// lines report 503) and new submissions answer 503.
func TestSweepDrainCancelsJobs(t *testing.T) {
	s := New(Options{CacheSize: -1, MaxConcurrent: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	adm, release := s.lim.acquire(context.Background(), "occupier", false)
	if adm != admitted {
		t.Fatal("could not occupy the evaluation slot")
	}
	defer release()

	doc := submitSweep(t, ts.URL, sweepDoc("drained"))
	s.Drain() // cancels the job and waits for its goroutine

	final := pollSweep(t, ts.URL, doc.ID)
	if final.State != "cancelled" {
		t.Fatalf("state after drain = %q, want cancelled", final.State)
	}
	_, lines := sweepResults(t, ts.URL, doc.ID)
	for i, line := range lines {
		if line.Status != http.StatusServiceUnavailable {
			t.Fatalf("drained line %d status = %d, want 503", i, line.Status)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(sweepDoc("late")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining status = %d, want 503", resp.StatusCode)
	}
}

// bigSweep renders a sub-2 KB sweep whose four 16-point axes multiply out to
// SweepMaxCells (65,536) valid cells.
func bigSweep() string {
	var machines, strategies, mixes, traces []string
	for i := 1; i <= 16; i++ {
		machines = append(machines, fmt.Sprintf(`{"nodes":%d}`, 16+i))
		strategies = append(strategies, fmt.Sprintf(`[{"kind":"naive","size":%d}]`, i))
		mixes = append(mixes, fmt.Sprintf(`{"transient":%d}`, i))
		traces = append(traces, fmt.Sprintf(`{"iterations":%d}`, i))
	}
	return `{"name":"huge","base":{"name":"b","machine":{"nodes":16},"placement":{"ranks":64,"procs_per_node":4},` +
		`"trace":{"source":"synthetic"}},"axes":{"machines":[` + strings.Join(machines, ",") +
		`],"strategies":[` + strings.Join(strategies, ",") + `],"mixes":[` + strings.Join(mixes, ",") +
		`],"traces":[` + strings.Join(traces, ",") + `]}}`
}

// TestSweepOverBoundRefusedBeforeExpansion: a sweep past the server's cell
// bound is answered 413 from its axes, before any cell exists — a small body
// cannot make the server expand and validate 65,536 scenarios to refuse it.
func TestSweepOverBoundRefusedBeforeExpansion(t *testing.T) {
	body := bigSweep()
	if len(body) >= 2<<10 {
		t.Fatalf("test setup: body is %d bytes, want under 2 KB", len(body))
	}
	sw, err := hierclust.DecodeSweep([]byte(body))
	if err != nil || sw.CellCount() != hierclust.SweepMaxCells {
		t.Fatalf("test setup: %v, %d cells", err, sw.CellCount())
	}
	s := New(Options{})
	submit := func() (*httptest.ResponseRecorder, uint64) {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweeps", strings.NewReader(body))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		return rec, after.TotalAlloc - before.TotalAlloc
	}
	submit() // warm the handler's one-time state
	rec, bytes := submit()
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", rec.Code, rec.Body)
	}
	t.Logf("a %d-byte sweep of %d cells refused in %d bytes", len(body), sw.CellCount(), bytes)
	if bytes > 256<<10 {
		t.Fatalf("refusing a %d-byte over-bound sweep allocated %d bytes, want under 256 KiB", len(body), bytes)
	}

	// Cells are validated when the accepted sweep is planned, with the
	// statuses a decode-time check gave them: a bad cell 400, a cell past a
	// size bound 422.
	for _, tc := range []struct {
		axes string
		want int
	}{
		{`"placements":["block","scatter"]`, http.StatusBadRequest},
		{`"machines":[{"nodes":16},{"nodes":8,"ranks":5000000}]`, http.StatusUnprocessableEntity},
	} {
		doc := `{"name":"cell","base":{"name":"b","machine":{"nodes":16},"placement":{"ranks":64,"procs_per_node":4},` +
			`"trace":{"source":"synthetic"},"strategies":[{"kind":"naive","size":8}]},"axes":{` + tc.axes + `}}`
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps", strings.NewReader(doc)))
		if rec.Code != tc.want {
			t.Errorf("axes %s: status %d (%s), want %d", tc.axes, rec.Code, rec.Body, tc.want)
		}
	}
}
