package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"hierclust/pkg/hierclust"
)

// scrapeMetrics fetches /metrics and returns the exposition text.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricLine asserts one exact sample line is present in the scrape.
func metricLine(t *testing.T, text, want string) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if line == want {
			return
		}
	}
	t.Fatalf("metrics scrape missing line %q in:\n%s", want, text)
}

// TestShedWith429 saturates the limiter (one slot, no queue) and asserts
// load shedding: 429, a Retry-After header, an error body, and the shed
// counter visible in /metrics — then recovery once the slot frees.
func TestShedWith429(t *testing.T) {
	s := New(Options{CacheSize: 4, MaxConcurrent: 1, QueueDepth: -1, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	adm, release := s.lim.acquire(context.Background(), "test-client", false)
	if adm != admitted {
		t.Fatal("could not occupy the evaluation slot")
	}

	body := batchScenario("shed-me", "hierarchical", 0)
	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("shed error body: %v (%v)", e, err)
	}

	text := scrapeMetrics(t, ts.URL)
	metricLine(t, text, "hcserve_shed_total 1")
	metricLine(t, text, `hcserve_requests_total{endpoint="evaluate",status="429"} 1`)
	metricLine(t, text, "hcserve_inflight_evaluations 1")

	release()
	resp2, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200", resp2.StatusCode)
	}
}

// TestQueueAdmitsUpToDepth pins the queue bound: with one slot held and
// depth 1, the first waiter queues (and eventually runs) while the second
// concurrent contender is shed.
func TestQueueAdmitsUpToDepth(t *testing.T) {
	lim := newLimiter(1, 1, 0, nil)
	adm, release := lim.acquire(context.Background(), "other-client", false)
	if adm != admitted {
		t.Fatal("slot not acquired")
	}

	type outcome struct {
		adm     admission
		release func()
	}
	results := make(chan outcome, 2)
	go func() {
		a, rel := lim.acquire(context.Background(), "other-client", false)
		results <- outcome{a, rel}
	}()
	// Wait until the first contender is actually queued before racing the
	// second one against it.
	deadline := time.Now().Add(5 * time.Second)
	for lim.queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first contender never queued")
		}
		time.Sleep(time.Millisecond)
	}
	admShed, rel := lim.acquire(context.Background(), "other-client", false)
	if admShed != admissionShed || rel != nil {
		t.Fatalf("second contender admission = %v, want shed", admShed)
	}

	release()
	got := <-results
	if got.adm != admitted {
		t.Fatalf("queued contender admission = %v, want admitted", got.adm)
	}
	got.release()
}

// TestQueuedWaiterCancellation: a queued request whose client goes away is
// released with admissionCancelled, not left in the queue.
func TestQueuedWaiterCancellation(t *testing.T) {
	lim := newLimiter(1, 4, 0, nil)
	_, release := lim.acquire(context.Background(), "other-client", false)
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan admission, 1)
	go func() {
		a, _ := lim.acquire(ctx, "c", false)
		done <- a
	}()
	deadline := time.Now().Add(5 * time.Second)
	for lim.queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case a := <-done:
		if a != admissionCancelled {
			t.Fatalf("admission = %v, want cancelled", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter never released")
	}
	if q := lim.queued(); q != 0 {
		t.Fatalf("queued = %d after cancellation, want 0", q)
	}
}

// TestDrainRejectsNewWork: after Drain, uncached evaluations answer 503
// with Retry-After, queued waiters are released, healthz reports draining —
// and cheap reads (cache hits, metrics) keep working.
func TestDrainRejectsNewWork(t *testing.T) {
	s, ts := newTestServer(t)

	// Warm the result cache before draining.
	cached := batchScenario("pre-drain", "naive", 8)
	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(cached))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	s.Drain()

	fresh := batchScenario("post-drain", "hierarchical", 0)
	resp2, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(fresh))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Cache hits bypass admission and still answer.
	resp3, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(cached))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("X-Hierclust-Cache") != "hit" {
		t.Fatalf("cached scenario while draining: status %d cache %q, want 200 hit",
			resp3.StatusCode, resp3.Header.Get("X-Hierclust-Cache"))
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil || h.Status != "draining" {
		t.Fatalf("healthz while draining: %+v (%v)", h, err)
	}
}

// tsunamiScenario renders a scenario that traces the tsunami proxy app.
func tsunamiScenario(name, kind string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"machine": {"nodes": 16},
		"placement": {"ranks": 64, "procs_per_node": 4},
		"trace": {"source": "tsunami", "iterations": 5},
		"strategies": [{"kind": %q}]
	}`, name, kind)
}

// TestTraceCacheHitObservableInMetrics is the acceptance-criteria test:
// two scenarios that share one tsunami trace but differ in strategy must
// run the traced application exactly once — the second evaluation answers
// "trace-hit" and the trace-cache hit shows up in /metrics.
func TestTraceCacheHitObservableInMetrics(t *testing.T) {
	tc := hierclust.NewMemoryTraceCache(4)
	s := New(Options{
		CacheSize: 8,
		Pipeline:  hierclust.NewPipeline(hierclust.WithTraceCache(tc)),
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	post := func(body string) (string, *hierclust.Result) {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status = %d: %s", resp.StatusCode, b)
		}
		var res hierclust.Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("X-Hierclust-Cache"), &res
	}

	state1, _ := post(tsunamiScenario("trace-a", "hierarchical"))
	if state1 != "miss" {
		t.Fatalf("first scenario cache state = %q, want miss (full build)", state1)
	}
	state2, _ := post(tsunamiScenario("trace-b", "size-guided"))
	if state2 != "trace-hit" {
		t.Fatalf("second scenario cache state = %q, want trace-hit", state2)
	}

	// The application really ran once: one resident trace, and one hit
	// and one miss on the trace counters below.
	if n := tc.Len(); n != 1 {
		t.Fatalf("trace cache holds %d entries, want 1", n)
	}

	text := scrapeMetrics(t, ts.URL)
	metricLine(t, text, `hcserve_cache_hits_total{cache="trace"} 1`)
	metricLine(t, text, `hcserve_cache_misses_total{cache="trace"} 1`)
	metricLine(t, text, `hcserve_cache_misses_total{cache="result"} 2`)
	// The trace tier's health comes from the pipeline's own cache.
	metricLine(t, text, `hcserve_trace_cache_entries 1`)
	// Both evaluations were computed: each passed through the eval stage once.
	metricLine(t, text, `hcserve_stage_seconds_count{stage="eval"} 2`)
}

// TestServerTimingOnComputedEvaluations: a computed /v1/evaluate (miss or
// trace-hit) answers with its decode, lookup, queue, eval and render times
// in a Server-Timing header; a result-cache hit computed nothing and
// answers without one.
func TestServerTimingOnComputedEvaluations(t *testing.T) {
	s := New(Options{CacheSize: 8, Pipeline: hierclust.NewPipeline(hierclust.WithTraceCache(hierclust.NewMemoryTraceCache(4)))})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	timing := regexp.MustCompile(`^decode;dur=\d+\.\d{3}, lookup;dur=\d+\.\d{3}, queue;dur=\d+\.\d{3}, eval;dur=\d+\.\d{3}, render;dur=\d+\.\d{3}$`)
	for _, c := range []struct{ body, cache string }{
		{tsunamiScenario("timing-a", "hierarchical"), "miss"},
		{tsunamiScenario("timing-b", "naive"), "trace-hit"},
		{tsunamiScenario("timing-a", "hierarchical"), "hit"},
	} {
		resp, body := postEvaluate(t, ts.URL, c.body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Hierclust-Cache") != c.cache {
			t.Fatalf("status %d, cache %q, want 200 %s: %s", resp.StatusCode, resp.Header.Get("X-Hierclust-Cache"), c.cache, body)
		}
		got := resp.Header.Get("Server-Timing")
		if c.cache == "hit" {
			if got != "" {
				t.Errorf("a result hit answers Server-Timing %q, want none", got)
			}
		} else if !timing.MatchString(got) {
			t.Errorf("%s: Server-Timing %q, want the five request stages", c.cache, got)
		}
	}
}
