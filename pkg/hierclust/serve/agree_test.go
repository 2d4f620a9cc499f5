package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hierclust/internal/faultinject"
	"hierclust/internal/racedetect"
	"hierclust/pkg/hierclust"
)

// The three ways to evaluate one scenario — POST /v1/evaluate, a batch
// element, a one-cell POST /v1/sweeps — run one cell sequence and one status
// mapping, so they answer every outcome alike.

// endpoint evaluates one scenario document under ctx and reports the status,
// the cache label and the compact result document it answered with.
type endpoint struct {
	name string
	// background: the evaluation waits for a slot in the sweep-cell tier.
	background bool
	run        func(t *testing.T, s *Server, ctx context.Context, doc string) (int, string, []byte)
}

// serveRecorded sends one request straight to the handler.
func serveRecorded(s *Server, ctx context.Context, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)).WithContext(ctx))
	return rec
}

var endpoints = []endpoint{
	{name: "evaluate", run: func(t *testing.T, s *Server, ctx context.Context, doc string) (int, string, []byte) {
		rec := serveRecorded(s, ctx, http.MethodPost, "/v1/evaluate", doc)
		var compact bytes.Buffer
		if rec.Code == http.StatusOK {
			if err := json.Compact(&compact, rec.Body.Bytes()); err != nil {
				t.Error(err)
			}
		}
		return rec.Code, rec.Header().Get("X-Hierclust-Cache"), compact.Bytes()
	}},
	// A one-element batch through the handler's batch path; the handler
	// itself stops streaming once its client has gone, so the line is read
	// where it is made.
	{name: "batch element", run: func(t *testing.T, s *Server, ctx context.Context, doc string) (int, string, []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/evaluate-batch", nil).WithContext(ctx)
		lines := s.runBatch(r, []json.RawMessage{json.RawMessage(doc)})
		<-lines.final[0]
		return lines.lines[0].Status, lines.lines[0].Cache, lines.lines[0].Result
	}},
	// A sweep's client going away is a DELETE of the job.
	{name: "one-cell sweep", background: true, run: func(t *testing.T, s *Server, ctx context.Context, doc string) (int, string, []byte) {
		rec := serveRecorded(s, context.Background(), http.MethodPost, "/v1/sweeps",
			fmt.Sprintf(`{"name": "agree", "base": %s, "axes": {}}`, doc))
		var st sweepStatusDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusAccepted {
			t.Errorf("sweep submit: %d %s (%v)", rec.Code, rec.Body, err)
			return 0, "", nil
		}
		defer context.AfterFunc(ctx, func() {
			serveRecorded(s, context.Background(), http.MethodDelete, "/v1/sweeps/"+st.ID, "")
		})()
		job := s.lookupSweepJob(st.ID)
		<-job.final[0]
		job.mu.Lock()
		defer job.mu.Unlock()
		return job.lines[0].Status, job.lines[0].Cache, job.lines[0].Result
	}},
}

func TestFaultEndpointsAgree(t *testing.T) {
	defer faultinject.DisarmAll()
	timeout := 150 * time.Millisecond
	if racedetect.Enabled {
		timeout = time.Second
	}
	small := batchScenario("agree", "hierarchical", 0)
	unbuildable := `{"name":"agree-422","machine":{"model":"tsubame2"},"placement":{"ranks":99999,"procs_per_node":4},"trace":{"source":"synthetic"},"strategies":[{"kind":"hierarchical"}]}`

	for _, c := range []struct {
		name string
		opts Options
		doc  string
		// fault is armed for the evaluation; occupy holds the only slot so
		// the evaluation waits for one, and trigger then ends the wait.
		fault           faultinject.Fault
		occupy          bool
		trigger         func(s *Server, cancel context.CancelFunc)
		interactiveOnly bool
		want            int
	}{
		{name: "recovered worker panic", doc: small,
			fault: faultinject.Fault{Kind: faultinject.KindPanic}, want: http.StatusInternalServerError},
		{name: "server deadline", opts: Options{EvalTimeout: timeout}, doc: small,
			fault: faultinject.Fault{Kind: faultinject.KindLatency, Delay: 4 * timeout}, want: http.StatusGatewayTimeout},
		{name: "unbuildable scenario", doc: unbuildable, want: http.StatusUnprocessableEntity},
		{name: "client gone", opts: Options{MaxConcurrent: 1}, doc: small, occupy: true,
			trigger: func(_ *Server, cancel context.CancelFunc) { cancel() }, want: statusClientClosed},
		{name: "drain", opts: Options{MaxConcurrent: 1}, doc: small, occupy: true,
			trigger: func(s *Server, _ context.CancelFunc) { s.Drain() }, want: http.StatusServiceUnavailable},
		{name: "shed", opts: Options{MaxConcurrent: 1, QueueDepth: -1}, doc: small, occupy: true,
			interactiveOnly: true, want: http.StatusTooManyRequests},
	} {
		for _, ep := range endpoints {
			if c.interactiveOnly && ep.background {
				continue
			}
			t.Run(c.name+"/"+ep.name, func(t *testing.T) {
				defer faultinject.DisarmAll()
				s := New(c.opts)
				if c.fault.Kind != 0 {
					faultinject.Arm("pipeline.worker", c.fault)
				}
				if c.occupy {
					_, release := s.lim.acquire(context.Background(), "occupier", false)
					defer release()
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				got := make(chan int, 1)
				go func() { status, _, _ := ep.run(t, s, ctx, c.doc); got <- status }()
				if c.trigger != nil {
					queued := s.lim.queued
					if ep.background {
						queued = s.lim.queuedBackground
					}
					waitCond(t, "the evaluation queueing for a slot", func() bool { return queued() == 1 })
					c.trigger(s, cancel)
				}
				if status := <-got; status != c.want {
					t.Errorf("status %d, want %d", status, c.want)
				}
			})
		}
	}

	// On success the three agree on the cache label, the document and what
	// the cache counters on /metrics moved by.
	t.Run("success", func(t *testing.T) {
		docs := []string{
			tsunamiScenario("agree-tsunami", "hierarchical"),
			tsunamiScenario("agree-tsunami", "hierarchical"),
			tsunamiScenario("agree-tsunami-b", "size-guided"),
			small,
		}
		wantLabels := []string{"miss", "hit", "trace-hit", "miss"}
		newServer := func() *Server {
			return New(Options{Pipeline: hierclust.NewPipeline(hierclust.WithTraceCache(hierclust.NewMemoryTraceCache(4)))})
		}
		var wantDocs [][]byte
		var wantCounters map[string]string
		for _, ep := range endpoints {
			s := newServer()
			var gotDocs [][]byte
			for i, doc := range docs {
				status, label, result := ep.run(t, s, context.Background(), doc)
				if status != http.StatusOK || label != wantLabels[i] {
					t.Fatalf("%s: request %d: status %d label %q, want 200 %q", ep.name, i, status, label, wantLabels[i])
				}
				gotDocs = append(gotDocs, result)
			}
			counters := cacheCounters(t, s)
			if wantDocs == nil {
				wantDocs, wantCounters = gotDocs, counters
				continue
			}
			for i := range docs {
				if !bytes.Equal(gotDocs[i], wantDocs[i]) {
					t.Errorf("%s: request %d document differs from /v1/evaluate's:\n%s\nvs\n%s", ep.name, i, gotDocs[i], wantDocs[i])
				}
			}
			if fmt.Sprint(counters) != fmt.Sprint(wantCounters) {
				t.Errorf("%s: cache counters %v, /v1/evaluate's %v", ep.name, counters, wantCounters)
			}
		}

		// The distinct documents as one batch answer as /v1/evaluate does
		// one by one: the tsunami trace built by the first, shared by the
		// second, and the synthetic one built by the third.
		distinct := []int{0, 2, 3}
		one := newServer()
		for _, i := range distinct {
			endpoints[0].run(t, one, context.Background(), docs[i])
		}
		batch := newServer()
		rec := serveRecorded(batch, context.Background(), http.MethodPost, "/v1/evaluate-batch",
			"["+docs[0]+","+docs[2]+","+docs[3]+"]")
		dec := json.NewDecoder(rec.Body)
		for k, i := range distinct {
			var line CellLine
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("batch line %d: %v (%s)", k, err, rec.Body)
			}
			if line.Index != k || line.Status != http.StatusOK || line.Cache != wantLabels[i] {
				t.Errorf("batch line %d: index %d status %d label %q, want %d 200 %q", k, line.Index, line.Status, line.Cache, k, wantLabels[i])
			}
			if !bytes.Equal(line.Result, wantDocs[i]) {
				t.Errorf("batch line %d document differs from /v1/evaluate's:\n%s\nvs\n%s", k, line.Result, wantDocs[i])
			}
		}
		if got, want := cacheCounters(t, batch), cacheCounters(t, one); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("one batch: cache counters %v, /v1/evaluate's one by one %v", got, want)
		}
	})
}

// cacheCounters scrapes the cache-level series of /metrics.
func cacheCounters(t *testing.T, s *Server) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, line := range strings.Split(serveRecorded(s, context.Background(), http.MethodGet, "/metrics", "").Body.String(), "\n") {
		series, value, _ := strings.Cut(line, " ")
		if strings.HasPrefix(series, "hcserve_cache_") || strings.HasPrefix(series, "hcserve_result_cache_") ||
			strings.HasPrefix(series, "hcserve_trace_cache_entries") {
			out[series] = value
		}
	}
	if len(out) < 6 {
		t.Fatalf("cache series missing from /metrics: %v", out)
	}
	return out
}
