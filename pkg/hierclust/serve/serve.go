// Package serve exposes the hierclust scenario pipeline as an HTTP
// service — the evaluation backend behind cmd/hcserve.
//
// Endpoints:
//
//	POST   /v1/evaluate              scenario JSON in → evaluation JSON out
//	POST   /v1/evaluate-batch        JSON array of scenarios in → NDJSON
//	                                 results out, streamed in input order as
//	                                 each completes
//	POST   /v1/sweeps                sweep JSON in → 202 and a job id; the
//	                                 cells run in the background
//	GET    /v1/sweeps/{id}           the job's status and progress
//	GET    /v1/sweeps/{id}/results   the cells' results as NDJSON, streamed
//	                                 in plan order as each lands
//	DELETE /v1/sweeps/{id}           cancel a running job (202), or drop a
//	                                 finished one (204)
//	GET    /v1/scenarios             list the built-in scenarios (full
//	                                 documents)
//	GET    /metrics                  Prometheus text exposition of the
//	                                 registry
//	GET    /healthz                  liveness probe
//
// A /v1/evaluate body is at most 1 MiB, a batch or sweep body at most
// 16 MiB (413 past either), and each arrives within 60 s of its headers
// (400 after).
//
// # One cell sequence
//
// A POST /v1/evaluate, each batch element and each sweep cell are the same
// evaluation: hierclust's cell sequence (result cache → admission →
// deadline → pipeline → render → cache fill), run by Pipeline.RunCell for
// the first and by the sweep executor for the others (a batch is a sweep
// without axes), with the same result cache, deadline and admission limiter
// wired in (interactive tier for requests, background tier for sweeps).
// One status mapping turns how a cell ended into its HTTP status, so the
// three endpoints answer a given failure alike.
//
// # Caching
//
// Two cache levels sit in front of the pipeline. Successful evaluations
// are cached in a result LRU keyed by the scenario's canonical encoding,
// so hot scenarios (dashboards, CI gates re-POSTing the same document)
// cost one pipeline run; a /v1/evaluate body that compacts to a resident
// key is answered from its bytes, with no scenario decode. Beneath it,
// when the pipeline is built with hierclust.WithTraceCache, recorded
// traces ("tsunami" sources) are cached by Scenario.TraceKey, so
// scenarios that differ only in strategies, mix, or baseline share one
// trace; synthetic stencils are cheaper to rebuild than to look up and
// never enter it. The
// X-Hierclust-Cache response header reports which level served the
// request: "hit" (result LRU, no pipeline run), "trace-hit" (pipeline ran,
// built no trace), or "miss" (pipeline ran and built the trace).
//
// # Admission control
//
// Requests that miss the result cache compete for a bounded pool of
// evaluation slots with a bounded wait queue. When the queue is full the
// request is shed immediately with 429 and a Retry-After header instead
// of queueing unboundedly; a draining server (Drain was called, shutdown
// in progress) answers 503. Cache hits bypass admission entirely.
//
// # Robustness
//
// Evaluations run under an optional server-side deadline
// (Options.EvalTimeout): a scenario that exceeds it is cancelled through
// the pipeline and answered 504 — in a batch or a sweep, per line. Panics
// anywhere in request handling are recovered at isolation boundaries
// (handler, pipeline worker, evaluation cell), answered 500 with a random
// incident id whose stack trace is logged server-side, and counted on
// hcserve_panics_total; the server keeps serving. When a disk result
// cache is mounted, its health (entries, bytes, IO error counters,
// quarantined corrupt files and degraded mode, in which the disk is
// skipped and the result LRU or a recompute answers) is surfaced on
// /metrics and /healthz.
//
// # Metrics
//
// Every interesting internal — request totals by endpoint and status,
// result- and trace-cache hits/misses, the pipeline's per-stage latency
// histograms (hcserve_stage_seconds), in-flight and queued evaluation
// counts, shed totals, recovered panics, deadline 504s, result-cache disk
// health — is registered in an internal/metrics Registry and exposed on
// GET /metrics. A computed /v1/evaluate also answers its own decode,
// lookup, queue, eval and render times in a Server-Timing header.
package serve

import (
	"bytes"
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hierclust/internal/faultinject"
	"hierclust/internal/lru"
	"hierclust/internal/metrics"
	"hierclust/internal/stage"
	"hierclust/pkg/hierclust"
)

// Options configures the handler.
type Options struct {
	// Pipeline runs the scenarios; nil builds a default pipeline. Wire
	// hierclust.WithTraceCache here to enable the trace-level cache; the
	// server reports its entry count on /metrics.
	Pipeline *hierclust.Pipeline
	// CacheSize bounds the scenario-result LRU (entries); 0 picks
	// DefaultCacheSize and negative disables caching.
	CacheSize int
	// MaxBatchScenarios bounds the element count of one batch; 0 picks
	// DefaultMaxBatch.
	MaxBatchScenarios int
	// MaxConcurrent bounds simultaneously executing evaluations; 0 picks
	// DefaultMaxConcurrent.
	MaxConcurrent int
	// QueueDepth bounds evaluations waiting for a slot before load
	// shedding begins; 0 picks 2×MaxConcurrent, negative disables
	// queueing (every contended request sheds).
	QueueDepth int
	// ClientSlotCap bounds how many evaluation slots one client (keyed by
	// the X-Hierclust-Client header, falling back to the remote address)
	// can hold at once, so a sweep job or an aggressive batch client
	// cannot starve interactive traffic; 0 picks MaxConcurrent-1 (floored
	// at 1).
	ClientSlotCap int
	// MaxSweepCells bounds the planned cell count of one POST /v1/sweeps
	// job; 0 picks DefaultMaxSweepCells.
	MaxSweepCells int
	// MaxConcurrentSweeps bounds simultaneously executing sweep jobs
	// (each job's cells then compete for evaluation slots one by one);
	// 0 picks DefaultMaxConcurrentSweeps.
	MaxConcurrentSweeps int
	// MaxSweepJobs bounds retained sweep jobs, finished ones included
	// (status and results stay queryable until evicted); 0 picks
	// DefaultMaxSweepJobs. When the store is full and every job is still
	// running, new submissions are rejected with 429.
	MaxSweepJobs int
	// RetryAfter is the advisory backoff returned with 429/503
	// responses; 0 picks 1s. Sub-second values round up to 1s (the
	// Retry-After header carries whole seconds).
	RetryAfter time.Duration
	// EvalTimeout bounds one evaluation (a batch element, a sweep cell),
	// measured after admission — queue wait does not count — and each build
	// cells share, from its start. An evaluation that exceeds the deadline
	// is cancelled and answered 504. 0 disables the deadline.
	EvalTimeout time.Duration
	// ResultCache, when non-nil, is mounted as a durable write-through
	// tier beneath the result LRU: every rendered result document is
	// stored in both, and an LRU miss consults the tier (promoting hits
	// back into the LRU) before the pipeline runs. Results are
	// deterministic by canonical scenario key, so a disk-served document
	// is bit-identical to a recomputed one — this is what lets the server
	// come back warm after a restart and lets journaled sweeps resume
	// recomputing only missing cells. Its health (error counters,
	// quarantines, degraded mode) is exposed on /metrics and /healthz.
	ResultCache *hierclust.DiskResultCache
}

// DefaultCacheSize is the scenario-result LRU capacity when Options leaves
// CacheSize zero.
const DefaultCacheSize = 128

// DefaultMaxConcurrent is the evaluation-slot count when Options leaves
// MaxConcurrent zero.
const DefaultMaxConcurrent = 4

// DefaultMaxBatch is the per-request scenario bound of /v1/evaluate-batch
// when Options leaves MaxBatchScenarios zero.
const DefaultMaxBatch = 256

// DefaultMaxSweepCells is the per-job planned-cell bound of POST /v1/sweeps
// when Options leaves MaxSweepCells zero.
const DefaultMaxSweepCells = 1024

// DefaultMaxConcurrentSweeps is the simultaneous sweep-job bound when
// Options leaves MaxConcurrentSweeps zero.
const DefaultMaxConcurrentSweeps = 2

// DefaultMaxSweepJobs is the job-store bound when Options leaves
// MaxSweepJobs zero.
const DefaultMaxSweepJobs = 64

// The body limits: a POST /v1/evaluate body holds one scenario, and a
// /v1/evaluate-batch or /v1/sweeps body an array of them or a sweep. A
// larger body is answered 413.
const (
	maxEvaluateBody = 1 << 20
	maxBatchBody    = 16 << 20
)

// Server is the HTTP evaluation service. It is an http.Handler; mount it
// directly or under a prefix.
type Server struct {
	mux         *http.ServeMux
	pipeline    *hierclust.Pipeline
	cache       *lru.Cache[[]byte]
	lim         *limiter
	maxBatch    int
	retryAfter  string // whole seconds, pre-rendered for the header
	evalTimeout time.Duration
	resultTier  *hierclust.DiskResultCache
	journal     *sweepJournal

	maxSweepCells int
	maxSweeps     int
	maxSweepJobs  int
	sweepMu       sync.Mutex
	sweepJobs     map[string]*sweepJob
	sweepOrder    []string // insertion order, for bounded-store eviction
	sweepWG       sync.WaitGroup

	// ctx is the server's lifetime: Drain cancels it, with cause errDraining,
	// under sweepMu. Sweep jobs run under it and the limiter's waiters leave
	// on it; a server is draining exactly when ctx.Err() != nil.
	ctx  context.Context
	stop context.CancelCauseFunc

	evictions atomic.Int64 // result-LRU entries pushed out by capacity

	reg             *metrics.Registry
	reqTotal        *metrics.CounterVec
	shedTotal       *metrics.Counter
	batchTotal      *metrics.Counter
	panicsTotal     *metrics.Counter
	timeoutsTotal   *metrics.Counter
	sweepJobsTotal  *metrics.Counter
	sweepCellsTotal *metrics.Counter
	sweepCellsDone  *metrics.Counter
	sweepCellHits   *metrics.Counter
	sweepCellsFail  *metrics.Counter
	sweepBuilds     *metrics.Counter
	sweepRefs       *metrics.Counter

	// hcserve_cache_{hits,misses}_total by level (levelResult, levelTrace),
	// resolved once: the hit path renders no label key.
	cacheHits, cacheMisses [2]*metrics.Counter
}

// New builds the service.
func New(opts Options) *Server {
	pl := opts.Pipeline
	if pl == nil {
		pl = hierclust.NewPipeline()
	}
	// An unset (or, but for CacheSize and QueueDepth, negative) bound takes
	// its default.
	size := cmp.Or(opts.CacheSize, DefaultCacheSize)
	maxBatch := cmp.Or(max(opts.MaxBatchScenarios, 0), DefaultMaxBatch)
	maxConc := cmp.Or(max(opts.MaxConcurrent, 0), DefaultMaxConcurrent)
	queue := max(cmp.Or(opts.QueueDepth, 2*maxConc), 0) // negative: no queue
	maxSweepCells := cmp.Or(max(opts.MaxSweepCells, 0), DefaultMaxSweepCells)
	maxSweeps := cmp.Or(max(opts.MaxConcurrentSweeps, 0), DefaultMaxConcurrentSweeps)
	maxSweepJobs := cmp.Or(max(opts.MaxSweepJobs, 0), DefaultMaxSweepJobs)
	retry := cmp.Or(max(opts.RetryAfter, 0), time.Second)
	retrySec := max(int(retry.Round(time.Second)/time.Second), 1)
	reg := metrics.NewRegistry()

	ctx, stop := context.WithCancelCause(context.Background())
	s := &Server{
		mux:           http.NewServeMux(),
		pipeline:      pl,
		cache:         lru.New[[]byte](int64(size), nil),
		lim:           newLimiter(maxConc, queue, opts.ClientSlotCap, ctx.Done()),
		maxBatch:      maxBatch,
		maxSweepCells: maxSweepCells,
		maxSweeps:     maxSweeps,
		maxSweepJobs:  maxSweepJobs,
		sweepJobs:     map[string]*sweepJob{},
		ctx:           ctx,
		stop:          stop,
		retryAfter:    strconv.Itoa(retrySec),
		evalTimeout:   opts.EvalTimeout,
		resultTier:    opts.ResultCache,
		reg:           reg,
	}
	s.reqTotal = reg.CounterVec("hcserve_requests_total",
		"HTTP requests served, by endpoint and status code.", "endpoint", "status")
	hits := reg.CounterVec("hcserve_cache_hits_total",
		"Cache hits by level: result (a lookup answered, no evaluation) or trace (an evaluation that built no trace).", "cache")
	misses := reg.CounterVec("hcserve_cache_misses_total",
		"Cache misses by level: result (a lookup unanswered) or trace (an evaluation that built its trace).", "cache")
	for level, name := range [...]string{levelResult: "result", levelTrace: "trace"} {
		s.cacheHits[level], s.cacheMisses[level] = hits.With(name), misses.With(name)
	}
	pl.Stages().Register(reg, "hcserve_stage_seconds",
		"Time spent in each stage of the pipeline's evaluations and of the requests that ran them.")
	s.shedTotal = reg.Counter("hcserve_shed_total",
		"Evaluations rejected with 429 because the wait queue was full.")
	s.batchTotal = reg.Counter("hcserve_batch_scenarios_total",
		"Scenario elements received by /v1/evaluate-batch.")
	reg.GaugeFunc("hcserve_inflight_evaluations",
		"Evaluations currently holding an execution slot.",
		func() float64 { return float64(s.lim.running()) })
	reg.GaugeFunc("hcserve_queued_evaluations",
		"Interactive evaluations waiting for an execution slot.",
		func() float64 { return float64(s.lim.queued()) })
	reg.GaugeFunc("hcserve_queued_background",
		"Background (sweep-cell) evaluations waiting for an execution slot.",
		func() float64 { return float64(s.lim.queuedBackground()) })
	reg.GaugeFunc("hcserve_evaluation_slots",
		"Configured evaluation-slot capacity (MaxConcurrent).",
		func() float64 { return float64(s.lim.capacity()) })
	reg.GaugeFunc("hcserve_result_cache_entries",
		"Entries resident in the scenario-result LRU.",
		func() float64 { return float64(s.cache.Len()) })
	reg.CounterFunc("hcserve_result_cache_hits_total",
		"Result-cache hits across every path (evaluate, batch, sweep cells; LRU and disk tier).",
		func() float64 { return float64(s.cacheHits[levelResult].Value()) })
	reg.CounterFunc("hcserve_result_cache_misses_total",
		"Result-cache misses across every path (evaluate, batch, sweep cells).",
		func() float64 { return float64(s.cacheMisses[levelResult].Value()) })
	reg.CounterFunc("hcserve_result_cache_evictions_total",
		"Entries evicted from the scenario-result LRU by capacity pressure.",
		func() float64 { return float64(s.evictions.Load()) })
	if s.resultTier != nil {
		registerTierMetrics(reg, s.resultTier)
	}
	s.panicsTotal = reg.Counter("hcserve_panics_total",
		"Panics recovered at an isolation boundary (request handler, pipeline worker, evaluation cell).")
	s.sweepJobsTotal = reg.Counter("hcserve_sweep_jobs_total",
		"Sweep jobs accepted by POST /v1/sweeps.")
	s.sweepCellsTotal = reg.Counter("hcserve_sweep_cells_total",
		"Cells planned across accepted sweep jobs.")
	s.sweepCellsDone = reg.Counter("hcserve_sweep_cells_completed_total",
		"Sweep cells evaluated to completion (cache hits excluded).")
	s.sweepCellHits = reg.Counter("hcserve_sweep_cell_cache_hits_total",
		"Sweep cells served from the result cache without evaluation.")
	s.sweepCellsFail = reg.Counter("hcserve_sweep_cells_failed_total",
		"Sweep cells that failed (including cancellation).")
	s.sweepBuilds = reg.Counter("hcserve_sweep_node_builds_total",
		"Distinct shared-node builds (traces + partitions) planned across accepted sweeps; builds/refs is the dedup ratio's complement.")
	s.sweepRefs = reg.Counter("hcserve_sweep_node_refs_total",
		"Per-cell shared-node references (traces + partitions) planned across accepted sweeps.")
	reg.GaugeFunc("hcserve_sweeps_running",
		"Sweep jobs currently executing.",
		func() float64 { return float64(s.runningSweeps()) })
	s.timeoutsTotal = reg.Counter("hcserve_eval_timeouts_total",
		"Evaluations cut off by the server-side deadline and answered 504.")
	if tc := pl.TraceCache(); tc != nil {
		reg.GaugeFunc("hcserve_trace_cache_entries", "Entries resident in the trace cache, builds in flight included.",
			func() float64 { return float64(tc.Len()) })
	}

	s.mux.HandleFunc("POST /v1/evaluate", s.instrument("evaluate", s.handleEvaluate))
	s.mux.HandleFunc("POST /v1/evaluate-batch", s.instrument("evaluate-batch", s.handleEvaluateBatch))
	s.mux.HandleFunc("POST /v1/sweeps", s.instrument("sweeps", s.handleSweepSubmit))
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.instrument("sweep-status", s.handleSweepStatus))
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.instrument("sweep-results", s.handleSweepResults))
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.instrument("sweep-delete", s.handleSweepDelete))
	s.mux.HandleFunc("GET /v1/scenarios", s.instrument("scenarios", s.handleScenarios))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain puts the server into shutdown mode: queued evaluations are
// released with 503, new expensive work is rejected with 503 + Retry-After,
// running sweep jobs are cancelled (their completed cells are already in
// the result cache, so a resubmit elsewhere resumes), and cheap reads
// (cache hits, scenario listings, metrics, health, sweep status) keep
// answering so load balancers and scrapers see the drain happen. Call it
// before http.Server.Shutdown, which then waits for the already-running
// evaluations to finish; Drain itself waits for sweep-job goroutines to
// stop.
func (s *Server) Drain() {
	// Cancel under sweepMu: storeSweepJob re-checks s.ctx and registers
	// with sweepWG inside the same critical section, so once this unlocks
	// no new sweep job can be added and sweepWG.Wait below observes every
	// job goroutine.
	s.sweepMu.Lock()
	s.stop(errDraining)
	s.sweepMu.Unlock()
	s.sweepWG.Wait()
}

// CacheStats returns the lifetime result-cache hit/miss counters and
// current size.
func (s *Server) CacheStats() (hits, misses int64, size int) {
	return int64(s.cacheHits[levelResult].Value()), int64(s.cacheMisses[levelResult].Value()), s.cache.Len()
}

// serverResultCache is the server's tiered result cache — the LRU over the
// optional durable tier — as the SweepResultCache every endpoint's cells
// read and fill.
type serverResultCache struct{ s *Server }

// Get consults the result LRU, then the durable tier (when mounted),
// promoting tier hits back into the LRU, and counts the lookup. Either
// source is a cache hit — results are deterministic by key, so a disk
// document is bit-identical to a resident one.
func (c serverResultCache) Get(key string) ([]byte, bool) {
	s := c.s
	doc, ok := s.cache.Get(key)
	if !ok && s.resultTier != nil {
		if doc, ok = s.resultTier.Get(key); ok {
			s.lruPut(key, doc)
		}
	}
	s.countCache(levelResult, ok)
	return doc, ok
}

// Put stores a rendered result document in the LRU and writes it through
// to the durable tier (when mounted).
func (c serverResultCache) Put(key string, doc []byte) {
	c.s.lruPut(key, doc)
	if c.s.resultTier != nil {
		c.s.resultTier.Put(key, doc)
	}
}

// lruPut stores a copy of doc in the result LRU — the cache owns its bytes
// outright, so a caller reusing or mutating its slice afterwards cannot
// corrupt what later requests are served — and counts the evictions.
func (s *Server) lruPut(key string, doc []byte) {
	s.evictions.Add(int64(s.cache.Put(key, append([]byte(nil), doc...), 1)))
}

// The levels of hcserve_cache_{hits,misses}_total. A result outcome is one
// lookup (serverResultCache.Get, for every endpoint; also the lifetime
// counters behind CacheStats and /healthz); a trace outcome is one computed
// cell (a hit built no trace, a miss built one).
const (
	levelResult = iota
	levelTrace
)

// countCache records one outcome at a level.
func (s *Server) countCache(level int, hit bool) {
	if hit {
		s.cacheHits[level].Inc()
	} else {
		s.cacheMisses[level].Inc()
	}
}

// tierMetric is one row of the disk result cache's /metrics surface.
type tierMetric struct {
	name, help string
	counter    bool // false = gauge
	value      func(hierclust.ResultCacheStats) float64
}

func statReadErrors(st hierclust.ResultCacheStats) float64  { return float64(st.ReadErrors) }
func statWriteErrors(st hierclust.ResultCacheStats) float64 { return float64(st.WriteErrors) }
func statQuarantined(st hierclust.ResultCacheStats) float64 { return float64(st.Quarantined) }
func statEntries(st hierclust.ResultCacheStats) float64     { return float64(st.Entries) }
func statBytes(st hierclust.ResultCacheStats) float64       { return float64(st.Bytes) }
func statDegraded(st hierclust.ResultCacheStats) float64 {
	if st.Degraded {
		return 1
	}
	return 0
}

var resultTierMetrics = []tierMetric{
	{"hcserve_result_cache_disk_read_errors_total", "Failed result-cache disk read attempts (each retry counts).", true, statReadErrors},
	{"hcserve_result_cache_disk_write_errors_total", "Failed result-cache disk write attempts (each retry counts).", true, statWriteErrors},
	{"hcserve_result_cache_quarantined_total", "Corrupt result-cache files quarantined to .bad for post-mortem.", true, statQuarantined},
	{"hcserve_result_cache_degraded", "1 while the disk result cache skips the disk after repeated disk failures (lookups miss to the result LRU or a recompute).", false, statDegraded},
	{"hcserve_result_cache_disk_entries", "Result documents resident in the disk result-cache tier.", false, statEntries},
	{"hcserve_result_cache_disk_bytes", "Bytes stored by the disk result-cache tier.", false, statBytes},
}

// registerTierMetrics exposes the disk result cache's stats as the
// resultTierMetrics rows.
func registerTierMetrics(reg *metrics.Registry, c *hierclust.DiskResultCache) {
	for _, m := range resultTierMetrics {
		fn := func() float64 { return m.value(c.Stats()) }
		if m.counter {
			reg.CounterFunc(m.name, m.help, fn)
		} else {
			reg.GaugeFunc(m.name, m.help, fn)
		}
	}
}

// statusWriter records the response status for the request-total metric.
// It forwards Flush so NDJSON streaming keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets an http.ResponseController reach the connection beneath.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with the per-endpoint request counter and the
// outermost panic isolation boundary: a handler panic is answered 500 with
// an incident id (when the response has not started) instead of killing
// the connection, and the server keeps serving.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				id := s.reportPanic(v, debug.Stack())
				if sw.status == 0 {
					s.writeError(sw, http.StatusInternalServerError, incidentErr(id))
				}
			}
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			var code [8]byte // the status label, rendered on the stack
			s.reqTotal.With(endpoint, string(strconv.AppendInt(code[:0], int64(status), 10))).Inc()
		}()
		h(sw, r)
	}
}

// reportPanic logs a recovered panic with its stack under a short random
// incident id — the correlation token the client gets instead of the stack
// — and counts it on hcserve_panics_total.
func (s *Server) reportPanic(v any, stack []byte) string {
	id := incidentID()
	s.panicsTotal.Inc()
	slog.Error("hcserve: recovered panic", "incident", id, "err", v, "stack", string(stack))
	return id
}

func incidentID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// incidentErr is the client-facing form of a recovered panic: no internal
// detail, just the token to grep server logs for.
func incidentErr(id string) error {
	return fmt.Errorf("hierclust: internal error; incident %s", id)
}

// errorDoc is the JSON error envelope.
type errorDoc struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorDoc{Error: err.Error()})
}

// statusClientClosed is the non-standard 499 reported when the client went
// away mid-evaluation (nginx's convention).
const statusClientClosed = 499

// clientKey identifies the client for per-client admission accounting:
// the X-Hierclust-Client header when present (the cooperative path —
// fleets and CI runners set it), otherwise the remote host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Hierclust-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// decodeScenario parses and policy-checks one scenario document, mapping
// failures to an HTTP status.
func decodeScenario(body []byte) (*hierclust.Scenario, int, error) {
	sc, err := hierclust.DecodeScenario(body)
	if err != nil {
		return nil, invalidStatus(err), err
	}
	if err := checkHTTPSource(sc.Trace); err != nil {
		return nil, http.StatusBadRequest, err
	}
	return sc, 0, nil
}

// invalidStatus maps a validation failure: 422 for a size past the bound.
func invalidStatus(err error) int {
	var tooBig *hierclust.SizeError
	if errors.As(err, &tooBig) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// checkHTTPSource rejects a trace source HTTP clients may not name, for
// scenarios and sweeps alike: trace files are a local-filesystem feature,
// and accepting paths over HTTP would let any client read arbitrary server
// files.
func checkHTTPSource(t hierclust.TraceSpec) error {
	if t.Source == "file" {
		return errors.New("hierclust: trace source \"file\" is not accepted over HTTP; inline a synthetic or tsunami source")
	}
	return nil
}

var (
	errDraining = errors.New("hierclust: server draining")
	errShed     = errors.New("hierclust: evaluation queue full")
	// The messages a drained or cancelled cell is answered with.
	errDrainingRetry = fmt.Errorf("%w; retry against another replica", errDraining)
	errCancelled     = errors.New("hierclust: evaluation cancelled by the client")
)

// admit is the SweepOptions.Acquire of every endpoint: an evaluation slot
// for client in the interactive or the background (sweep-cell) tier, or
// the error cellStatus ranks the refusal with.
func (s *Server) admit(ctx context.Context, client string, background bool) (func(), error) {
	adm, release := s.lim.acquire(ctx, client, background)
	switch adm {
	case admissionShed:
		return nil, fmt.Errorf("%w (%d running, %d queued); retry after %ss",
			errShed, s.lim.running(), s.lim.queued(), s.retryAfter)
	case admissionDraining:
		return nil, errDraining
	case admissionCancelled:
		return nil, ctx.Err()
	}
	return release, nil
}

// cellStatus is the one status mapping of /v1/evaluate, batch lines and
// sweep lines: it ranks how a cell run under ctx (the request's, or the
// sweep job's) ended and counts what the status stands for. Success is 200,
// and a computed cell counts its trace level. A recovered panic is a server
// bug (500 + incident id); a full queue sheds (429); a draining server
// answers 503; a client that went away — a closed connection, a DELETEd
// sweep — is not a server error (499); a deadline the server imposed is a
// timeout (504); anything else is a scenario problem (422: the inputs were
// already validated, so a machine that cannot be built has bad parameters).
func (s *Server) cellStatus(ctx context.Context, res hierclust.SweepCellResult) (int, error) {
	err := res.Err
	if err == nil {
		if res.Cache != "hit" {
			s.countCache(levelTrace, res.Cache == "trace-hit")
		}
		return http.StatusOK, nil
	}
	var pe *hierclust.PanicError
	switch {
	case errors.As(err, &pe):
		return http.StatusInternalServerError, incidentErr(s.reportPanic(pe.Value, pe.Stack))
	case errors.Is(err, errShed):
		s.shedTotal.Inc()
		return http.StatusTooManyRequests, err
	case errors.Is(err, errDraining), errors.Is(context.Cause(ctx), errDraining):
		return http.StatusServiceUnavailable, errDrainingRetry
	case ctx.Err() != nil:
		return statusClientClosed, errCancelled
	case errors.Is(err, context.DeadlineExceeded):
		s.timeoutsTotal.Inc()
		return http.StatusGatewayTimeout, fmt.Errorf("hierclust: evaluation exceeded the server's %s deadline", s.evalTimeout)
	}
	return http.StatusUnprocessableEntity, err
}

// maxSizedBody is the largest declared Content-Length readBody allocates
// up front. A larger body grows as its bytes arrive, so a client that
// declares megabytes and then stalls holds no more than it sent.
const maxSizedBody = 64 << 10

// bodyTimeout bounds how long readBody waits for a body's bytes. It is a
// variable only so this package's tests can shorten it.
var bodyTimeout = 60 * time.Second

// readBody reads a request body of at most limit bytes, into a slice of
// exactly Content-Length bytes when the client declared at most
// maxSizedBody. On failure it answers the request itself — 413 over the
// limit, on a declared Content-Length before any byte is read, otherwise 400
// (e.g. the client disconnected mid-upload or stalled past bodyTimeout) — and
// reports false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	// Only a request a server read from a connection has a deadline to
	// set; for any other writer the controller's ErrNotSupported would cost
	// two objects a request.
	var rc *http.ResponseController
	if r.Context().Value(http.ServerContextKey) != nil {
		rc = http.NewResponseController(w)
		if rc.SetReadDeadline(time.Now().Add(bodyTimeout)) != nil {
			rc = nil
		}
	}
	var body []byte
	var err error
	switch n := r.ContentLength; {
	case n > limit:
		err = &http.MaxBytesError{Limit: limit}
	case n > 0 && n <= maxSizedBody:
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	default: // chunked (-1), empty, or sized past maxSizedBody
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	}
	if err != nil {
		// The deadline stays: net/http reads what is left of a short body
		// before it answers, and that read must not wait either.
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, status, fmt.Errorf("reading body: %w", err))
		return nil, false
	}
	// Cleared once the body is in: net/http's background read of the
	// connection would otherwise hit it during a long evaluation and cancel
	// r.Context(). (net/http clears it too when that read starts at the
	// body's EOF, but does not document it. A server ReadTimeout would also
	// cut off the sweep result streams.)
	if rc != nil {
		rc.SetReadDeadline(time.Time{})
	}
	return body, true
}

// docBufs lends each POST /v1/evaluate the buffer it compacts its body into
// and indents its answer into.
var docBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledDoc bounds the buffers docBufs keeps, so one large document does
// not stay pinned.
const maxPooledDoc = 64 << 10

// handleEvaluate answers a resident result from the body's compact form, and
// runs anything else as a lone cell (RunCell): a result-cache hit plans
// nothing.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if err := faultinject.Hit("serve.evaluate"); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	body, ok := s.readBody(w, r, maxEvaluateBody)
	if !ok {
		return
	}
	buf := docBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledDoc {
			docBufs.Put(buf)
		}
	}()
	// Every result-LRU key is the CacheKey of a scenario that passed
	// decodeScenario, and decoding a key gives back a scenario with that
	// key. Decoding ignores whitespace, so a body that compacts to a
	// resident key would decode to that key's scenario: its document is the
	// answer, found without decoding. A failed probe counts nothing; the
	// decode path's lookup is the counted one.
	buf.Reset()
	if json.Compact(buf, body) == nil {
		if doc, ok := s.cache.GetBytes(buf.Bytes()); ok {
			s.countCache(levelResult, true)
			s.writeDoc(w, buf, "hit", doc)
			return
		}
	}
	t := stage.Enter(stage.Decode)
	sc, status, err := decodeScenario(body)
	decoded := s.pipeline.Stages().Leave(r.Context(), stage.Decode, t)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	res, tm := s.pipeline.RunCell(r.Context(), sc, hierclust.SweepOptions{
		ResultCache: serverResultCache{s},
		CellTimeout: s.evalTimeout,
		Acquire: func(ctx context.Context) (func(), error) {
			return s.admit(ctx, clientKey(r), false)
		},
	})
	if status, err = s.cellStatus(r.Context(), res); err != nil {
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", s.retryAfter)
		}
		s.writeError(w, status, err)
		return
	}
	if res.Cache != "hit" {
		w.Header().Set("Server-Timing", serverTiming(decoded, &tm))
	}
	s.writeDoc(w, buf, res.Cache, res.Doc)
}

// serverTiming renders a computed evaluation's request stages, its cell's
// times after its decode, as a Server-Timing value in ms: "decode;dur=0.031, ...".
func serverTiming(decoded time.Duration, tm *stage.Times) string {
	tm[stage.Decode] = decoded
	var b [160]byte
	out := b[:0]
	for _, st := range [...]stage.Stage{stage.Decode, stage.Lookup, stage.Queue, stage.Eval, stage.Render} {
		out = append(append(out, st.String()...), ";dur="...)
		out = append(strconv.AppendFloat(out, float64(tm[st])/float64(time.Millisecond), 'f', 3, 64), ", "...)
	}
	return string(out[:len(out)-2])
}

// writeDoc answers 200 with a result document indented into buf: responses
// stay human-readable (the documented curl workflow), while the cache holds
// the compact form shared with the batch endpoint.
func (s *Server) writeDoc(w http.ResponseWriter, buf *bytes.Buffer, cache string, doc []byte) {
	buf.Reset()
	if err := json.Indent(buf, doc, "", "  "); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	buf.WriteByte('\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Hierclust-Cache", cache)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	doc, err := json.MarshalIndent(hierclust.BuiltinScenarios(), "", "  ")
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(doc, '\n'))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// healthDoc is the GET /healthz body. Status is "ok", "degraded" (the
// disk result cache is skipping the disk; results are still correct and
// bit-identical, the disk needs attention), or "draining" (shutdown in
// progress; stop routing here).
type healthDoc struct {
	Status       string          `json:"status"`
	CacheEntries int             `json:"cache_entries"`
	CacheHits    int64           `json:"cache_hits"`
	CacheMisses  int64           `json:"cache_misses"`
	ResultCache  *cacheHealthDoc `json:"result_cache,omitempty"`
}

// cacheHealthDoc is the /healthz view of the disk result cache.
type cacheHealthDoc struct {
	Degraded    bool  `json:"degraded"`
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	ReadErrors  int64 `json:"read_errors"`
	WriteErrors int64 `json:"write_errors"`
	Quarantined int64 `json:"quarantined"`
}

// tierHealth renders the tier's stats and downgrades the overall status
// when the tier is degraded.
func tierHealth(c *hierclust.DiskResultCache, status *string) *cacheHealthDoc {
	st := c.Stats()
	doc := &cacheHealthDoc{
		Degraded:    st.Degraded,
		Entries:     st.Entries,
		Bytes:       st.Bytes,
		ReadErrors:  st.ReadErrors,
		WriteErrors: st.WriteErrors,
		Quarantined: st.Quarantined,
	}
	if st.Degraded {
		*status = "degraded"
	}
	return doc
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hits, misses, size := s.CacheStats()
	doc := healthDoc{Status: "ok", CacheEntries: size, CacheHits: hits, CacheMisses: misses}
	if rc := s.resultTier; rc != nil {
		doc.ResultCache = tierHealth(rc, &doc.Status)
	}
	if s.ctx.Err() != nil {
		doc.Status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(doc)
}
