// Command hcserve serves clustering-scenario evaluations over HTTP: POST a
// scenario JSON document (or an array of them), get the four-dimension
// evaluation of every strategy in it. Two cache levels absorb repeated
// work — a scenario-result LRU and a trace cache beneath it that records a
// tsunami trace once for every scenario that shares it — a concurrency
// limiter with a bounded wait queue sheds overload with 429 + Retry-After,
// and GET /metrics exposes the registry in Prometheus text format. See
// docs/OPERATIONS.md for the full runbook.
//
// Usage:
//
//	hcserve                            # listen on :8080
//	hcserve -addr :9090 -cache 512     # custom port and result-cache size
//	hcserve -workers 4                 # bound per-request parallelism
//	hcserve -result-cache-dir /var/hc/results -sweep-journal /var/hc/sweeps
//	                                   # restart-survivable results and sweeps
//	hcserve -max-concurrent 8 -queue-depth 32 -retry-after 2s
//	hcserve -eval-timeout 30s          # server-side deadline per evaluation
//	hcserve -result-cache-dir /tmp/r -fault 'resultcache.disk.write=error:1.0'
//	                                   # chaos drill
//	hcserve -max-sweeps 4 -max-sweep-cells 4096 -client-slot-cap 2
//
// Try it:
//
//	curl -s localhost:8080/v1/scenarios | head
//	curl -s -X POST localhost:8080/v1/evaluate \
//	     -d '{"name":"demo","machine":{"nodes":32},
//	          "placement":{"ranks":256,"procs_per_node":8},
//	          "trace":{"source":"synthetic"},
//	          "strategies":[{"kind":"hierarchical"}]}'
//	curl -s localhost:8080/metrics | grep hcserve_cache
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hierclust/internal/faultinject"
	"hierclust/pkg/hierclust"
	"hierclust/pkg/hierclust/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		cache   = flag.Int("cache", serve.DefaultCacheSize, "scenario-result LRU capacity (0 = default, negative disables)")
		workers = flag.Int("workers", 0, "per-request evaluation workers (0 = GOMAXPROCS)")

		traceCache   = flag.Int("trace-cache", 64, "in-memory trace cache capacity in tsunami traces (0 or negative disables)")
		maxConc      = flag.Int("max-concurrent", serve.DefaultMaxConcurrent, "evaluations executing at once")
		queueDepth   = flag.Int("queue-depth", 0, "evaluations waiting for a slot before 429 shedding (0 = 2x max-concurrent, negative = no queue)")
		retryAfter   = flag.Duration("retry-after", time.Second, "advisory Retry-After on 429/503 responses")
		maxBatch     = flag.Int("max-batch", serve.DefaultMaxBatch, "max scenarios per /v1/evaluate-batch request")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown grace period for in-flight evaluations")
		evalTimeout  = flag.Duration("eval-timeout", 0, "server-side deadline per evaluation / batch element, measured after admission (0 = none); exceeded = 504")

		resultDir    = flag.String("result-cache-dir", "", "directory for a persistent disk result cache beneath the result LRU (empty = none); after repeated disk failures it skips the disk, probed every 30s, and the LRU answers")
		resultDiskMB = flag.Int("result-cache-mb", 512, "disk result cache size bound in MiB (with -result-cache-dir)")
		sweepJournal = flag.String("sweep-journal", "", "directory of the crash-safe sweep journal, one record per unfinished sweep; accepted sweeps resume across restarts (empty = none)")

		clientCap     = flag.Int("client-slot-cap", 0, "max evaluation slots one client (X-Hierclust-Client) may hold at once (0 = max-concurrent-1)")
		maxSweepCells = flag.Int("max-sweep-cells", serve.DefaultMaxSweepCells, "max cells per /v1/sweeps submission")
		maxSweeps     = flag.Int("max-sweeps", serve.DefaultMaxConcurrentSweeps, "sweep jobs executing at once")
		maxSweepJobs  = flag.Int("max-sweep-jobs", serve.DefaultMaxSweepJobs, "finished sweep jobs retained for polling before eviction")
	)
	flag.Func("fault", "arm fault injection points, e.g. 'resultcache.disk.write=error:1.0,pipeline.worker=panic:0.01' (repeatable; chaos drills only)",
		faultinject.ArmSpec)
	flag.Parse()
	if armed := faultinject.Armed(); len(armed) > 0 {
		slog.Warn("hcserve: fault injection armed (chaos drill, not for production traffic)", "points", armed)
	}

	opts := []hierclust.PipelineOption{hierclust.WithWorkers(*workers)}
	if *traceCache > 0 {
		opts = append(opts, hierclust.WithTraceCache(hierclust.NewMemoryTraceCache(*traceCache)))
	}

	var resultCache *hierclust.DiskResultCache
	if *resultDir != "" {
		var err error
		if resultCache, err = hierclust.NewDiskResultCache(*resultDir, int64(*resultDiskMB)<<20); err != nil {
			fail(err)
		}
	}

	handler := serve.New(serve.Options{
		Pipeline:          hierclust.NewPipeline(opts...),
		CacheSize:         *cache,
		MaxConcurrent:     *maxConc,
		QueueDepth:        *queueDepth,
		RetryAfter:        *retryAfter,
		MaxBatchScenarios: *maxBatch,
		EvalTimeout:       *evalTimeout,
		ResultCache:       resultCache,

		ClientSlotCap:       *clientCap,
		MaxSweepCells:       *maxSweepCells,
		MaxConcurrentSweeps: *maxSweeps,
		MaxSweepJobs:        *maxSweepJobs,
	})
	if *sweepJournal != "" {
		// Logs how many jobs it resumed; fails on an older server's
		// single-file journal rather than drop its jobs.
		if _, err := handler.OpenSweepJournal(*sweepJournal); err != nil {
			fail(err)
		}
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	slog.Info("hcserve: listening", "addr", *addr)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	case <-ctx.Done():
		// Graceful drain: stop admitting new evaluations (queued waiters
		// get 503 immediately), then let the already-running ones finish
		// within the grace period.
		slog.Info("hcserve: draining", "grace", *drainTimeout)
		handler.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fail(err)
		}
		slog.Info("hcserve: drained")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hcserve:", err)
	os.Exit(1)
}
