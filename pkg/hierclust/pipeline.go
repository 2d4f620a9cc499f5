package hierclust

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"hierclust/internal/core"
	"hierclust/internal/faultinject"
	"hierclust/internal/graph"
	"hierclust/internal/pool"
	"hierclust/internal/trace"
	"hierclust/internal/tsunami"
)

// PanicError wraps a panic recovered at one of the pipeline's isolation
// boundaries — a strategy-evaluation worker goroutine, the singleflight
// trace build, or Run itself. The boundary converts a bug in one scenario
// (or an injected chaos panic) into an error on that Run instead of a dead
// process; hcserve maps it to a 500 with an incident id. Match with
// errors.As to reach the original value and stack.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("hierclust: internal panic: %v", e.Value)
}

// recoverAsError converts an in-flight panic into *PanicError at a defer
// boundary. It must be deferred directly (recover only works one frame up).
func recoverAsError(errp *error) {
	if v := recover(); v != nil {
		*errp = &PanicError{Value: v, Stack: debug.Stack()}
	}
}

// Pipeline runs scenarios through the trace→cluster→evaluate engine. The
// zero value is not usable; construct with NewPipeline. A Pipeline is safe
// for concurrent Run calls — hcserve shares one across requests.
type Pipeline struct {
	workers    int
	traceCache TraceCache

	// flight deduplicates concurrent builds of the same trace: when two
	// requests miss the trace cache on the same key, the second waits for
	// the first build instead of launching a second application run.
	flightMu sync.Mutex
	flight   map[string]*traceFlight

	// Free build memory, kept at its peak (docs/OPERATIONS.md, Build memory):
	// a buffer per clustering live at once (1.95 MB at 131,072 ranks), an
	// arena per hierarchical build running at once (14.0 MB there).
	bufs   freeList[core.ClusteringBuf]
	arenas freeList[graph.Arena]
}

// freeList lends a pipeline's build memory, last returned first (its shape is
// likeliest the next build's). It has no capacity and frees nothing: it holds
// as many items as were ever lent at once, each at the largest shape it served.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// lend takes the item returned last, or a new one when none is free.
func (l *freeList[T]) lend() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free[n-1], l.free = nil, l.free[:n-1]
		return x
	}
	return new(T)
}

// give hands x back, and what was built in it is dead; nil is a no-op.
func (l *freeList[T]) give(x *T) {
	if x == nil {
		return
	}
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}

// traceFlight is one in-progress trace build; waiters block on done.
type traceFlight struct {
	done chan struct{}
	comm Comm
	err  error
}

// PipelineOption customizes a Pipeline.
type PipelineOption func(*Pipeline)

// WithWorkers bounds the worker pool used for concurrent strategy
// evaluation and for the reliability model's sharded enumeration/sampling.
// 0 (the default) means GOMAXPROCS. Results are bit-identical at any
// worker count.
func WithWorkers(n int) PipelineOption {
	return func(p *Pipeline) { p.workers = n }
}

// WithTraceCache caches traced application runs ("tsunami" sources) by
// Scenario.TraceKey, so scenarios that share a trace — same ranks and
// iterations, any strategies/mix/baseline — never re-run the traced
// application. Concurrent misses on the same key coalesce into one build.
// Synthetic and file sources are built inline and never enter the cache.
// nil (the default) disables caching.
func WithTraceCache(tc TraceCache) PipelineOption {
	return func(p *Pipeline) { p.traceCache = tc }
}

// TraceCache returns the cache the pipeline was built with (WithTraceCache),
// nil when it has none — how hcserve finds the trace tier whose health it
// reports.
func (pl *Pipeline) TraceCache() TraceCache { return pl.traceCache }

// NewPipeline builds a pipeline with the given options.
func NewPipeline(opts ...PipelineOption) *Pipeline {
	p := &Pipeline{flight: map[string]*traceFlight{}}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Result is the outcome of running one scenario: the shared rig summary
// plus one evaluation per strategy, in scenario order. The JSON encoding is
// stable and is what hcserve returns from POST /v1/evaluate.
type Result struct {
	// Scenario echoes the scenario name.
	Scenario string `json:"scenario"`
	// Machine names the resolved machine model.
	Machine string `json:"machine"`
	// Ranks and Nodes describe the resolved placement.
	Ranks int `json:"ranks"`
	Nodes int `json:"nodes"`
	// TotalBytes and TotalMsgs summarize the trace.
	TotalBytes int64 `json:"total_bytes"`
	TotalMsgs  int64 `json:"total_msgs"`
	// Baseline is the envelope the evaluations were judged against.
	Baseline BaselineSpec `json:"baseline"`
	// Evaluations scores each strategy, in scenario order.
	Evaluations []StrategyResult `json:"evaluations"`
}

// StrategyResult is one strategy's clustering shape and four-dimension
// score.
type StrategyResult struct {
	// Strategy is the instantiated strategy name (e.g. "naive-32").
	Strategy string `json:"strategy"`
	// Kind is the registry kind that produced it.
	Kind string `json:"kind"`
	// L1Clusters, Groups and MaxGroupSize describe the clustering.
	L1Clusters   int `json:"l1_clusters"`
	Groups       int `json:"groups"`
	MaxGroupSize int `json:"max_group_size"`
	// The four dimensions of the paper's optimization space.
	LoggedFraction     float64 `json:"logged_fraction"`
	RecoveryFraction   float64 `json:"recovery_fraction"`
	EncodeSecondsPerGB float64 `json:"encode_seconds_per_gb"`
	CatastropheProb    float64 `json:"catastrophe_prob"`
	// WithinBaseline reports whether all four dimensions meet the
	// envelope; Violations lists the failing ones.
	WithinBaseline bool     `json:"within_baseline"`
	Violations     []string `json:"violations,omitempty"`
}

// Run evaluates a scenario. The context cancels the run — between stages,
// between strategy evaluations, and *inside* the reliability model's
// enumeration and Monte Carlo loops, so even a long chunked sampling run
// observes cancellation within milliseconds; a canceled run returns
// ctx.Err(). Strategies evaluate concurrently up to the pipeline's worker
// bound, and results are returned in scenario order regardless of
// completion order. A panic anywhere in the run (a strategy bug, a trace
// builder bug) is recovered at the nearest isolation boundary and returned
// as a *PanicError instead of crashing the process. Run returns the Result
// itself; RunCell is the same evaluation behind a result cache, admission
// and a deadline, rendered to its JSON document.
func (pl *Pipeline) Run(ctx context.Context, sc *Scenario) (res *Result, err error) {
	// res is assigned only by evalCell returning, so a recovered panic
	// leaves it nil.
	defer recoverAsError(&err)
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	// A single evaluation is a one-cell plan with no shared nodes: its
	// strategies fan out across the whole worker budget.
	workers, evalWorkers := pl.splitBudget(0, len(sc.Strategies))
	res, _, err = pl.evalCell(ctx, nil, &PlannedCell{Scenario: sc, PlacementNode: -1, TraceNode: -1, TraceBuilder: true}, workers, evalWorkers)
	return res, err
}

// splitBudget resolves how n independent items (a scenario's strategies, a
// sweep's cells) share the pipeline's worker budget: the pool width — want,
// or the whole budget when want <= 0, capped at n — and each item's share
// of the remainder, which goes to its reliability model (whose results are
// worker-invariant), so a wide machine is not serialized on the slowest
// item. The split never changes a bit of output.
func (pl *Pipeline) splitBudget(want, n int) (workers, evalWorkers int) {
	budget := pl.workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	workers = want
	if workers <= 0 {
		workers = budget
	}
	workers = max(min(workers, n), 1)
	return workers, max(budget/workers, 1)
}

// evalCell is the one cell sequence — machine → placement → trace →
// rank-count check → result shell → per-strategy build and score — behind
// Run and runSweepCell, for a private cell (run == nil) or a sweep's.
// Intermediates the run shares (the cell's placement, trace, partition
// and logged-fraction nodes) come from its node tables; everything else is
// built privately under ctx. Strategies evaluate on up to strategyWorkers
// goroutines, each scoring with evalWorkers; results land in scenario order
// regardless of completion order. cache labels how the trace was satisfied:
// "miss" (this cell performed the build) or "trace-hit" (shared node or
// trace cache).
func (pl *Pipeline) evalCell(ctx context.Context, run *sweepRun, cell *PlannedCell, strategyWorkers, evalWorkers int) (res *Result, cache string, err error) {
	sc := cell.Scenario
	var at placed
	if run != nil && cell.PlacementNode >= 0 {
		at, err = run.places[cell.PlacementNode].get(&run.placeBuilds, sc.resolvePlacement)
	} else {
		at, err = sc.resolvePlacement()
	}
	if err != nil {
		return nil, "", err
	}
	mach, placement := at.mach, at.placement
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	var tr traced
	if run != nil && cell.TraceNode >= 0 {
		tr, err = run.traces[cell.TraceNode].get(&run.traceBuilds, func() (tr traced, err error) {
			ctx, cancel := run.buildCtx()
			defer cancel()
			tr.comm, tr.outcome, err = pl.resolveTrace(ctx, sc, placement)
			return tr, err
		})
	} else {
		if run != nil {
			run.traceBuilds.Add(1)
		}
		tr.comm, tr.outcome, err = pl.resolveTrace(ctx, sc, placement)
	}
	if err != nil {
		return nil, "", err
	}
	comm, outcome := tr.comm, tr.outcome
	// Deterministic label: the plan-designated builder reports the
	// underlying build outcome; every sharer reports "trace-hit",
	// regardless of which worker actually reached the node first.
	cache = "trace-hit"
	if cell.TraceBuilder && outcome != "hit" {
		cache = "miss"
	}
	if comm.Ranks() != placement.NumRanks() {
		return nil, "", fmt.Errorf("hierclust: scenario %q: trace covers %d ranks, placement %d",
			sc.Name, comm.Ranks(), placement.NumRanks())
	}
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}

	mix := sc.Mix.Mix()
	res = &Result{
		Scenario:    sc.Name,
		Machine:     mach.Name,
		Ranks:       placement.NumRanks(),
		Nodes:       placement.NumUsed(),
		TotalBytes:  comm.TotalBytes(),
		TotalMsgs:   comm.TotalMsgs(),
		Baseline:    BaselineSpec(sc.Baseline.Baseline()), // same fields; the conversion keeps them in step
		Evaluations: make([]StrategyResult, len(sc.Strategies)),
	}
	// Strategies are independent. The first failure stops further claims;
	// the lowest-index error is reported, which — indices being claimed in
	// ascending order — is the same error at any worker count.
	errs := make([]error, len(sc.Strategies))
	var failed atomic.Bool
	// The workers capture the node slices, not the cell, so RunCell's cell
	// stays on its stack, and re-derive the baseline from sc.
	parts, logged := cell.PartNodes, cell.loggedNodes
	pool.Run(len(sc.Strategies), strategyWorkers,
		func() bool { return failed.Load() || ctx.Err() != nil },
		func(j, _ int) {
			node, loggedNode := -1, -1
			if run != nil {
				node, loggedNode = parts[j], logged[j]
			}
			if errs[j] = pl.evalStrategy(ctx, run, sc.Strategies[j], node, loggedNode, comm, placement, mix, sc.Baseline.Baseline(), evalWorkers, &res.Evaluations[j]); errs[j] != nil {
				failed.Store(true)
			}
		})
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	for j, err := range errs {
		if err != nil {
			return nil, "", fmt.Errorf("hierclust: scenario %q: strategy %q: %w", sc.Name, sc.Strategies[j].Kind, err)
		}
	}
	return res, cache, nil
}

// evalStrategy takes spec's clustering and score profile, and their logged
// fraction over comm — each the run's shared node (node, loggedNode >= 0)
// or its own, built under ctx — and does the per-cell part: weigh the
// profile with the cell's mix, judge it against the baseline and render the
// row into out. It is the per-strategy panic boundary: a panicking strategy
// (or the "pipeline.worker" chaos point) fails its own evaluation as a
// *PanicError without taking down the sibling workers or the process.
func (pl *Pipeline) evalStrategy(ctx context.Context, run *sweepRun, spec StrategySpec, node, loggedNode int, comm Comm, placement *Placement, mix Mix, baseline Baseline, workers int, out *StrategyResult) (err error) {
	defer recoverAsError(&err)
	if err := faultinject.Hit("pipeline.worker"); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var sd scored
	if node >= 0 {
		sd, err = run.parts[node].get(&run.partBuilds, func() (scored, error) {
			ctx, cancel := run.buildCtx()
			defer cancel()
			return pl.buildScored(ctx, spec, comm, placement)
		})
	} else {
		if run != nil {
			run.partBuilds.Add(1)
		}
		sd, err = pl.buildScored(ctx, spec, comm, placement)
		// A private build's buffer goes back once the row below is rendered.
		defer pl.bufs.give(sd.buf)
	}
	if err != nil {
		return err
	}
	c := sd.c
	e, err := sd.buf.Profile().Evaluate(ctx, mix, workers)
	if err != nil {
		return err
	}
	if loggedNode >= 0 {
		e.LoggedFraction, err = run.logged[loggedNode].get(&run.loggedBuilds, func() (float64, error) {
			return comm.LoggedFraction(c.L1)
		})
	} else {
		e.LoggedFraction, err = comm.LoggedFraction(c.L1)
	}
	if err != nil {
		return err
	}
	ok, violations := e.Meets(baseline)
	*out = StrategyResult{
		Strategy:           c.Name,
		Kind:               spec.Kind,
		L1Clusters:         c.NumClusters(),
		Groups:             len(c.Groups),
		MaxGroupSize:       c.MaxGroupSize(),
		LoggedFraction:     e.LoggedFraction,
		RecoveryFraction:   e.RecoveryFraction,
		EncodeSecondsPerGB: e.EncodeSecondsPerGB,
		CatastropheProb:    e.CatastropheProb,
		WithinBaseline:     ok,
		Violations:         violations,
	}
	return nil
}

// buildScored instantiates spec, builds its clustering and scores it into
// the profile of a lent buffer, sd.buf — the unit the sweep executor shares
// across cells by partitionKey; weighing only reads it, so many cells may
// weigh one build concurrently. A built-in strategy builds into the buffer
// (and a lent arena) too; a third-party one builds where it likes. The
// caller gives sd.buf back once nothing reads it; on error there is none.
func (pl *Pipeline) buildScored(ctx context.Context, spec StrategySpec, comm Comm, placement *Placement) (sd scored, err error) {
	st, err := NewStrategy(spec)
	if err != nil {
		return sd, err
	}
	sd.buf = pl.bufs.lend()
	switch st := st.(type) {
	case builtinStrategy:
		ar := pl.arenas.lend()
		sd.c, err = st.buildIn(ctx, comm, placement, sd.buf, ar)
		pl.arenas.give(ar)
	case CtxStrategy:
		sd.c, err = st.BuildCtx(ctx, comm, placement)
	default:
		sd.c, err = st.Build(comm, placement)
	}
	if err != nil {
		pl.bufs.give(sd.buf)
		return scored{}, cmp.Or(ctx.Err(), err)
	}
	if err := sd.buf.Profile().Init(ctx, sd.c, placement); err != nil {
		pl.bufs.give(sd.buf)
		return scored{}, err
	}
	return sd, nil
}

// resolveTrace returns the scenario's communication matrix. Only a traced
// application run ("tsunami") is worth keeping, so only it consults the
// trace cache (and the in-flight build table) before building; a stencil is
// an O(1) build and a file is read where it lies. outcome reports how: "hit"
// (served from the trace cache, or joined an in-flight build of the same
// trace), "miss" (this call built it into the cache), or "" (built inline).
func (pl *Pipeline) resolveTrace(ctx context.Context, sc *Scenario, placement *Placement) (comm Comm, outcome string, err error) {
	if pl.traceCache == nil || sc.Trace.Source != "tsunami" {
		comm, err = pl.buildTrace(sc, placement)
		return comm, "", err
	}
	key, _ := sc.TraceKey()
	if c, ok := pl.traceCache.Get(key); ok {
		return c, "hit", nil
	}

	pl.flightMu.Lock()
	if f, ok := pl.flight[key]; ok {
		pl.flightMu.Unlock()
		// Another request is building this exact trace; share its result.
		// That counts as a hit: no new application run was started.
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
		return f.comm, "hit", f.err
	}
	f := &traceFlight{done: make(chan struct{})}
	pl.flight[key] = f
	pl.flightMu.Unlock()

	// The build runs behind its own panic boundary: a panicking trace
	// builder (or cache Put) must still remove the flight entry and close
	// done, or every waiter coalesced onto this build would block forever.
	func() {
		defer func() {
			pl.flightMu.Lock()
			delete(pl.flight, key)
			pl.flightMu.Unlock()
			close(f.done)
		}()
		defer recoverAsError(&f.err)
		if err := faultinject.Hit("pipeline.trace.build"); err != nil {
			f.err = err
			return
		}
		f.comm, f.err = pl.buildTrace(sc, placement)
		if f.err == nil {
			pl.traceCache.Put(key, f.comm)
		}
	}()
	return f.comm, "miss", f.err
}

// buildTrace resolves the scenario's trace source into a communication
// matrix: a real traced run, a generated stencil, or a serialized file.
func (pl *Pipeline) buildTrace(sc *Scenario, placement *Placement) (Comm, error) {
	ranks, t := placement.NumRanks(), sc.resolvedTrace()
	switch t.Source {
	case "tsunami":
		rec := trace.NewRecorder(ranks)
		if _, err := tsunami.RunTraced(tsunami.TracedOptions{
			Params:     tsunami.TraceParams(ranks),
			Iterations: t.Iterations,
			Tracer:     rec,
		}); err != nil {
			return nil, err
		}
		return rec.Freeze(), nil
	case "synthetic":
		opts := trace.SyntheticOptions{Iterations: t.Iterations, BytesPerMsg: t.BytesPerMsg, Width: t.Width}
		if t.Pattern == "stencil2d" {
			opts.Pattern = trace.Stencil2D
		}
		// The implicit row source: nothing rank-sized is materialized.
		return trace.NewStencil(ranks, opts)
	case "file":
		f, err := os.Open(t.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var ropts []trace.ReadOptions
		if t.MaxRanks > 0 {
			ropts = append(ropts, trace.ReadOptions{MaxRanks: t.MaxRanks})
		}
		return trace.ReadCSR(f, ropts...)
	}
	return nil, fmt.Errorf("hierclust: unknown trace source %q", t.Source)
}
