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
	"time"

	"hierclust/internal/core"
	"hierclust/internal/faultinject"
	"hierclust/internal/graph"
	"hierclust/internal/pool"
	"hierclust/internal/stage"
	"hierclust/internal/trace"
	"hierclust/internal/tsunami"
)

// PanicError wraps a panic recovered at one of the pipeline's isolation
// boundaries — a strategy-evaluation worker goroutine, a trace build other
// requests wait on, or Run itself. The boundary converts a bug in one
// scenario (or an injected chaos panic) into an error on that Run instead of
// a dead process; hcserve maps it to a 500 with an incident id. Match with
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
	traceCache *MemoryTraceCache

	// Free build memory, kept at its peak (docs/OPERATIONS.md, Build memory):
	// a buffer per clustering live at once (1.95 MB at 131,072 ranks), an
	// arena per hierarchical build running at once (14.0 MB there).
	bufs   freeList[core.ClusteringBuf]
	arenas freeList[graph.Arena]
	stages *stage.Table
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

// PipelineOption customizes a Pipeline.
type PipelineOption func(*Pipeline)

// WithWorkers bounds the worker pool used for concurrent strategy
// evaluation and for the reliability model's sharded enumeration/sampling.
// 0 (the default) means GOMAXPROCS. Results are bit-identical at any
// worker count.
func WithWorkers(n int) PipelineOption {
	return func(p *Pipeline) { p.workers = n }
}

// WithTraceCache caches recorded traces ("tsunami" sources) by
// Scenario.TraceKey, so scenarios that share a trace — same ranks and
// iterations, any strategies/mix/baseline — never record it again.
// Concurrent misses on the same key coalesce into one build.
// Synthetic and file sources are built inline and never enter the cache.
// nil (the default) disables caching.
func WithTraceCache(tc *MemoryTraceCache) PipelineOption {
	return func(p *Pipeline) { p.traceCache = tc }
}

// TraceCache returns the cache the pipeline was built with (WithTraceCache),
// nil when it has none — how hcserve finds the trace cache whose entry
// count it reports.
func (pl *Pipeline) TraceCache() *MemoryTraceCache { return pl.traceCache }

// Stages returns the stage table the pipeline's runs and cells observe into.
func (pl *Pipeline) Stages() *stage.Table { return pl.stages }

// NewPipeline builds a pipeline with the given options.
func NewPipeline(opts ...PipelineOption) *Pipeline {
	p := &Pipeline{stages: stage.NewTable()}
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
	// Kind is the StrategySpec kind that produced it.
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
	budget := cmp.Or(max(pl.workers, 0), runtime.GOMAXPROCS(0))
	workers = max(min(cmp.Or(max(want, 0), budget), n), 1)
	return workers, max(budget/workers, 1)
}

// Trace resolves a scenario's placement and communication trace the way Run
// does — a traced run comes from the trace cache, joins a build of the same
// key already in flight, or is built once and cached — and scores nothing:
// the strategy list is not validated and may be empty. It is how a caller
// that reads the raw trace (hcrun's figure experiments, clusterview's
// heatmap) shares the one traced run with the evaluations of the same
// pipeline. Cancellation and panics are handled as in Run.
func (pl *Pipeline) Trace(ctx context.Context, sc *Scenario) (comm Comm, placement *Placement, err error) {
	defer recoverAsError(&err)
	if err := sc.validate(false); err != nil {
		return nil, nil, err
	}
	at, tr, err := pl.resolveCell(ctx, nil, &PlannedCell{Scenario: sc, PlacementNode: -1, TraceNode: -1})
	if err != nil {
		return nil, nil, err
	}
	return tr.comm, at.placement, nil
}

// resolveCell is the first half of the cell sequence — machine → placement
// → trace → rank-count check — behind evalCell and Trace. A sweep cell
// (run != nil) takes the placement and trace its plan shares from the run's
// node tables; everything else is resolved privately under ctx.
func (pl *Pipeline) resolveCell(ctx context.Context, run *sweepRun, cell *PlannedCell) (at placed, tr traced, err error) {
	sc := cell.Scenario
	if run != nil && cell.PlacementNode >= 0 {
		at, err = run.places[cell.PlacementNode].get(&run.placeBuilds, sc.resolvePlacement)
	} else {
		at, err = sc.resolvePlacement()
	}
	if err != nil {
		return at, tr, err
	}
	if err := ctx.Err(); err != nil {
		return at, tr, err
	}
	placement := at.placement
	if run != nil && cell.TraceNode >= 0 {
		tr, err = run.traces[cell.TraceNode].get(&run.traceBuilds, func() (tr traced, err error) {
			ctx, cancel := run.buildCtx()
			defer cancel()
			tr.comm, tr.hit, err = pl.resolveTrace(ctx, sc, placement)
			return tr, err
		})
	} else {
		if run != nil {
			run.traceBuilds.Add(1)
		}
		tr.comm, tr.hit, err = pl.resolveTrace(ctx, sc, placement)
	}
	if err != nil {
		return at, tr, err
	}
	if tr.comm.Ranks() != placement.NumRanks() {
		return at, tr, fmt.Errorf("hierclust: scenario %q: trace covers %d ranks, placement %d",
			sc.Name, tr.comm.Ranks(), placement.NumRanks())
	}
	return at, tr, ctx.Err()
}

// evalCell is the one cell sequence — machine → placement → trace →
// rank-count check (resolveCell) → result shell → per-strategy build and
// score — behind Run and runSweepCell, for a private cell (run == nil) or a
// sweep's. Intermediates the run shares (the cell's placement, trace,
// partition and logged-fraction nodes) come from its node tables;
// everything else is built privately under ctx. Strategies evaluate on up
// to strategyWorkers goroutines, each scoring with evalWorkers; results
// land in scenario order regardless of completion order. cache labels how
// the trace was satisfied: "miss" (this cell performed the build) or
// "trace-hit" (shared node or trace cache).
func (pl *Pipeline) evalCell(ctx context.Context, run *sweepRun, cell *PlannedCell, strategyWorkers, evalWorkers int) (_ *Result, cache string, err error) {
	sc := cell.Scenario
	at, tr, err := pl.resolveCell(ctx, run, cell)
	if err != nil {
		return nil, "", err
	}
	mach, placement, comm := at.mach, at.placement, tr.comm
	// Deterministic label: the plan-designated builder reports the
	// underlying build outcome; every sharer reports "trace-hit",
	// regardless of which worker actually reached the node first.
	cache = "trace-hit"
	if cell.TraceBuilder && !tr.hit {
		cache = "miss"
	}

	ce := &cellEval{
		Result: Result{
			Scenario:    sc.Name,
			Machine:     mach.Name,
			Ranks:       placement.NumRanks(),
			Nodes:       placement.NumUsed(),
			TotalBytes:  comm.TotalBytes(),
			TotalMsgs:   comm.TotalMsgs(),
			Baseline:    BaselineSpec(sc.Baseline.Baseline()), // same fields; the conversion keeps them in step
			Evaluations: make([]StrategyResult, len(sc.Strategies)),
		},
		// The loop takes the node slices, not the cell, so RunCell's cell
		// stays on its stack.
		pl: pl, ctx: ctx, run: run, sc: sc, parts: cell.PartNodes, logged: cell.loggedNodes,
		comm: comm, placement: placement, mix: sc.Mix.Mix(), evalWorkers: evalWorkers,
	}
	// The first failure, or ctx done, stops further claims.
	pool.Run(len(sc.Strategies), strategyWorkers, ce,
		func(ce *cellEval) bool { return ce.failed.Load() || ce.ctx.Err() != nil }, (*cellEval).runStrategy)
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	if ce.err != nil {
		return nil, "", fmt.Errorf("hierclust: scenario %q: strategy %q: %w", sc.Name, sc.Strategies[ce.errAt].Kind, ce.err)
	}
	ce.ctx, ce.run, ce.comm, ce.placement = nil, nil, nil, nil // the Result pins no trace or node table
	return &ce.Result, cache, nil
}

// cellEval is a cell's Result and what the loop that fills its rows reads:
// evalCell allocates the two as one, the Result it returns, and pool.Run
// hands it to every strategy, so the loop allocates nothing of its own.
type cellEval struct {
	Result
	pl            *Pipeline
	ctx           context.Context
	run           *sweepRun // nil for a private cell
	sc            *Scenario
	parts, logged []int // the cell's partition and logged-fraction node ids
	comm          Comm
	placement     *Placement
	mix           Mix
	evalWorkers   int
	failed        atomic.Bool // a strategy failed
	mu            sync.Mutex
	errAt         int // the failed strategy's index, once err is set
	err           error
}

// runStrategy evaluates strategy j into its row. The first failure stops
// further claims, and the lowest failing index is the one kept — indices
// being claimed in ascending order, the same error at any worker count.
func (ce *cellEval) runStrategy(j, _ int) {
	if err := ce.evalStrategy(j); err != nil {
		ce.mu.Lock()
		if ce.err == nil || j < ce.errAt {
			ce.errAt, ce.err = j, err
		}
		ce.mu.Unlock()
		ce.failed.Store(true)
	}
}

// evalStrategy takes strategy j's clustering and score profile, and their
// logged fraction over the cell's trace — each the run's shared node or the
// cell's own, built under ctx — and does the per-cell part: weigh the
// profile with the cell's mix, judge it against the baseline and render the
// row. It is the per-strategy panic boundary: a panicking strategy (or the
// "pipeline.worker" chaos point) fails its own evaluation as a *PanicError
// without taking down the sibling workers or the process.
func (ce *cellEval) evalStrategy(j int) (err error) {
	defer recoverAsError(&err)
	if err := faultinject.Hit("pipeline.worker"); err != nil {
		return err
	}
	ctx, run, spec := ce.ctx, ce.run, ce.sc.Strategies[j]
	if err := ctx.Err(); err != nil {
		return err
	}
	node, loggedNode := -1, -1
	if run != nil {
		node, loggedNode = ce.parts[j], ce.logged[j]
	}
	var sd scored
	if node >= 0 {
		sd, err = run.parts[node].get(&run.partBuilds, func() (scored, error) {
			ctx, cancel := run.buildCtx()
			defer cancel()
			return ce.pl.buildScored(ctx, spec, ce.comm, ce.placement)
		})
	} else {
		if run != nil {
			run.partBuilds.Add(1)
		}
		sd, err = ce.pl.buildScored(ctx, spec, ce.comm, ce.placement)
		// A private build's buffer goes back once the row below is rendered.
		defer ce.pl.bufs.give(sd.buf)
	}
	if err != nil {
		return err
	}
	c, prof := sd.c, sd.buf.Profile()
	t := stage.Enter(stage.Weigh)
	e, err := prof.Evaluate(ctx, ce.mix, ce.evalWorkers)
	ce.pl.stages.Leave(ctx, stage.Weigh, t)
	if err != nil {
		return err
	}
	if loggedNode >= 0 {
		e.LoggedFraction, err = run.logged[loggedNode].get(&run.loggedBuilds, func() (float64, error) {
			return ce.loggedFraction(c.L1)
		})
	} else {
		e.LoggedFraction, err = ce.loggedFraction(c.L1)
	}
	if err != nil {
		return err
	}
	ok, violations := e.Meets(ce.sc.Baseline.Baseline())
	ce.Evaluations[j] = StrategyResult{
		Strategy:           c.Name,
		Kind:               spec.Kind,
		L1Clusters:         prof.NumClusters(),
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

// loggedFraction is the logged fraction of l1 over the cell's trace.
func (ce *cellEval) loggedFraction(l1 []int32) (float64, error) {
	defer ce.pl.stages.Leave(ce.ctx, stage.Logged, stage.Enter(stage.Logged))
	return ce.comm.LoggedFraction(l1)
}

// buildScored builds spec's clustering into a lent buffer, sd.buf, its
// scratch in an arena lent for the build alone, and scores it into the
// buffer's profile — the unit the sweep executor shares across cells by
// partitionKey; weighing only reads it, so many cells may weigh one build
// concurrently. The caller gives sd.buf back once nothing reads it; on
// error there is none.
func (pl *Pipeline) buildScored(ctx context.Context, spec StrategySpec, comm Comm, placement *Placement) (sd scored, err error) {
	if err := faultinject.Hit("pipeline.build"); err != nil {
		return sd, err
	}
	sd.buf = pl.bufs.lend()
	ar := pl.arenas.lend()
	// A flat build is all fill; a hierarchical one times its own stages.
	t := stage.Enter(stage.Fill)
	sd.c, err = spec.build(ctx, comm, placement, sd.buf, ar)
	stage.Restore(ctx)
	fill := time.Since(t)
	pl.arenas.give(ar)
	if err != nil {
		pl.bufs.give(sd.buf)
		return scored{}, err
	}
	if spec.Kind == "hierarchical" {
		var fold, partition time.Duration
		fold, partition, fill = sd.buf.BuildTimes()
		pl.stages.Observe(stage.Fold, fold)
		pl.stages.Observe(stage.Partition, partition)
	}
	pl.stages.Observe(stage.Fill, fill)
	t = stage.Enter(stage.Profile)
	err = sd.buf.Profile().Init(ctx, sd.c, placement)
	pl.stages.Leave(ctx, stage.Profile, t)
	if err != nil {
		pl.bufs.give(sd.buf)
		return scored{}, err
	}
	return sd, nil
}

// resolveTrace returns the scenario's communication matrix. Only a traced
// application's trace ("tsunami") is worth keeping, so only it consults the
// trace cache before building; a stencil is an O(1) build and a file is read
// where it lies. hit reports that the cache's entry answered, built or
// joined mid-build, so this call recorded no trace.
func (pl *Pipeline) resolveTrace(ctx context.Context, sc *Scenario, placement *Placement) (comm Comm, hit bool, err error) {
	defer pl.stages.Leave(ctx, stage.Trace, stage.Enter(stage.Trace))
	if pl.traceCache == nil || sc.Trace.Source != "tsunami" {
		comm, err = pl.buildTrace(sc, placement)
		return comm, false, err
	}
	key, _ := sc.TraceKey()
	e, build := pl.traceCache.lookup(key)
	if !build {
		// Built, or being built by another request. A built entry is read
		// without asking for ctx.Done(), which makes a request context's
		// channel.
		select {
		case <-e.done:
		default:
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		return e.comm, true, e.err
	}

	// The build runs behind its own panic boundary: a panicking trace
	// builder must still publish the entry, or every waiter on it would
	// block forever and the key would never build again.
	func() {
		defer pl.traceCache.publish(key, e)
		defer recoverAsError(&e.err)
		if e.err = faultinject.Hit("pipeline.trace.build"); e.err == nil {
			e.comm, e.err = pl.buildTrace(sc, placement)
		}
	}()
	return e.comm, false, e.err
}

// buildTrace resolves the scenario's trace source into a communication
// matrix: a traced run's message schedule, a generated stencil, or a
// serialized file.
func (pl *Pipeline) buildTrace(sc *Scenario, placement *Placement) (Comm, error) {
	ranks, t := placement.NumRanks(), sc.resolvedTrace()
	switch t.Source {
	case "tsunami":
		rec := trace.NewRecorder(ranks)
		if err := tsunami.Schedule(tsunami.TracedOptions{
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
