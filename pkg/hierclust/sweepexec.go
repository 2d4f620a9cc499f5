package hierclust

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hierclust/internal/core"
	"hierclust/internal/faultinject"
	"hierclust/internal/pool"
	"hierclust/internal/stage"
)

// The sweep executor runs a compiled SweepPlan on a bounded worker pool.
// Shared DAG nodes (placements, trace builds, clustering builds with their
// score profiles, their logged fractions over each trace) are computed
// inline by whichever cell demands them first — a sync.Once per node — so
// every shared intermediate is built exactly once per run regardless of
// worker count or scheduling, and no worker ever blocks waiting for a slot
// it is itself supposed to fill. A node's values are dropped when its last
// consuming cell finishes. Per-cell results are
// byte-identical to running the expanded scenario through Pipeline.Run — Run
// is the same evalCell on a one-cell plan with no shared nodes — at any
// worker count. RunCell runs one scenario through the same cell sequence
// with no plan at all: it is how hcserve answers every lone evaluation.
//
// Resumability is the result cache: every completed cell is Put under its
// Scenario.CacheKey before the executor moves on, so a killed or
// cancelled sweep that is re-submitted against the same cache completes
// only the remaining cells — the finished ones come back as "hit" without
// touching the DAG.
//
// Fault point (chaos drills): "sweep.cell" fires at the top of every
// computed cell of a plan — a sweep's or a batch's (cache hits and RunCell's
// lone cells bypass it), failing that cell alone.

// SweepResultCache caches rendered per-cell result documents by scenario
// cache key. hcserve's result LRU implements it, which is what makes
// sweep cells hit — and warm — the same cache as single POST /v1/evaluate
// requests. Implementations must be safe for concurrent use.
type SweepResultCache interface {
	// Get returns the cached compact result document for key.
	Get(key string) ([]byte, bool)
	// Put stores a freshly rendered document.
	Put(key string, doc []byte)
}

// SweepOptions tunes one RunSweep or RunCell call.
type SweepOptions struct {
	// Workers bounds concurrently executing cells (RunCell: the lone
	// cell's concurrently evaluating strategies); 0 means the pipeline's
	// worker budget (GOMAXPROCS when that is unset too). Results are
	// byte-identical at any worker count.
	Workers int
	// ResultCache, when non-nil, is consulted before computing a cell and
	// filled after — the resume mechanism. Cache hits bypass admission
	// and the sweep.cell fault point.
	ResultCache SweepResultCache
	// Acquire, when non-nil, is called before each computed cell; the
	// evaluation holds the returned release until the cell finishes.
	// hcserve wires its admission limiter here so sweep cells compete for
	// the same evaluation slots as interactive traffic. An Acquire error
	// fails the cell.
	Acquire func(ctx context.Context) (release func(), err error)
	// CellTimeout bounds one cell's evaluation, measured after admission;
	// 0 means no per-cell deadline. A shared node build gets the same bound
	// from its own start, under the sweep's context rather than the cell's,
	// so one slow cell cannot poison a shared trace for its siblings.
	CellTimeout time.Duration
	// OnCell, when non-nil, is called once per executed cell as it
	// finishes (any order; cells are identified by Index). It must be
	// safe for concurrent calls.
	OnCell func(SweepCellResult)
}

// SweepCellResult is the outcome of one cell.
type SweepCellResult struct {
	// Index is the cell's position in plan (expansion) order.
	Index int
	// Scenario is the expanded cell scenario's name.
	Scenario string
	// CacheKey is the cell's canonical result-cache key.
	CacheKey string
	// Cache reports how the cell was satisfied: "hit" (result cache, no
	// evaluation), "trace-hit" (evaluated; built no trace — shared or
	// cached), or "miss" (evaluated; this cell performed the trace build).
	// The label is deterministic: the plan designates the builder cell,
	// not the scheduler.
	Cache string
	// Doc is the compact rendered Result JSON — byte-identical to the
	// document POST /v1/evaluate caches for the same scenario. nil when
	// Err is set.
	Doc []byte
	// Err is the cell's failure, if any.
	Err error
}

// SweepReport is the outcome of a RunSweep call.
type SweepReport struct {
	// Plan is the compiled DAG the run executed.
	Plan *SweepPlan
	// Cells holds every cell's result, in plan order. Cells never
	// dispatched (sweep cancelled first) carry the context error.
	Cells []SweepCellResult
	// TraceBuilds counts trace-node computations this run performed;
	// with every cell served from the result cache it is 0, and it never
	// exceeds Plan.TraceBuilds. PartitionBuilds is the same for
	// clustering builds.
	TraceBuilds     int64
	PartitionBuilds int64
	// CellsCompleted, CellsFromCache, and CellsFailed partition the
	// cells: evaluated this run, served from the result cache, and
	// failed (including cancelled).
	CellsCompleted int
	CellsFromCache int
	CellsFailed    int
}

// sweepRun is the state one RunPlannedSweep call shares across its cells:
// the shared-node tables and the build counters.
type sweepRun struct {
	pl *Pipeline // lends the clustering nodes' buffers and takes them back
	// ctx is the sweep's context. Shared node builds run under it (bounded by
	// timeout from their start), not under the demanding cell's deadline, so
	// one slow cell cannot poison an intermediate its siblings still need.
	ctx     context.Context
	timeout time.Duration // SweepOptions.CellTimeout
	places  []sweepNode[placed]
	traces  []sweepNode[traced]
	parts   []sweepNode[scored]
	logged  []sweepNode[float64]
	// placeBuilds and loggedBuilds are for tests: the plan counts neither.
	placeBuilds, traceBuilds, partBuilds, loggedBuilds atomic.Int64
}

// The shared intermediates but the logged fraction. A clustering travels
// with the lent buffer that holds its score profile (the cells sharing it
// differ in trace and weighing) and, for a built-in strategy, the
// clustering itself; the buffer goes back when the node is dropped.
type (
	placed struct {
		mach      *Machine
		placement *Placement
	}
	traced struct {
		comm Comm
		hit  bool // resolveTrace's
	}
	scored struct {
		c   *Clustering
		buf *core.ClusteringBuf
	}
)

// sweepNode is one shared intermediate: built on first demand behind a
// panic boundary, dropped when its last consumer finishes.
type sweepNode[T any] struct {
	once      sync.Once
	consumers atomic.Int32 // referencing cells (partition node: strategies) still to finish
	val       T
	err       error
}

// get computes the node on first demand (concurrent callers block until the
// computation finishes) and returns the shared value.
func (n *sweepNode[T]) get(builds *atomic.Int64, build func() (T, error)) (T, error) {
	n.once.Do(func() {
		defer recoverAsError(&n.err)
		builds.Add(1)
		n.val, n.err = build()
	})
	return n.val, n.err
}

// consume adjusts the consumer count. The last consumer, whose decrement
// follows every other's, drops the value and gets it back: no reader is
// left to race with whatever it does with it.
func (n *sweepNode[T]) consume(delta int32) (dropped T) {
	if n.consumers.Add(delta) == 0 {
		dropped, n.val = n.val, dropped
	}
	return dropped
}

// buildCtx is the context of a trace or clustering node build: the sweep's,
// bounded by the cell timeout from now.
func (run *sweepRun) buildCtx() (context.Context, context.CancelFunc) {
	if run.timeout > 0 {
		return context.WithTimeout(run.ctx, run.timeout)
	}
	return run.ctx, func() {}
}

// newSweepRun sizes the node tables and counts every node's consumers.
func (pl *Pipeline) newSweepRun(ctx context.Context, plan *SweepPlan) *sweepRun {
	run := &sweepRun{
		pl:     pl,
		ctx:    ctx,
		places: make([]sweepNode[placed], plan.nodes[0]),
		traces: make([]sweepNode[traced], plan.nodes[1]),
		parts:  make([]sweepNode[scored], plan.nodes[2]),
		logged: make([]sweepNode[float64], plan.nodes[3]),
	}
	for i := range plan.Cells {
		run.consume(&plan.Cells[i], 1)
	}
	return run
}

// consume adds delta to the consumer count of every shared node cell
// references: +1 at set-up, -1 when the cell is finished — computed, served
// from the result cache, failed or never claimed. Expansion order keeps a
// node's consumers close together, so a many-machine sweep holds a few live
// nodes, not every trace, clustering and profile until it returns.
func (run *sweepRun) consume(cell *PlannedCell, delta int32) {
	if id := cell.PlacementNode; id >= 0 {
		run.places[id].consume(delta)
	}
	if id := cell.TraceNode; id >= 0 {
		run.traces[id].consume(delta)
	}
	for j, id := range cell.PartNodes {
		if id >= 0 {
			run.pl.bufs.give(run.parts[id].consume(delta).buf)
		}
		if id := cell.loggedNodes[j]; id >= 0 {
			run.logged[id].consume(delta)
		}
	}
}

// RunSweep compiles and executes a sweep. Per-cell failures (a bad cell, a
// chaos fault, a per-cell timeout) land in that cell's result and the rest
// of the sweep proceeds; the returned error is non-nil only for a plan
// failure or sweep-level cancellation — and even then the partial report
// is returned, so callers can see which cells finished (and were cached)
// before the cut.
func (pl *Pipeline) RunSweep(ctx context.Context, sw *Sweep, opts SweepOptions) (*SweepReport, error) {
	plan, err := PlanSweep(sw)
	if err != nil {
		return nil, err
	}
	return pl.RunPlannedSweep(ctx, plan, opts)
}

// RunPlannedSweep executes an already compiled plan (hcserve plans at
// submission time to bound cell counts before accepting the job).
func (pl *Pipeline) RunPlannedSweep(ctx context.Context, plan *SweepPlan, opts SweepOptions) (*SweepReport, error) {
	return pl.runSweep(pl.newSweepRun(ctx, plan), plan, opts)
}

// runSweep executes plan over run's node tables.
func (pl *Pipeline) runSweep(run *sweepRun, plan *SweepPlan, opts SweepOptions) (*SweepReport, error) {
	ctx := run.ctx
	run.timeout = opts.CellTimeout
	report := &SweepReport{Plan: plan, Cells: make([]SweepCellResult, len(plan.Cells))}

	// Concurrent cells split the evaluation worker budget like Run's
	// concurrent strategies; within a cell the strategies run serially.
	workers, evalWorkers := pl.splitBudget(opts.Workers, len(plan.Cells))
	claimed := pool.Run(len(plan.Cells), workers, ctx, func(ctx context.Context) bool { return ctx.Err() != nil }, func(ctx context.Context, i, _ int) {
		report.Cells[i], _ = pl.runSweepCell(ctx, run, &plan.Cells[i], &opts, 1, evalWorkers)
		if opts.OnCell != nil {
			opts.OnCell(report.Cells[i])
		}
	})

	report.TraceBuilds = run.traceBuilds.Load()
	report.PartitionBuilds = run.partBuilds.Load()
	err := ctx.Err()
	for i := range report.Cells {
		res := &report.Cells[i]
		if i >= claimed { // never claimed: the sweep was cancelled first
			run.consume(&plan.Cells[i], -1)
			*res = SweepCellResult{Index: i, Scenario: plan.Cells[i].Scenario.Name, CacheKey: plan.Cells[i].CacheKey, Err: err}
		}
		switch {
		case res.Err != nil:
			report.CellsFailed++
		case res.Cache == "hit":
			report.CellsFromCache++
		default:
			report.CellsCompleted++
		}
	}
	return report, err
}

// RunCell evaluates one scenario as a lone cell: the sequence every sweep
// cell runs (result cache → admission → cell deadline → evaluation → render
// → cache fill), with no shared nodes. ctx is the caller's; the cell's
// strategies fan out across the pipeline's worker budget like Run's, capped
// at opts.Workers when that is positive. opts.ResultCache, Acquire and
// CellTimeout apply as they do to a sweep cell; OnCell is not called, and
// the "sweep.cell" fault point does not fire. hcserve answers POST
// /v1/evaluate through it. The returned Doc is byte-identical to
// marshalling Run's Result for the same scenario, and the times are what it
// observed of each stage (lookup, queue, eval, render) in the stage table.
func (pl *Pipeline) RunCell(ctx context.Context, sc *Scenario, opts SweepOptions) (SweepCellResult, stage.Times) {
	key, err := sc.CacheKey()
	if err != nil {
		return SweepCellResult{Err: err}, stage.Times{}
	}
	cell := PlannedCell{Scenario: sc, CacheKey: key, PlacementNode: -1, TraceNode: -1, TraceBuilder: true}
	workers, evalWorkers := pl.splitBudget(opts.Workers, len(sc.Strategies))
	return pl.runSweepCell(ctx, nil, &cell, &opts, workers, evalWorkers)
}

// runSweepCell executes one cell under ctx behind its own panic boundary:
// result cache → admission → fault point → cell deadline → the shared cell
// sequence (evalCell) → render → cache fill. run is the sweep's, whose nodes
// the cell releases when it finishes, or nil for RunCell's lone cell, which
// skips the sweep-only "sweep.cell" fault point. It observes its stages into
// the pipeline's table and returns them in tm.
func (pl *Pipeline) runSweepCell(ctx context.Context, run *sweepRun, cell *PlannedCell, opts *SweepOptions, strategyWorkers, evalWorkers int) (res SweepCellResult, tm stage.Times) {
	res = SweepCellResult{Index: cell.Index, Scenario: cell.Scenario.Name, CacheKey: cell.CacheKey}
	if run != nil {
		defer run.consume(cell, -1)
	}
	defer recoverAsError(&res.Err)

	if opts.ResultCache != nil {
		t := stage.Enter(stage.Lookup)
		doc, ok := opts.ResultCache.Get(cell.CacheKey)
		tm[stage.Lookup] = pl.stages.Leave(ctx, stage.Lookup, t)
		if ok {
			res.Cache, res.Doc = "hit", doc
			return res, tm
		}
	}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res, tm
	}
	if opts.Acquire != nil {
		t := stage.Enter(stage.Queue)
		release, err := opts.Acquire(ctx)
		tm[stage.Queue] = pl.stages.Leave(ctx, stage.Queue, t)
		if err != nil {
			res.Err = err
			return res, tm
		}
		defer release()
	}
	if run != nil {
		if err := faultinject.Hit("sweep.cell"); err != nil {
			res.Err = fmt.Errorf("hierclust: sweep cell %q: %w", cell.Scenario.Name, err)
			return res, tm
		}
	}
	t := stage.Enter(stage.Eval)

	// The per-cell deadline covers this cell's own evaluation work only.
	cellCtx := ctx
	if opts.CellTimeout > 0 {
		var cancel context.CancelFunc
		cellCtx, cancel = context.WithTimeout(ctx, opts.CellTimeout)
		defer cancel()
	}

	out, cache, err := pl.evalCell(cellCtx, run, cell, strategyWorkers, evalWorkers)
	tm[stage.Eval] = pl.stages.Leave(ctx, stage.Eval, t)
	if err != nil {
		res.Err = err
		return res, tm
	}
	t = stage.Enter(stage.Render)
	doc, err := json.Marshal(out)
	if err == nil && opts.ResultCache != nil {
		opts.ResultCache.Put(cell.CacheKey, doc)
	}
	tm[stage.Render] = pl.stages.Leave(ctx, stage.Render, t)
	if err != nil {
		res.Err = err
		return res, tm
	}
	res.Cache, res.Doc = cache, doc
	return res, tm
}
