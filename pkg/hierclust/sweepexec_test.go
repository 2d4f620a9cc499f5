package hierclust

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"hierclust/internal/faultinject"
)

// mapResultCache is a trivially correct SweepResultCache for tests.
type mapResultCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapResultCache() *mapResultCache {
	return &mapResultCache{m: map[string][]byte{}}
}

func (c *mapResultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	doc, ok := c.m[key]
	return doc, ok
}

func (c *mapResultCache) Put(key string, doc []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = doc
}

// execSweep is a 4-cell machines × strategies grid over the shared test
// base: two machine sizes, two strategy sets.
func execSweep() *Sweep {
	return &Sweep{
		Name: "exec",
		Base: sweepBase(),
		Axes: SweepAxes{
			Machines:   []MachinePoint{{Nodes: 8}, {Nodes: 16, Ranks: 128, ProcsPerNode: 8}},
			Strategies: [][]StrategySpec{{{Kind: "naive", Size: 8}}, {{Kind: "hierarchical"}}},
		},
	}
}

// TestRunSweepMatchesRunByteIdentical: every cell's document is
// byte-identical to marshalling Pipeline.Run of the expanded scenario —
// the same bytes POST /v1/evaluate caches — at any worker count.
func TestRunSweepMatchesRunByteIdentical(t *testing.T) {
	sw := execSweep()
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(cells))
	for i, sc := range cells {
		res, err := NewPipeline().Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		report, err := NewPipeline().RunSweep(context.Background(), sw, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if report.CellsCompleted != len(cells) || report.CellsFailed != 0 || report.CellsFromCache != 0 {
			t.Fatalf("workers=%d: completed/failed/cached = %d/%d/%d, want %d/0/0",
				workers, report.CellsCompleted, report.CellsFailed, report.CellsFromCache, len(cells))
		}
		for i, cell := range report.Cells {
			if cell.Err != nil {
				t.Fatalf("workers=%d: cell %d: %v", workers, i, cell.Err)
			}
			if cell.Index != i || cell.Scenario != cells[i].Name {
				t.Fatalf("workers=%d: cell %d reports index %d name %q", workers, i, cell.Index, cell.Scenario)
			}
			if !bytes.Equal(cell.Doc, want[i]) {
				t.Errorf("workers=%d: cell %d (%s) doc diverges from Pipeline.Run:\n%s\nvs\n%s",
					workers, i, cell.Scenario, cell.Doc, want[i])
			}
		}
	}
}

// TestRunSweepSharedTraceBuildsOnce: N cells sharing one trace build it
// exactly once, asserted through the executor's counters; a synthetic trace
// is built inline, so the trace cache is never consulted.
func TestRunSweepSharedTraceBuildsOnce(t *testing.T) {
	sw := &Sweep{
		Name: "shared-trace",
		Base: sweepBase(),
		Axes: SweepAxes{
			Strategies: [][]StrategySpec{{{Kind: "naive", Size: 8}}, {{Kind: "hierarchical"}}},
			Mixes: []MixSpec{
				{Transient: 0.05, NodeLoss: []float64{0.9}},
				{Transient: 0.5, NodeLoss: []float64{0.5}},
			},
		},
	}
	tc := NewMemoryTraceCache(8)
	pl := NewPipeline(WithTraceCache(tc), WithWorkers(4))
	report, err := pl.RunSweep(context.Background(), sw, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if report.CellsCompleted != 4 || report.CellsFailed != 0 {
		t.Fatalf("completed/failed = %d/%d, want 4/0", report.CellsCompleted, report.CellsFailed)
	}
	if report.TraceBuilds != 1 {
		t.Fatalf("executor performed %d trace builds, want 1", report.TraceBuilds)
	}
	if n := tc.Len(); n != 0 { // a lookup inserts an entry
		t.Fatalf("trace cache holds %d entries, want 0 (a stencil never looks it up)", n)
	}
	if report.PartitionBuilds != 2 {
		t.Fatalf("executor performed %d partition builds, want 2 (one per strategy)", report.PartitionBuilds)
	}
	// Deterministic labels: the plan-designated builder (cell 0) reports
	// the build; every sharer reports trace-hit, at any schedule.
	for i, cell := range report.Cells {
		want := "trace-hit"
		if i == 0 {
			want = "miss"
		}
		if cell.Cache != want {
			t.Errorf("cell %d cache label %q, want %q", i, cell.Cache, want)
		}
	}
}

// TestRunSweepResubmitAllCacheHits: re-running a completed sweep against
// the same result cache evaluates nothing — every cell is a cache hit and
// no trace or partition work runs.
func TestRunSweepResubmitAllCacheHits(t *testing.T) {
	sw := execSweep()
	cache := newMapResultCache()
	pl := NewPipeline()
	first, err := pl.RunSweep(context.Background(), sw, SweepOptions{ResultCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if first.CellsCompleted != 4 || first.CellsFromCache != 0 {
		t.Fatalf("first run completed/cached = %d/%d, want 4/0", first.CellsCompleted, first.CellsFromCache)
	}
	second, err := pl.RunSweep(context.Background(), sw, SweepOptions{ResultCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if second.CellsFromCache != 4 || second.CellsCompleted != 0 || second.CellsFailed != 0 {
		t.Fatalf("resubmit completed/cached/failed = %d/%d/%d, want 0/4/0",
			second.CellsCompleted, second.CellsFromCache, second.CellsFailed)
	}
	if second.TraceBuilds != 0 || second.PartitionBuilds != 0 {
		t.Fatalf("resubmit rebuilt %d traces / %d partitions, want 0/0", second.TraceBuilds, second.PartitionBuilds)
	}
	for i, cell := range second.Cells {
		if cell.Cache != "hit" {
			t.Fatalf("resubmit cell %d cache label %q, want \"hit\"", i, cell.Cache)
		}
		if !bytes.Equal(cell.Doc, first.Cells[i].Doc) {
			t.Fatalf("resubmit cell %d served different bytes than the first run", i)
		}
	}
}

// TestRunSweepChaosFaultResume is the kill-mid-sweep drill: a seeded
// probabilistic fault fails some cells on the first run; the faults are
// cleared and the sweep is resubmitted against the same result cache,
// which must complete exactly the remaining cells — the survivors come
// back as cache hits without re-evaluation.
func TestRunSweepChaosFaultResume(t *testing.T) {
	sw := &Sweep{
		Name: "chaos",
		Base: sweepBase(),
		Axes: SweepAxes{
			Strategies: [][]StrategySpec{{{Kind: "naive", Size: 8}}, {{Kind: "hierarchical"}}},
			Mixes: []MixSpec{
				{Transient: 0.05, NodeLoss: []float64{0.9}},
				{Transient: 0.3, NodeLoss: []float64{0.7}},
				{Transient: 0.5, NodeLoss: []float64{0.5}},
				{Transient: 0.7, NodeLoss: []float64{0.3}},
			},
		},
	}
	cache := newMapResultCache()
	pl := NewPipeline()

	faultinject.Seed(42)
	faultinject.Arm("sweep.cell", faultinject.Fault{Kind: faultinject.KindError, P: 0.5})
	first, err := pl.RunSweep(context.Background(), sw, SweepOptions{Workers: 1, ResultCache: cache})
	faultinject.DisarmAll()
	if err != nil {
		t.Fatal(err)
	}
	if first.CellsFailed == 0 || first.CellsCompleted == 0 {
		t.Fatalf("seeded chaos run completed/failed = %d/%d, want both nonzero (pick a new seed)",
			first.CellsCompleted, first.CellsFailed)
	}

	second, err := pl.RunSweep(context.Background(), sw, SweepOptions{Workers: 1, ResultCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if second.CellsFailed != 0 {
		t.Fatalf("resubmit failed %d cells", second.CellsFailed)
	}
	if second.CellsFromCache != first.CellsCompleted {
		t.Fatalf("resubmit served %d cells from cache, want the %d that survived the chaos run",
			second.CellsFromCache, first.CellsCompleted)
	}
	if second.CellsCompleted != first.CellsFailed {
		t.Fatalf("resubmit evaluated %d cells, want exactly the %d that failed",
			second.CellsCompleted, first.CellsFailed)
	}
}

// TestRunSweepCellPanicIsolated: an injected panic in every cell fails the
// cells, not the process or the sweep.
func TestRunSweepCellPanicIsolated(t *testing.T) {
	faultinject.Arm("sweep.cell", faultinject.Fault{Kind: faultinject.KindPanic, P: 1})
	defer faultinject.DisarmAll()
	report, err := NewPipeline().RunSweep(context.Background(), execSweep(), SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.CellsFailed != 4 {
		t.Fatalf("failed %d cells, want 4", report.CellsFailed)
	}
	for i, cell := range report.Cells {
		var pe *PanicError
		if !errors.As(cell.Err, &pe) {
			t.Fatalf("cell %d error %v, want a PanicError", i, cell.Err)
		}
	}
}

// TestRunSweepWorkerFaultFailsCellStrategies: sweep cells evaluate their
// strategies through the same per-strategy step as Pipeline.Run, so the
// "pipeline.worker" fault point guards them too — an injected panic there
// fails each cell as a recovered *PanicError naming the strategy, and the
// sweep itself still completes.
func TestRunSweepWorkerFaultFailsCellStrategies(t *testing.T) {
	faultinject.Arm("pipeline.worker", faultinject.Fault{Kind: faultinject.KindPanic, P: 1})
	defer faultinject.DisarmAll()
	report, err := NewPipeline().RunSweep(context.Background(), execSweep(), SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.CellsFailed != 4 {
		t.Fatalf("failed %d cells, want 4", report.CellsFailed)
	}
	for i, cell := range report.Cells {
		var pe *PanicError
		if !errors.As(cell.Err, &pe) || !strings.Contains(cell.Err.Error(), "strategy") {
			t.Fatalf("cell %d error %v, want a strategy-scoped PanicError", i, cell.Err)
		}
	}
}

// TestRunPlannedSweepEmptyPlan: RunPlannedSweep accepts caller-built plans,
// and a plan with no cells is an empty report, not a divide-by-zero in the
// worker-budget split.
func TestRunPlannedSweepEmptyPlan(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		report, err := NewPipeline().RunPlannedSweep(context.Background(), &SweepPlan{}, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if report == nil || len(report.Cells) != 0 || report.CellsCompleted+report.CellsFailed+report.CellsFromCache != 0 {
			t.Fatalf("workers=%d: report = %+v, want empty", workers, report)
		}
	}
}

// TestRunSweepCancelBeforeDispatch: a cancelled context returns the
// context error with every cell marked, and nothing evaluates.
func TestRunSweepCancelBeforeDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := NewPipeline().RunSweep(ctx, execSweep(), SweepOptions{})
	if err != context.Canceled {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if report == nil || report.CellsFailed != 4 || report.CellsCompleted != 0 {
		t.Fatalf("cancelled sweep report = %+v, want 4 failed cells", report)
	}
	for i, cell := range report.Cells {
		if cell.Err == nil {
			t.Fatalf("cell %d has no error after cancellation", i)
		}
	}
}

// TestRunSweepAcquireGate: the admission hook is invoked once per computed
// cell (cache hits bypass it), its release always runs, and an acquire
// error fails just that cell.
func TestRunSweepAcquireGate(t *testing.T) {
	var mu sync.Mutex
	acquired, released := 0, 0
	opts := SweepOptions{
		Workers:     2,
		ResultCache: newMapResultCache(),
		Acquire: func(ctx context.Context) (func(), error) {
			mu.Lock()
			acquired++
			mu.Unlock()
			return func() {
				mu.Lock()
				released++
				mu.Unlock()
			}, nil
		},
	}
	report, err := NewPipeline().RunSweep(context.Background(), execSweep(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.CellsCompleted != 4 {
		t.Fatalf("completed %d cells, want 4", report.CellsCompleted)
	}
	if acquired != 4 || released != 4 {
		t.Fatalf("acquired/released = %d/%d, want 4/4", acquired, released)
	}

	// Second run: all cache hits, the gate must not be consulted.
	report, err = NewPipeline().RunSweep(context.Background(), execSweep(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.CellsFromCache != 4 || acquired != 4 {
		t.Fatalf("cache-hit run consulted the admission gate (acquired=%d)", acquired)
	}

	// An acquire error fails the cell, not the sweep.
	denied := SweepOptions{Acquire: func(ctx context.Context) (func(), error) {
		return nil, context.DeadlineExceeded
	}}
	report, err = NewPipeline().RunSweep(context.Background(), execSweep(), denied)
	if err != nil {
		t.Fatal(err)
	}
	if report.CellsFailed != 4 {
		t.Fatalf("denied admission failed %d cells, want 4", report.CellsFailed)
	}
}

// TestRunSweepOnCellStreams: OnCell fires exactly once per cell with the
// cell's final result.
func TestRunSweepOnCellStreams(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	opts := SweepOptions{
		Workers: 4,
		OnCell: func(res SweepCellResult) {
			mu.Lock()
			seen[res.Index]++
			mu.Unlock()
		},
	}
	report, err := NewPipeline().RunSweep(context.Background(), execSweep(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(report.Cells) {
		t.Fatalf("OnCell covered %d cells, want %d", len(seen), len(report.Cells))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("OnCell fired %d times for cell %d", n, idx)
		}
	}
}
