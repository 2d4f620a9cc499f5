package hierclust

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"hierclust/internal/racedetect"
	"hierclust/internal/trace"
)

// What a sweep shares: placements, traces, and clusterings with their score
// profiles. These tests pin that sharing changes no byte, builds each shared
// thing once, lets go of it when its last consumer finishes, and keeps one
// cell's timeout or one build's panic from reaching further than it should.

// spyComm counts LoggedFraction calls (every logged-fraction node makes
// exactly one, and nothing else calls it) and can be told to panic there.
type spyComm struct {
	Comm
	logged *atomic.Int64
	panics bool
}

func (c spyComm) LoggedFraction(part []int32) (float64, error) {
	c.logged.Add(1)
	if c.panics {
		panic("spyComm: LoggedFraction")
	}
	return c.Comm.LoggedFraction(part)
}

// spyOnTraces builds every shared trace node of run ahead of the sweep,
// wrapped in spyComm, so the sweep hands the spy to every clustering build
// and logged fraction. It returns the spies' LoggedFraction counter.
func spyOnTraces(t *testing.T, plan *SweepPlan, run *sweepRun, panics bool) *atomic.Int64 {
	t.Helper()
	logged := new(atomic.Int64)
	for i := range plan.Cells {
		sc, node := plan.Cells[i].Scenario, &run.traces[plan.Cells[i].TraceNode]
		node.once.Do(func() {
			at, err := sc.resolvePlacement()
			if err != nil {
				t.Fatal(err)
			}
			comm, err := NewPipeline().buildTrace(sc, at.placement)
			if err != nil {
				t.Fatal(err)
			}
			node.val.comm = spyComm{Comm: comm, logged: logged, panics: panics}
		})
	}
	return logged
}

// sharedSweep is 4 strategy kinds × 5 mixes × 2 trace points on 24 nodes.
// The mixes are the shapes a profile's memo has to get right: plain, pair
// correlation, zero weights inside the tail, more entries than the memo
// holds, more entries than the machine has nodes.
func sharedSweep() *Sweep {
	tail := func(k int) []float64 {
		loss := make([]float64, k)
		for i := range loss {
			loss[i] = math.Pow(0.4, float64(i+1))
		}
		return loss
	}
	return &Sweep{
		Name: "shared",
		Base: Scenario{
			Name:      "shared",
			Machine:   MachineSpec{Nodes: 24},
			Placement: PlacementSpec{Ranks: 96, ProcsPerNode: 4},
			Trace:     TraceSpec{Source: "synthetic", Pattern: "stencil2d"},
		},
		Axes: SweepAxes{
			Strategies: [][]StrategySpec{
				{{Kind: "naive", Size: 8}},
				{{Kind: "size-guided", Size: 4}, {Kind: "distributed", Size: 8}},
				{{Kind: "hierarchical"}},
			},
			Mixes: []MixSpec{
				{Transient: 0.05, NodeLoss: tail(6)},
				{Transient: 0.05, NodeLoss: tail(6), PairCorrelation: 0.5},
				{Transient: 0.2, NodeLoss: []float64{0.6, 0, 0.1, 0, 0, 0.05}},
				{Transient: 0.05, NodeLoss: tail(18)},
				{Transient: 0.05, NodeLoss: tail(30), PairCorrelation: 0.1},
			},
			Traces: []TracePoint{{Iterations: 10}, {Iterations: 20, BytesPerMsg: 2048}},
		},
	}
}

// TestRunSweepSharedProfilesByteIdentical: with placements, clusterings,
// profiles and logged fractions shared, every cell's document is still
// Pipeline.Run of that cell alone, at 1, 2 and 8 workers. The three flat
// kinds build one clustering for both trace points and hierarchical one per
// trace point; the logged fraction is taken once per distinct (clustering,
// trace) pair; every placement node builds one placement.
func TestRunSweepSharedProfilesByteIdentical(t *testing.T) {
	sw := sharedSweep()
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(cells))
	for i, sc := range cells {
		res, err := NewPipeline(WithWorkers(1)).Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := PlanSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[[2]int]bool{}
	for _, cell := range plan.Cells {
		for _, part := range cell.PartNodes {
			pairs[[2]int{part, cell.TraceNode}] = true
		}
	}
	if plan.PartitionBuilds != 3+2 || len(pairs) != 4*2 {
		t.Fatalf("plan has %d partition nodes and %d (clustering, trace) pairs, want 5 and 8", plan.PartitionBuilds, len(pairs))
	}
	for _, workers := range []int{1, 2, 8} {
		pl := NewPipeline(WithWorkers(workers))
		run := pl.newSweepRun(context.Background(), plan)
		logged := spyOnTraces(t, plan, run, false)
		report, err := pl.runSweep(run, plan, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, cell := range report.Cells {
			if cell.Err != nil {
				t.Fatalf("workers=%d: cell %d (%s): %v", workers, i, cell.Scenario, cell.Err)
			}
			if !bytes.Equal(cell.Doc, want[i]) {
				t.Errorf("workers=%d: cell %d (%s) diverges from Pipeline.Run:\n%s\nvs\n%s",
					workers, i, cell.Scenario, cell.Doc, want[i])
			}
		}
		if got := logged.Load(); got != int64(len(pairs)) || run.loggedBuilds.Load() != got {
			t.Errorf("workers=%d: %d LoggedFraction calls over %d logged-node builds, want %d",
				workers, got, run.loggedBuilds.Load(), len(pairs))
		}
		if report.PartitionBuilds != int64(plan.PartitionBuilds) {
			t.Errorf("workers=%d: %d partition builds, plan has %d partition nodes",
				workers, report.PartitionBuilds, plan.PartitionBuilds)
		}
		if got := run.placeBuilds.Load(); got != int64(len(run.places)) || len(run.places) != 1 {
			t.Errorf("workers=%d: %d placements built for %d placement nodes, want 1 for 1", workers, got, len(run.places))
		}
	}
}

// TestRunSweepReleasesNodesOnLastConsumer: with one worker, a 3-machine ×
// 2-mix sweep has let go of machine 0's placement, trace and clustering by
// the time its second cell reports, before any cell of machine 2 has run.
func TestRunSweepReleasesNodesOnLastConsumer(t *testing.T) {
	sw := &Sweep{
		Name: "release",
		Base: sweepBase(),
		Axes: SweepAxes{
			Machines: []MachinePoint{{Nodes: 8}, {Nodes: 16, Ranks: 128}, {Nodes: 32, Ranks: 256}},
			Mixes: []MixSpec{
				{Transient: 0.05, NodeLoss: []float64{0.9}},
				{Transient: 0.5, NodeLoss: []float64{0.5}},
			},
		},
	}
	plan, err := PlanSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline()
	run := pl.newSweepRun(context.Background(), plan)
	if len(run.places) != 3 || len(run.traces) != 3 || len(run.parts) != 3 {
		t.Fatalf("node tables %d/%d/%d, want 3/3/3", len(run.places), len(run.traces), len(run.parts))
	}
	// held reports which machines' nodes currently hold values.
	held := func() (s string) {
		for m := 0; m < 3; m++ {
			if run.places[m].val != (placed{}) || run.traces[m].val != (traced{}) || run.parts[m].val != (scored{}) {
				s += fmt.Sprint(m)
			}
		}
		return s
	}
	// After cell i: the first cell of a machine leaves its nodes held for
	// the second, which releases them.
	wantHeld := []string{"0", "", "1", "", "2", ""}
	_, err = pl.runSweep(run, plan, SweepOptions{Workers: 1, OnCell: func(res SweepCellResult) {
		if res.Err != nil {
			t.Errorf("cell %d: %v", res.Index, res.Err)
		}
		if got := held(); got != wantHeld[res.Index] {
			t.Errorf("after cell %d machines %q hold node values, want %q", res.Index, got, wantHeld[res.Index])
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The routes that never reach the nodes release them too.
	warm := newMapResultCache()
	if _, err := NewPipeline().RunPlannedSweep(context.Background(), plan, SweepOptions{ResultCache: warm}); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, route := range []struct {
		name string
		ctx  context.Context
		opts SweepOptions
	}{
		{"result-cache hit", context.Background(), SweepOptions{Workers: 2, ResultCache: warm}},
		{"acquire denied", context.Background(), SweepOptions{Workers: 2,
			Acquire: func(context.Context) (func(), error) { return nil, context.DeadlineExceeded }}},
		{"never claimed", cancelled, SweepOptions{Workers: 1}},
	} {
		run := pl.newSweepRun(route.ctx, plan)
		if _, err := pl.runSweep(run, plan, route.opts); err != route.ctx.Err() {
			t.Fatalf("%s: %v", route.name, err)
		}
		for m := range run.parts {
			if n := run.places[m].consumers.Load() + run.traces[m].consumers.Load() + run.parts[m].consumers.Load(); n != 0 {
				t.Errorf("%s: machine %d's nodes keep %d consumers", route.name, m, n)
			}
		}
	}
}

// TestRunSweepCellTimeoutSparesSharedProfile: a cell deadline that fires
// while the cell is weighing the shared profile — deep in the chaos-mc
// layout's seconds of sampling — fails that cell alone. The profile is
// built under the sweep's context, so the sibling cell that shares it (its
// mix needs only the single-node conditional) still gets exactly the bits
// of a run on its own.
func TestRunSweepCellTimeoutSparesSharedProfile(t *testing.T) {
	base := chaosMCScenario()
	slow := *base.Mix
	sw := &Sweep{
		Name: "cell-timeout",
		Base: *base,
		Axes: SweepAxes{Mixes: []MixSpec{slow, {Transient: 0.1, NodeLoss: []float64{0.9}}}},
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	alone, err := NewPipeline(WithWorkers(1)).Run(context.Background(), cells[1])
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(alone)
	if err != nil {
		t.Fatal(err)
	}
	timeout := 150 * time.Millisecond
	if racedetect.Enabled {
		timeout = time.Second
	}
	for _, workers := range []int{1, 2} {
		report, err := NewPipeline(WithWorkers(workers)).RunSweep(context.Background(), sw,
			SweepOptions{Workers: workers, CellTimeout: timeout})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !errors.Is(report.Cells[0].Err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: slow cell returned %v, want context.DeadlineExceeded", workers, report.Cells[0].Err)
		}
		if report.Cells[1].Err != nil {
			t.Fatalf("workers=%d: sibling cell failed: %v", workers, report.Cells[1].Err)
		}
		if !bytes.Equal(report.Cells[1].Doc, want) {
			t.Fatalf("workers=%d: sibling of a timed-out cell diverges from its run alone:\n%s\nvs\n%s",
				workers, report.Cells[1].Doc, want)
		}
		if report.PartitionBuilds != 1 {
			t.Fatalf("workers=%d: %d partition builds, want the one shared node", workers, report.PartitionBuilds)
		}
	}
}

// TestSweepSharedBuildTimeout: a shared partition build is bounded by the
// cell timeout like a private one, so a sweep cell — alone, or sharing the
// build with a sibling — fails with context.DeadlineExceeded soon after the
// deadline instead of waiting for the build to finish by itself. The build
// is the node fold and partition of 131,072 nodes; the fold and growth poll
// the context (every 4,096 nodes and 1,024 clusters), as does refinement
// between passes. The timeout is a tenth of the sweep's uncancelled run and
// the bound half of it, so the test scales with the host.
func TestSweepSharedBuildTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("512k-rank partition in -short mode")
	}
	base := sweepBase()
	base.Machine = MachineSpec{Nodes: 131072}
	base.Placement = PlacementSpec{Ranks: 524288, ProcsPerNode: 4}
	base.Trace = TraceSpec{Source: "synthetic", Iterations: 2}
	base.Strategies = []StrategySpec{{Kind: "hierarchical", Hier: &HierSpec{Multilevel: true}}}
	shared := []MixSpec{{Transient: 0.05, NodeLoss: []float64{0.9}}, {Transient: 0.5, NodeLoss: []float64{0.5}}}
	// One pipeline serves every sweep, so its build memory is warm and the
	// timed sweeps measure the build, not page faults of a fresh arena.
	pl := NewPipeline(WithWorkers(2))
	sweep := func(mixes []MixSpec, timeout time.Duration) (*SweepReport, time.Duration) {
		sw := &Sweep{Name: "build-timeout", Base: base, Axes: SweepAxes{Mixes: mixes}}
		start := time.Now()
		report, err := pl.RunSweep(context.Background(), sw, SweepOptions{Workers: 2, CellTimeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		return report, time.Since(start)
	}
	var full time.Duration
	for range 2 {
		var report *SweepReport
		report, full = sweep(shared, 0)
		for i, cell := range report.Cells {
			if cell.Err != nil {
				t.Fatalf("uncancelled sweep: cell %d: %v", i, cell.Err)
			}
		}
	}
	timeout, bound := full/10, full/2
	if racedetect.Enabled {
		// The detector slows the unpolled stage (the scoring) more than
		// the polled build.
		bound = full * 3 / 4
	}
	for _, mixes := range [][]MixSpec{nil, shared} { // one cell, then two sharing the build
		report, took := sweep(mixes, timeout)
		t.Logf("%d-cell sweep with a %v cell timeout took %v (uncancelled %v)", len(report.Cells), timeout, took, full)
		if took > bound {
			t.Errorf("%d-cell sweep took %v, want under %v (the uncancelled run is %v)", len(report.Cells), took, bound, full)
		}
		for i, cell := range report.Cells {
			if !errors.Is(cell.Err, context.DeadlineExceeded) {
				t.Errorf("%d-cell sweep: cell %d returned %v, want context.DeadlineExceeded", len(report.Cells), i, cell.Err)
			}
		}
	}
}

// TestRunSweepProfileBuildPanicReachesEverySharer: a panic while a shared
// node builds its profile is recovered at the node, so every cell sharing
// the node gets it as a *PanicError, none blocks on the build, and the build
// is not retried.
func TestRunSweepProfileBuildPanicReachesEverySharer(t *testing.T) {
	sw := &Sweep{
		Name: "profile-panic",
		Base: sweepBase(),
		Axes: SweepAxes{Mixes: []MixSpec{
			{Transient: 0.05, NodeLoss: []float64{0.9}},
			{Transient: 0.3, NodeLoss: []float64{0.7}},
			{Transient: 0.5, NodeLoss: []float64{0.5}},
		}},
	}
	plan, err := PlanSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	cells := plan.Cells
	for _, workers := range []int{1, 3} {
		pl := NewPipeline()
		run := pl.newSweepRun(context.Background(), plan)
		logged := spyOnTraces(t, plan, run, true)
		done := make(chan *SweepReport, 1)
		go func() {
			report, err := pl.runSweep(run, plan, SweepOptions{Workers: workers})
			if err != nil {
				t.Errorf("workers=%d: %v", workers, err)
			}
			done <- report
		}()
		var report *SweepReport
		select {
		case report = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: sweep blocked on a panicked profile build", workers)
		}
		if report.CellsFailed != len(cells) {
			t.Fatalf("workers=%d: %d cells failed, want all %d", workers, report.CellsFailed, len(cells))
		}
		for i, cell := range report.Cells {
			var pe *PanicError
			if !errors.As(cell.Err, &pe) {
				t.Errorf("workers=%d: cell %d error %v, want a *PanicError", workers, i, cell.Err)
			}
		}
		if got := logged.Load(); got != 1 {
			t.Errorf("workers=%d: the panicking profile build ran %d times, want 1", workers, got)
		}
	}
}

// TestPlanSweepKeysMatchPerCellDerivation: the planner keys nodes by value
// and marshals a strategy spec once per axis value; the node ids are those
// of deriving rendered keys per cell × strategy from the public methods.
// A built-in flat strategy's key leaves the trace out (its clustering reads
// only the rank count); every other kind's keeps it. A logged fraction is
// keyed by its (clustering, trace) pair.
func TestPlanSweepKeysMatchPerCellDerivation(t *testing.T) {
	sw := allAxesSweep()
	sw.Axes.Strategies = append(sw.Axes.Strategies, []StrategySpec{
		{Kind: "hierarchical", Hier: &HierSpec{Multilevel: true, SubgroupNodes: 2}}, {Kind: "naive", Size: 8},
	})
	plan, err := PlanSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	placeIDs, traceIDs, partIDs, loggedIDs := map[string]int{}, map[string]int{}, map[string]int{}, map[string]int{}
	id := func(ids map[string]int, key string) int {
		if _, ok := ids[key]; !ok {
			ids[key] = len(ids)
		}
		return ids[key]
	}
	flat := 0
	for i := range plan.Cells {
		cell := &plan.Cells[i]
		sc := cell.Scenario
		if key, err := sc.CacheKey(); err != nil || key != cell.CacheKey {
			t.Fatalf("cell %d: planned cache key diverges from Scenario.CacheKey (%v)", i, err)
		}
		traceKey, ok := sc.TraceKey()
		if !ok {
			t.Fatalf("cell %d: synthetic trace not shareable", i)
		}
		if want := id(traceIDs, traceKey); cell.TraceNode != want {
			t.Errorf("cell %d: trace node %d, want %d", i, cell.TraceNode, want)
		}
		placeKey := fmt.Sprintf("%+v|%+v", sc.Machine, sc.Placement)
		if want := id(placeIDs, placeKey); cell.PlacementNode != want {
			t.Errorf("cell %d: placement node %d, want %d", i, cell.PlacementNode, want)
		}
		for j, spec := range sc.Strategies {
			specJSON, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			partTrace := traceKey
			if spec.Kind == "naive" || spec.Kind == "size-guided" || spec.Kind == "distributed" {
				partTrace = "flat"
				flat++
			}
			part := fmt.Sprintf("part|%s|%s|%s", placeKey, partTrace, specJSON)
			if want := id(partIDs, part); cell.PartNodes[j] != want {
				t.Errorf("cell %d strategy %d: partition node %d, want %d", i, j, cell.PartNodes[j], want)
			}
			if want := id(loggedIDs, part+"|"+traceKey); cell.loggedNodes[j] != want {
				t.Errorf("cell %d strategy %d: logged node %d, want %d", i, j, cell.loggedNodes[j], want)
			}
		}
	}
	if flat == 0 || len(traceIDs) < 2 {
		t.Fatalf("sweep exercises %d flat strategies over %d traces; the rule needs both", flat, len(traceIDs))
	}
	if plan.TraceBuilds != len(traceIDs) || plan.PartitionBuilds != len(partIDs) {
		t.Errorf("plan counts %d trace / %d partition builds, per-cell derivation %d / %d",
			plan.TraceBuilds, plan.PartitionBuilds, len(traceIDs), len(partIDs))
	}
}

// gridSweep is the shape of hcbench's sweep-grid: 4 one-strategy sets × 3
// mixes × 2 trace points.
func gridSweep() *Sweep {
	loss := []float64{0.9429, 6.3e-3, 6.6e-4, 6.6e-5, 6.6e-6, 6.6e-7}
	return &Sweep{
		Name: "grid",
		Base: Scenario{
			Name:      "grid",
			Machine:   MachineSpec{Model: "tsubame2", Nodes: 128},
			Placement: PlacementSpec{Policy: "block", Ranks: 512, ProcsPerNode: 4},
			Trace:     TraceSpec{Source: "synthetic", Pattern: "stencil2d"},
		},
		Axes: SweepAxes{
			Strategies: [][]StrategySpec{
				{{Kind: "naive", Size: 32}},
				{{Kind: "size-guided", Size: 8}},
				{{Kind: "distributed", Size: 16}},
				{{Kind: "hierarchical", Hier: &HierSpec{Multilevel: true}}},
			},
			Mixes: []MixSpec{
				{Transient: 0.05, NodeLoss: loss},
				{Transient: 0.20, NodeLoss: loss},
				{Transient: 0.05, NodeLoss: loss, PairCorrelation: 0.5},
			},
			Traces: []TracePoint{{Iterations: 60, BytesPerMsg: 2048}, {Iterations: 90, BytesPerMsg: 3000}},
		},
	}
}

// TestPlanSweepAllocsBounded: planning allocates a fixed number of objects
// per cell (its name and cache key) plus a few per distinct node and spec —
// no key is rendered per cell × strategy, and no strategy instantiated or
// mix copied per cell.
func TestPlanSweepAllocsBounded(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	sw := gridSweep()
	plan, err := PlanSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 24 || plan.TraceBuilds != 2 || plan.PartitionBuilds != 5 {
		t.Fatalf("plan has %d cells, %d trace and %d partition builds, want 24, 2 and 5",
			len(plan.Cells), plan.TraceBuilds, plan.PartitionBuilds)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := PlanSweep(sw); err != nil {
			t.Fatal(err)
		}
	})
	// Per cell: its name and cache key; its strategy specs and its mix are
	// checked without allocating. Per distinct node: map growth, and a
	// spec's JSON for a partition node; the slabs fit in that room.
	const perCell, perNode = 2, 4
	nodes := plan.nodes[0] + plan.nodes[1] + plan.nodes[2] + plan.nodes[3]
	bound := float64(perCell*len(plan.Cells) + perNode*nodes)
	t.Logf("PlanSweep allocates %v objects for %d cells and %d nodes (bound %v)", got, len(plan.Cells), nodes, bound)
	if got > bound {
		t.Errorf("PlanSweep allocates %v objects, over %d per cell and %d per node (%v): is a key rendered per cell again?",
			got, perCell, perNode, bound)
	}
}

// TestRunPlannedSweepAllocsBounded: a warm one-worker run of a plan
// allocates per cell what the cell returns — its Result and Evaluations, its
// violation strings and its rendered document — and its normalized mix, and
// per build what the build needs: no closure, error slice or copy per cell
// or strategy.
func TestRunPlannedSweepAllocsBounded(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	plan, err := PlanSweep(gridSweep())
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(WithWorkers(1))
	run := func() {
		report, err := pl.RunPlannedSweep(context.Background(), plan, SweepOptions{Workers: 1})
		if err != nil || report.CellsCompleted != len(plan.Cells) {
			t.Fatalf("%d of %d cells completed: %v", report.CellsCompleted, len(plan.Cells), err)
		}
	}
	run() // the pipeline's buffers and arena reach their shapes
	got := testing.AllocsPerRun(20, run)
	// Per cell: the Result with its loop, Evaluations, the mix, the document
	// and the violations with their slice (1.75 a cell here). Per trace or
	// clustering build: the stencil, a clustering's headers and a
	// hierarchical build's levels; the run's report and node tables
	// fit in that room.
	const perCell, perBuild = 6, 6
	builds := plan.TraceBuilds + plan.PartitionBuilds
	bound := float64(perCell*len(plan.Cells) + perBuild*builds)
	t.Logf("RunPlannedSweep allocates %v objects for %d cells and %d builds (bound %v)", got, len(plan.Cells), builds, bound)
	if got > bound {
		t.Errorf("RunPlannedSweep allocates %v objects, over %d per cell and %d per build (%v): is a closure or copy made per cell again?",
			got, perCell, perBuild, bound)
	}
}

// TestRunSweepHierarchicalPerTrace: only the flat kinds drop the trace
// from their partition key. Hierarchical, which partitions the matrix, gets
// one partition node per trace point while naive shares one across both,
// and every cell's document is Pipeline.Run's byte for byte. The two trace
// points' stencil widths partition the nodes differently, so a wrong share
// would show.
func TestRunSweepHierarchicalPerTrace(t *testing.T) {
	base := sweepBase()
	base.Strategies = []StrategySpec{{Kind: "hierarchical"}, {Kind: "naive", Size: 8}}
	sw := &Sweep{Name: "per-trace", Base: base, Axes: SweepAxes{
		Mixes: []MixSpec{
			{Transient: 0.05, NodeLoss: []float64{0.9, 0.05}},
			{Transient: 0.5, NodeLoss: []float64{0.5}},
		},
		Traces: []TracePoint{{Width: 4}, {Width: 16}},
	}}
	plan, err := PlanSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	perTrace := map[int]int{} // trace node → hierarchical partition node
	for _, cell := range plan.Cells {
		if id, ok := perTrace[cell.TraceNode]; ok && id != cell.PartNodes[0] {
			t.Errorf("cell %d: hierarchical partition node %d, its trace point's is %d", cell.Index, cell.PartNodes[0], id)
		}
		perTrace[cell.TraceNode] = cell.PartNodes[0]
		if cell.PartNodes[1] != plan.Cells[0].PartNodes[1] {
			t.Errorf("cell %d: naive partition node %d, want the one shared node %d", cell.Index, cell.PartNodes[1], plan.Cells[0].PartNodes[1])
		}
	}
	if len(perTrace) != 2 || perTrace[0] == perTrace[1] {
		t.Errorf("hierarchical partition nodes by trace node %v, want one per trace point", perTrace)
	}
	report, err := NewPipeline(WithWorkers(2)).RunPlannedSweep(context.Background(), plan, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.PartitionBuilds != 3 {
		t.Errorf("%d partition builds, want 3", report.PartitionBuilds)
	}
	var l1 [][]int32
	for i, cell := range report.Cells {
		sc := plan.Cells[i].Scenario
		res, err := NewPipeline(WithWorkers(1)).Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if cell.Err != nil || !bytes.Equal(cell.Doc, want) {
			t.Errorf("cell %d (%s) diverges from Pipeline.Run (%v):\n%s\nvs\n%s", i, cell.Scenario, cell.Err, cell.Doc, want)
		}
		comm, placement, err := NewPipeline().Trace(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sc.Strategies[0].Build(comm, placement)
		if err != nil {
			t.Fatal(err)
		}
		l1 = append(l1, c.L1)
	}
	if slices.Equal(l1[0], l1[1]) {
		t.Fatal("hierarchical built one clustering over two trace points: the test cannot tell a wrong share")
	}
}

// TestRunSweepFileTraceSharesFlatClusterings: over a "file" trace, which
// every cell reads for itself, the flat strategies still share one
// clustering across cells while hierarchical and every logged fraction stay
// private — and every cell's document is Pipeline.Run's, at 1 and 2 workers.
func TestRunSweepFileTraceSharesFlatClusterings(t *testing.T) {
	m, err := trace.Synthetic(64, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.hctr")
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	base := sweepBase()
	base.Trace = TraceSpec{Source: "file", Path: path}
	sw := &Sweep{Name: "file", Base: base, Axes: SweepAxes{
		Strategies: [][]StrategySpec{
			{{Kind: "naive", Size: 8}, {Kind: "distributed", Size: 8}},
			{{Kind: "hierarchical"}},
		},
		Mixes: []MixSpec{
			{Transient: 0.05, NodeLoss: []float64{0.9, 0.05}},
			{Transient: 0.5, NodeLoss: []float64{0.5}},
		},
	}}
	plan, err := PlanSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TraceBuilds != 4 || plan.PartitionBuilds != 2+2 {
		t.Fatalf("plan has %d trace and %d partition builds, want 4 and 4", plan.TraceBuilds, plan.PartitionBuilds)
	}
	for _, workers := range []int{1, 2} {
		pl := NewPipeline(WithWorkers(workers))
		run := pl.newSweepRun(context.Background(), plan)
		report, err := pl.runSweep(run, plan, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, cell := range report.Cells {
			res, err := NewPipeline(WithWorkers(1)).Run(context.Background(), plan.Cells[i].Scenario)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if cell.Err != nil || !bytes.Equal(cell.Doc, want) {
				t.Errorf("workers=%d: cell %d (%s) diverges from Pipeline.Run (%v):\n%s\nvs\n%s",
					workers, i, cell.Scenario, cell.Err, cell.Doc, want)
			}
		}
		if report.PartitionBuilds != 4 || report.TraceBuilds != 4 || len(run.parts) != 2 || run.loggedBuilds.Load() != 0 {
			t.Errorf("workers=%d: %d partition builds over %d shared nodes, %d trace builds, %d shared logged fractions; want 4 over 2, 4, 0",
				workers, report.PartitionBuilds, len(run.parts), report.TraceBuilds, run.loggedBuilds.Load())
		}
	}
}
