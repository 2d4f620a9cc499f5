package hierclust

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"hierclust/internal/racedetect"
)

// What a sweep shares: placements, traces, and clusterings with their score
// profiles. These tests pin that sharing changes no byte, builds each shared
// thing once, lets go of it when its last consumer finishes, and keeps one
// cell's timeout or one build's panic from reaching further than it should.

// spyComm counts LoggedFraction calls (every profile build makes exactly
// one, and nothing else calls it) and can be told to panic there.
type spyComm struct {
	Comm
	logged *atomic.Int64
	panics bool
}

func (c spyComm) LoggedFraction(part []int) (float64, error) {
	c.logged.Add(1)
	if c.panics {
		panic("spyComm: LoggedFraction")
	}
	return c.Comm.LoggedFraction(part)
}

// spyOnTraces builds every shared trace node of run ahead of the sweep,
// wrapped in spyComm, so the sweep hands the spy to every clustering and
// profile build. It returns the spies' LoggedFraction counter.
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

// TestRunSweepSharedProfilesByteIdentical: with placements, clusterings and
// profiles shared, every cell's document is still Pipeline.Run of that cell
// alone, at 1, 2 and 8 workers; every partition node built one profile and
// every placement node one placement.
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
	for _, workers := range []int{1, 2, 8} {
		run := newSweepRun(context.Background(), plan)
		logged := spyOnTraces(t, plan, run, false)
		report, err := NewPipeline(WithWorkers(workers)).runSweep(run, plan, SweepOptions{Workers: workers})
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
		if got := logged.Load(); got != int64(plan.PartitionBuilds) || report.PartitionBuilds != int64(plan.PartitionBuilds) {
			t.Errorf("workers=%d: %d profiles built over %d partition builds, plan has %d partition nodes",
				workers, got, report.PartitionBuilds, plan.PartitionBuilds)
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
	run := newSweepRun(context.Background(), plan)
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
	_, err = NewPipeline().runSweep(run, plan, SweepOptions{Workers: 1, OnCell: func(res SweepCellResult) {
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
		run := newSweepRun(route.ctx, plan)
		if _, err := NewPipeline().runSweep(run, plan, route.opts); err != route.ctx.Err() {
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
		run := newSweepRun(context.Background(), plan)
		logged := spyOnTraces(t, plan, run, true)
		done := make(chan *SweepReport, 1)
		go func() {
			report, err := NewPipeline().runSweep(run, plan, SweepOptions{Workers: workers})
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

// TestPlanSweepKeysMatchPerCellDerivation: the planner takes TraceKey once
// per cell and marshals a strategy spec once per axis value; the keys — and
// so the node ids — are those of deriving everything per cell × strategy
// from the public methods, as it used to.
func TestPlanSweepKeysMatchPerCellDerivation(t *testing.T) {
	sw := allAxesSweep()
	sw.Axes.Strategies = append(sw.Axes.Strategies, []StrategySpec{
		{Kind: "hierarchical", Hier: &HierSpec{Multilevel: true, SubgroupNodes: 2}}, {Kind: "naive", Size: 8},
	})
	plan, err := PlanSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	placeIDs, traceIDs, partIDs := map[string]int{}, map[string]int{}, map[string]int{}
	id := func(ids map[string]int, key string) int {
		if _, ok := ids[key]; !ok {
			ids[key] = len(ids)
		}
		return ids[key]
	}
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
			old := fmt.Sprintf("part|model=%s|nodes=%d|policy=%s|ranks=%d|ppn=%d|%s|%s",
				sc.Machine.Model, sc.Machine.Nodes,
				sc.Placement.Policy, sc.Placement.Ranks, sc.Placement.ProcsPerNode,
				traceKey, specJSON)
			if got := partitionKey(sc, traceKey, string(specJSON)); got != old {
				t.Fatalf("cell %d strategy %d: partition key\n%s\nwant\n%s", i, j, got, old)
			}
			if want := id(partIDs, old); cell.PartNodes[j] != want {
				t.Errorf("cell %d strategy %d: partition node %d, want %d", i, j, cell.PartNodes[j], want)
			}
		}
	}
	if plan.TraceBuilds != len(traceIDs) || plan.PartitionBuilds != len(partIDs) {
		t.Errorf("plan counts %d trace / %d partition builds, per-cell derivation %d / %d",
			plan.TraceBuilds, plan.PartitionBuilds, len(traceIDs), len(partIDs))
	}
}
