package hierclust

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"hierclust/internal/core"
	"hierclust/internal/graph"
)

// Every strategy's clustering and score profile are scratch inside the
// pipeline: their buffer goes back to the pipeline's free list once the row
// that scores them is rendered (a private cell) or once their last consumer
// finishes (a sweep's shared node). These tests pin that the recycling
// changes no byte, keeps a warm Run from allocating a clustering or a
// profile whatever the collector does, and holds no more buffers than were
// lent at once.

// runDoc is Run's document for sc on a fresh pipeline, which builds every
// clustering in fresh memory.
func runDoc(t *testing.T, sc *Scenario, workers int) []byte {
	t.Helper()
	return runDocOn(t, NewPipeline(WithWorkers(workers)), sc)
}

// runDocOn is Run's document for sc on pl.
func runDocOn(t *testing.T, pl *Pipeline, sc *Scenario) []byte {
	t.Helper()
	res, err := pl.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestClusteringReuseInvisible: on one one-worker pipeline, where every
// build after the first reuses a buffer an earlier build of another shape or
// kind filled, Runs and RunCells interleaved over three shapes (the last
// with a short node) and all four kinds give the documents of runs on fresh
// pipelines. So does a mixed flat and hierarchical sweep over those shapes
// at 1, 2 and 8 workers, whose every clustering node four mixes weigh
// concurrently before its last consumer gives the buffer back. Run it
// under -race.
func TestClusteringReuseInvisible(t *testing.T) {
	shapes := []MachinePoint{{Nodes: 24, Ranks: 96, ProcsPerNode: 4}, {Nodes: 64, Ranks: 512, ProcsPerNode: 8}, {Nodes: 32, Ranks: 250, ProcsPerNode: 8}}
	kinds := []StrategySpec{{Kind: "naive", Size: 16}, {Kind: "size-guided", Size: 8}, {Kind: "distributed", Size: 8}, {Kind: "hierarchical"}}
	scenarios := make([]*Scenario, len(shapes))
	want := make([][]byte, len(shapes))
	for i, sh := range shapes {
		sc := syntheticScenario()
		sc.Machine.Nodes, sc.Placement = sh.Nodes, PlacementSpec{Ranks: sh.Ranks, ProcsPerNode: sh.ProcsPerNode}
		// A short loss tail: the short node makes the layout irregular, and
		// the default tail would sample it by Monte Carlo.
		sc.Strategies, sc.Mix = kinds, &MixSpec{Transient: 0.05, NodeLoss: []float64{0.5, 0.1}}
		scenarios[i], want[i] = sc, runDoc(t, sc, 1)
	}
	warm := NewPipeline(WithWorkers(1))
	for round := 0; round < 3; round++ {
		for k := range scenarios {
			i := (k + round) % len(scenarios)
			if got := runDocOn(t, warm, scenarios[i]); !bytes.Equal(got, want[i]) {
				t.Fatalf("round %d, %d ranks: a warm run diverges from a cold one:\n%s\nvs\n%s", round, shapes[i].Ranks, got, want[i])
			}
			if cell, _ := warm.RunCell(context.Background(), scenarios[i], SweepOptions{}); cell.Err != nil || !bytes.Equal(cell.Doc, want[i]) {
				t.Fatalf("round %d, %d ranks: a warm RunCell diverges from a cold run (%v):\n%s\nvs\n%s", round, shapes[i].Ranks, cell.Err, cell.Doc, want[i])
			}
		}
	}

	sw := &Sweep{Name: "reuse", Base: *scenarios[0], Axes: SweepAxes{
		Machines:   shapes,
		Strategies: [][]StrategySpec{{kinds[0], kinds[3]}, {kinds[1], kinds[2]}, {kinds[3]}},
		Mixes: []MixSpec{{Transient: 0.05, NodeLoss: []float64{0.9}}, {Transient: 0.5, NodeLoss: []float64{0.5, 0.2}},
			{Transient: 0.05, NodeLoss: []float64{0.6, 0.3}, PairCorrelation: 0.5}, {Transient: 0.2, NodeLoss: []float64{0.5, 0.2, 0.1}}},
	}}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	wantCells := make([][]byte, len(cells))
	for i, cell := range cells {
		wantCells[i] = runDoc(t, cell, 1)
	}
	for _, workers := range []int{1, 2, 8} {
		report, err := NewPipeline(WithWorkers(workers)).RunSweep(context.Background(), sw, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, cell := range report.Cells {
			if cell.Err != nil {
				t.Fatalf("workers=%d: cell %d: %v", workers, i, cell.Err)
			}
			if !bytes.Equal(cell.Doc, wantCells[i]) {
				t.Errorf("workers=%d: cell %d (%s) diverges from a cold run:\n%s\nvs\n%s", workers, i, cell.Scenario, cell.Doc, wantCells[i])
			}
		}
	}
}

// TestWarmRunAllocatesNoClustering: once its pipeline has served the
// shape, a Run of a 16,384-rank hierarchical scenario allocates under 1 byte
// a rank: 1,936 B, or ≈2.4 KB right after two collections (what they drop
// lies outside the pipeline). The clustering alone is 8 a rank plus 24 a group header,
// and its score profile about 2 a rank, so a Run that lost its buffer, and
// built each clustering fresh, fails here, and so does one that scores in a
// fresh profile (35,632 B, when the buffer carried only the clustering). Two
// collections just before the measured Run leave the pipeline's buffers
// where they are.
func TestWarmRunAllocatesNoClustering(t *testing.T) {
	const ranks = 16384
	sc := &Scenario{
		Name:       "warm",
		Machine:    MachineSpec{Nodes: ranks / 4},
		Placement:  PlacementSpec{Ranks: ranks, ProcsPerNode: 4},
		Trace:      TraceSpec{Source: "synthetic", Pattern: "stencil2d"},
		Strategies: []StrategySpec{{Kind: "hierarchical", Hier: &HierSpec{Multilevel: true}}},
	}
	pl := NewPipeline(WithWorkers(1))
	var res *Result
	var err error
	for i := 0; i < 2; i++ { // size the buffer, then settle its arena's slabs
		if res, err = pl.Run(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := pl.Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(ranks)
	t.Logf("warm Run: %d B, limit %d (1/rank); a fresh clustering is %d B (8/rank + 24/group)",
		got, limit, 8*ranks+24*res.Evaluations[0].Groups)
	if got >= limit {
		t.Errorf("warm Run allocates %d B, at or over %d: the pipeline built or scored its clustering in fresh memory", got, limit)
	}
}

// freeBufs is the number of buffers pl's free list holds.
func freeBufs(pl *Pipeline) int { return pl.bufs.len() }

// len is the number of items l holds.
func (l *freeList[T]) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}

// TestFreeListHoldsPeakLent: the free lists keep a buffer for each
// clustering that was live at once and an arena for each build that ran at
// once, and no more. A one-worker sweep shaped like the gate benchmark's
// sweep-grid (4 one-strategy sets × 3 mixes × 2 trace points) holds its two
// trace points' hierarchical clusterings at the same time but builds them
// one after the other, so it leaves 2 buffers and 1 arena, and a repeat
// lends those again and no new one. A 4,096-rank Run then a 65,536-rank Run
// on a one-worker pipeline leave 1 of each: the small ones grow to the large
// shape. Run it under -race.
func TestFreeListHoldsPeakLent(t *testing.T) {
	loss := []float64{0.9429, 6.3e-3, 6.6e-4, 6.6e-5}
	sw := &Sweep{
		Name: "grid",
		Base: Scenario{
			Name:      "grid",
			Machine:   MachineSpec{Model: "tsubame2", Nodes: 256},
			Placement: PlacementSpec{Policy: "block", Ranks: 1024, ProcsPerNode: 4},
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
			Traces: []TracePoint{{Iterations: 60, BytesPerMsg: 1500}, {Iterations: 90, BytesPerMsg: 3000}},
		},
	}
	pl := NewPipeline(WithWorkers(1))
	lent, arena := map[*core.ClusteringBuf]bool{}, (*graph.Arena)(nil)
	for round := 0; round < 2; round++ {
		report, err := pl.RunSweep(context.Background(), sw, SweepOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if report.CellsCompleted != 24 {
			t.Fatalf("round %d: %d of 24 cells completed", round, report.CellsCompleted)
		}
		if n, a := freeBufs(pl), pl.arenas.len(); n != 2 || a != 1 {
			t.Fatalf("round %d: the sweep leaves %d buffers and %d arenas, want 2 and 1", round, n, a)
		}
		for _, b := range pl.bufs.free {
			if round > 0 && !lent[b] {
				t.Fatal("a repeat of the sweep lent a new buffer")
			}
			lent[b] = true
		}
		if round > 0 && pl.arenas.free[0] != arena {
			t.Fatal("a repeat of the sweep lent a new arena")
		}
		arena = pl.arenas.free[0]
	}

	pl = NewPipeline(WithWorkers(1))
	for _, ranks := range []int{4096, 65536} {
		sc := &Scenario{
			Name:       "grow",
			Machine:    MachineSpec{Nodes: ranks / 4},
			Placement:  PlacementSpec{Ranks: ranks, ProcsPerNode: 4},
			Trace:      TraceSpec{Source: "synthetic", Pattern: "stencil2d"},
			Strategies: []StrategySpec{{Kind: "naive", Size: 32}, {Kind: "hierarchical"}},
		}
		if _, err := pl.Run(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
	}
	if n, a := freeBufs(pl), pl.arenas.len(); n != 1 || a != 1 {
		t.Errorf("a 4,096-rank then a 65,536-rank Run leave %d buffers and %d arenas, want 1 and 1", n, a)
	}
}
