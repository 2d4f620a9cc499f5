package hierclust

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"hierclust/internal/core"
	"hierclust/internal/racedetect"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
)

// A built-in strategy's clustering and every strategy's score profile are
// scratch inside the pipeline: their memory goes back to a pool once the
// row that scores them is rendered (a private cell) or once their last
// consumer finishes (a sweep's shared node). These tests pin that the
// recycling changes no byte, never reaches a clustering a third-party
// strategy keeps, and keeps a warm Run from allocating a clustering or a
// profile.

// cachedStrategy is a third-party strategy that keeps what it returns: one
// clustering, built once, handed out by every Build.
type cachedStrategy struct{ c *Clustering }

func (s cachedStrategy) Name() string                                { return s.c.Name }
func (s cachedStrategy) Build(Comm, *Placement) (*Clustering, error) { return s.c, nil }

var cached struct {
	once      sync.Once
	c         *Clustering
	placement *Placement
}

// registerCached registers the "cached-hierarchical" kind: the hierarchical
// clustering of syntheticScenario's rig, the same object on every call. It
// returns the clustering and the rig's placement.
func registerCached(t *testing.T) (*Clustering, *Placement) {
	t.Helper()
	cached.once.Do(func() {
		mach, err := topology.Tsubame2().Subset(32)
		if err != nil {
			t.Fatal(err)
		}
		if cached.placement, err = topology.Block(mach, 256, 8); err != nil {
			t.Fatal(err)
		}
		m, err := trace.NewStencil(256, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: 8})
		if err != nil {
			t.Fatal(err)
		}
		if cached.c, err = core.Hierarchical(m, cached.placement, core.HierOptions{}); err != nil {
			t.Fatal(err)
		}
		cached.c.Name = "cached-hierarchical"
		MustRegisterStrategy("cached-hierarchical", func(StrategySpec) (Strategy, error) {
			return cachedStrategy{cached.c}, nil
		})
	})
	return cached.c, cached.placement
}

// cloneClustering copies a clustering into fresh memory.
func cloneClustering(c *Clustering) *Clustering {
	out := &Clustering{Name: c.Name, L1: append([]int32(nil), c.L1...)}
	for _, g := range c.Groups {
		out.Groups = append(out.Groups, append([]Rank(nil), g...))
	}
	return out
}

// runDoc is Run's document for sc on a fresh pipeline.
func runDoc(t *testing.T, sc *Scenario, workers int) []byte {
	t.Helper()
	res, err := NewPipeline(WithWorkers(workers)).Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestThirdPartyClusteringNeverRecycled: a registered strategy that returns
// one cached clustering on every call runs next to the built-ins, which
// rebuild at its rank count right after it, through Run, RunCell and two
// 4-cell sweeps: one over two traces and two mixes, and one whose every
// clustering node is shared by four mixes, weighed concurrently at 4
// workers before its last consumer releases it. Its clustering keeps its L1
// and groups, and every document equals a run before any of it. Its score
// profile lives in a pooled buffer, which is recycled; recycling the
// clustering would hand it to the next built-in build. So after every route
// the test builds and scores in every buffer the pool holds. Run it under
// -race.
func TestThirdPartyClusteringNeverRecycled(t *testing.T) {
	c, placement := registerCached(t)
	orig := cloneClustering(c)
	sc := syntheticScenario()
	sc.Strategies = append([]StrategySpec{{Kind: "cached-hierarchical"}}, sc.Strategies...)
	sweeps := []*Sweep{
		{Name: "cached", Base: *sc, Axes: SweepAxes{
			Mixes:  []MixSpec{{Transient: 0.05, NodeLoss: []float64{0.9}}, {Transient: 0.5, NodeLoss: []float64{0.5}}},
			Traces: []TracePoint{{Iterations: 10}, {Iterations: 20}},
		}},
		{Name: "cached-shared", Base: *sc, Axes: SweepAxes{
			Mixes: []MixSpec{{Transient: 0.05, NodeLoss: []float64{0.9}}, {Transient: 0.5, NodeLoss: []float64{0.5}},
				{Transient: 0.05, NodeLoss: []float64{0.6, 0.3}, PairCorrelation: 0.5}, {Transient: 0.2, NodeLoss: []float64{0.5, 0.2, 0.1}}},
		}},
	}
	wantRun := [][]byte{runDoc(t, sc, 1)}
	wantSweeps := make([][][]byte, len(sweeps))
	for k, sw := range sweeps {
		cells, err := sw.Cells()
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range cells {
			wantSweeps[k] = append(wantSweeps[k], runDoc(t, cell, 1))
		}
	}

	check := func(route string, got, want [][]byte) {
		t.Helper()
		// Draw every buffer the pool holds, and build and score in it at the
		// cached clustering's rank count: any of its memory in there is
		// overwritten.
		bufs := make([]*core.ClusteringBuf, 16)
		for i := range bufs {
			bufs[i] = core.GetClusteringBuf()
			naive, err := bufs[i].Naive(len(c.L1), 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := bufs[i].Profile().Init(context.Background(), naive, placement); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range bufs {
			b.Release()
		}
		if !reflect.DeepEqual(c, orig) {
			t.Fatalf("%s: the third-party clustering changed: the pipeline recycled it", route)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: document %d diverges from a run before it:\n%s\nvs\n%s", route, i, got[i], want[i])
			}
		}
	}
	for round := 0; round < 3; round++ {
		for _, workers := range []int{1, 4} {
			pl := NewPipeline(WithWorkers(workers))
			check(fmt.Sprintf("Run, workers=%d", workers), [][]byte{runDoc(t, sc, workers)}, wantRun)
			cell := pl.RunCell(context.Background(), sc, SweepOptions{})
			if cell.Err != nil {
				t.Fatal(cell.Err)
			}
			check(fmt.Sprintf("RunCell, workers=%d", workers), [][]byte{cell.Doc}, wantRun)
			for k, sw := range sweeps {
				report, err := pl.RunSweep(context.Background(), sw, SweepOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				docs := make([][]byte, len(report.Cells))
				for i, cell := range report.Cells {
					if cell.Err != nil {
						t.Fatal(cell.Err)
					}
					docs[i] = cell.Doc
				}
				if k == 1 && report.PartitionBuilds != int64(len(sc.Strategies)) {
					t.Fatalf("sweep %q built %d clusterings for %d strategies: its cells do not share them", sw.Name, report.PartitionBuilds, len(sc.Strategies))
				}
				check(fmt.Sprintf("sweep %q, workers=%d", sw.Name, workers), docs, wantSweeps[k])
			}
		}
	}
}

// coldDoc is runDoc on a cold pool: two collections first empty it, so the
// run builds every clustering in fresh memory.
func coldDoc(t *testing.T, sc *Scenario) []byte {
	t.Helper()
	runtime.GC()
	runtime.GC()
	return runDoc(t, sc, 1)
}

// TestClusteringReuseInvisible: at one P, where every build after the first
// reuses a buffer an earlier build of another shape or kind filled, Runs
// interleaved over three shapes (the last with a short node) and all four
// built-in kinds give the documents of runs on a cold pool. So does a mixed
// flat and hierarchical sweep over those shapes at 1, 2 and 8 workers.
// Run it under -race.
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
		scenarios[i], want[i] = sc, coldDoc(t, sc)
	}
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one pool shard
		for round := 0; round < 3; round++ {
			for k := range scenarios {
				i := (k + round) % len(scenarios)
				if got := runDoc(t, scenarios[i], 1); !bytes.Equal(got, want[i]) {
					t.Fatalf("round %d, %d ranks: a warm run diverges from a cold one:\n%s\nvs\n%s", round, shapes[i].Ranks, got, want[i])
				}
			}
		}
	}()

	sw := &Sweep{Name: "reuse", Base: *scenarios[0], Axes: SweepAxes{
		Machines:   shapes,
		Strategies: [][]StrategySpec{{kinds[0], kinds[3]}, {kinds[1], kinds[2]}, {kinds[3]}},
		Mixes:      []MixSpec{{Transient: 0.05, NodeLoss: []float64{0.9}}, {Transient: 0.5, NodeLoss: []float64{0.5, 0.2}}},
	}}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	wantCells := make([][]byte, len(cells))
	for i, cell := range cells {
		wantCells[i] = coldDoc(t, cell)
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

// TestWarmRunAllocatesNoClustering: once the pools have served the shape, a
// Run of a 16,384-rank hierarchical scenario allocates under 1 byte a rank:
// 1,936 B. The clustering alone is 8 a rank plus 24 a group header, and its
// score profile about 2 a rank, so a Run that lost its release, and built
// each clustering fresh, fails here, and so does one that scores in a fresh
// profile (35,632 B, when the buffer carried only the clustering). It counts
// with ReadMemStats at one P (one pool shard) with the collector off, which
// would otherwise empty the pools between Runs.
func TestWarmRunAllocatesNoClustering(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("race detector: sync.Pool drops buffers at random")
	}
	const ranks = 16384
	sc := &Scenario{
		Name:       "warm",
		Machine:    MachineSpec{Nodes: ranks / 4},
		Placement:  PlacementSpec{Ranks: ranks, ProcsPerNode: 4},
		Trace:      TraceSpec{Source: "synthetic", Pattern: "stencil2d"},
		Strategies: []StrategySpec{{Kind: "hierarchical", Hier: &HierSpec{Multilevel: true}}},
	}
	pl := NewPipeline(WithWorkers(1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var res *Result
	var err error
	for i := 0; i < 2; i++ { // size the arena and the buffer, then settle the arena's slabs
		if res, err = pl.Run(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
	}
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
