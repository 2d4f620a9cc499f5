package hierclust

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"hierclust/internal/core"
	"hierclust/internal/racedetect"
	"hierclust/internal/reliability"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
)

// syntheticScenario is the shared small test scenario: 256 ranks on 32
// nodes, generated 2-D stencil, all four built-in strategies.
func syntheticScenario() *Scenario {
	return &Scenario{
		Name:      "test-synthetic",
		Machine:   MachineSpec{Nodes: 32},
		Placement: PlacementSpec{Ranks: 256, ProcsPerNode: 8},
		Trace:     TraceSpec{Source: "synthetic", Pattern: "stencil2d"},
		Strategies: []StrategySpec{
			{Kind: "naive", Size: 32},
			{Kind: "size-guided", Size: 8},
			{Kind: "distributed", Size: 16},
			{Kind: "hierarchical"},
		},
	}
}

// TestPipelineMatchesCore pins the pipeline to the engine underneath it:
// every number in the result must equal a direct core.Evaluate of the same
// strategy on the same rig.
func TestPipelineMatchesCore(t *testing.T) {
	sc := syntheticScenario()
	res, err := NewPipeline().Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks != 256 || res.Nodes != 32 {
		t.Fatalf("rig = %d ranks / %d nodes, want 256/32", res.Ranks, res.Nodes)
	}

	// Rebuild the rig by hand.
	mach, err := topology.Tsubame2().Subset(32)
	if err != nil {
		t.Fatal(err)
	}
	placement, err := topology.Block(mach, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := trace.Synthetic(256, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	builds := []func() (*Clustering, error){
		func() (*Clustering, error) { return core.Naive(256, 32) },
		func() (*Clustering, error) { return core.SizeGuided(256, 8) },
		func() (*Clustering, error) { return core.Distributed(256, 16) },
		func() (*Clustering, error) { return core.Hierarchical(m, placement, core.HierOptions{}) },
	}
	for i, build := range builds {
		c, err := build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Evaluate(c, m, placement, reliability.DefaultMix())
		if err != nil {
			t.Fatal(err)
		}
		got := res.Evaluations[i]
		if got.Strategy != want.Name {
			t.Errorf("evaluation %d: strategy %q, want %q", i, got.Strategy, want.Name)
		}
		if got.LoggedFraction != want.LoggedFraction ||
			got.RecoveryFraction != want.RecoveryFraction ||
			got.EncodeSecondsPerGB != want.EncodeSecondsPerGB ||
			got.CatastropheProb != want.CatastropheProb {
			t.Errorf("evaluation %q diverges from core.Evaluate:\ngot  %+v\nwant %+v", got.Strategy, got, want)
		}
	}
}

// TestPipelineWorkerInvariance: results are bit-identical at any worker
// count (the reliability model's determinism contract, carried through).
func TestPipelineWorkerInvariance(t *testing.T) {
	sc := syntheticScenario()
	base, err := NewPipeline(WithWorkers(1)).Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		res, err := NewPipeline(WithWorkers(w)).Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("results differ between 1 and %d workers", w)
		}
	}
}

// TestPipelineOneWorkerIsTheBudget: WithWorkers(1) bounds all of a Run's
// compute, the partitioner included, so a Run allocates the same objects at
// GOMAXPROCS 2 as at 1 — a stage that forked onto idle P's would add its
// goroutines and closures at 2. The partition runs on 16,384 nodes, well
// past any chunk a parallel phase could split. The pipeline
// lends every Run the one buffer a warm-up Run sized, so the count repeats
// whichever P a Run lands on. The runtime
// adds objects of its own to a Run now and then: a collection that starts
// mid-Run can have its mark worker, on a P whose sudog cache is empty,
// allocate one, and a type assertion may rebuild its call site's cache.
// The collector is off while the Runs are measured, and each P count reads
// the median of 5 Runs: a stray runtime object moves one Run, a stage that
// forks in 3 or more of them moves the median.
// testing.AllocsPerRun cannot measure this: it pins GOMAXPROCS to 1.
func TestPipelineOneWorkerIsTheBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	sc := &Scenario{
		Name:       "one-worker",
		Machine:    MachineSpec{Nodes: 16384},
		Placement:  PlacementSpec{Ranks: 32768, ProcsPerNode: 2},
		Trace:      TraceSpec{Source: "synthetic", Pattern: "stencil2d"},
		Strategies: []StrategySpec{{Kind: "hierarchical", Hier: &HierSpec{Multilevel: true}}},
	}
	pl := NewPipeline(WithWorkers(1))
	if _, err := pl.Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocsAt := func(procs int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var allocs [5]uint64
		for i := range allocs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := pl.Run(context.Background(), sc); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocs[i] = after.Mallocs - before.Mallocs
		}
		slices.Sort(allocs[:])
		return allocs[len(allocs)/2]
	}
	one, two := allocsAt(1), allocsAt(2)
	t.Logf("Run under WithWorkers(1): %d allocs at GOMAXPROCS 1, %d at GOMAXPROCS 2", one, two)
	if one != two {
		t.Errorf("Run under WithWorkers(1) allocates %d objects at GOMAXPROCS 2 and %d at 1: something runs outside the worker budget", two, one)
	}
}

// TestPipelineFileSource: the implicit stencil a synthetic scenario runs on
// and the CSR read back from trace.Synthetic's serialization of the same
// trace give the same Result, at any worker count. Neither source enters a
// trace cache, so a pipeline with one builds both fresh every time.
func TestPipelineFileSource(t *testing.T) {
	m, err := trace.Synthetic(256, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.hctr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	mem := syntheticScenario()
	fromFile := syntheticScenario()
	fromFile.Trace = TraceSpec{Source: "file", Path: path}

	for _, workers := range []int{1, 4} {
		tc := NewMemoryTraceCache(2)
		pl := NewPipeline(WithWorkers(workers), WithTraceCache(tc))
		want, err := pl.Run(context.Background(), fromFile)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.Run(context.Background(), mem)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: synthetic result diverges from the file-sourced one:\ngot  %+v\nwant %+v", workers, got, want)
		}
		if st := tc.Stats(); st.Hits+st.Misses+int64(st.Entries) != 0 {
			t.Fatalf("workers=%d: the trace cache saw a file or synthetic trace: %+v", workers, st)
		}
	}
}

// TestPipelineTsunamiMatchesTracedRun: the "tsunami" source traces through
// the same rig the experiment harness uses.
func TestPipelineTsunamiMatchesTracedRun(t *testing.T) {
	sc := &Scenario{
		Name:       "test-tsunami",
		Machine:    MachineSpec{Nodes: 8},
		Placement:  PlacementSpec{Ranks: 64, ProcsPerNode: 8},
		Trace:      TraceSpec{Source: "tsunami", Iterations: 5},
		Strategies: []StrategySpec{{Kind: "naive", Size: 8}},
	}
	res, err := NewPipeline().Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes == 0 || res.TotalMsgs == 0 {
		t.Fatalf("traced run produced an empty matrix: %+v", res)
	}
	// Same trace by hand.
	rec := NewTraceRecorder(64)
	if err := TraceTsunami(TracedTsunamiOptions{
		Params: TsunamiTraceParams(64), Iterations: 5, Tracer: rec,
	}); err != nil {
		t.Fatal(err)
	}
	if rec.Freeze().TotalBytes() != res.TotalBytes {
		t.Fatalf("pipeline traced %d bytes, direct TraceTsunami %d", res.TotalBytes, rec.Freeze().TotalBytes())
	}
}

func TestPipelineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewPipeline().Run(ctx, syntheticScenario()); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

func TestPipelineRejectsMismatchedTrace(t *testing.T) {
	m, err := trace.Synthetic(128, trace.SyntheticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "small.hctr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sc := syntheticScenario() // 256 ranks
	sc.Trace = TraceSpec{Source: "file", Path: path}
	if _, err := NewPipeline().Run(context.Background(), sc); err == nil {
		t.Fatal("a 128-rank trace evaluated against a 256-rank placement")
	}
}
