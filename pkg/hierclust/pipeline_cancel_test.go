package hierclust

import (
	"context"
	"errors"
	"testing"
	"time"

	"hierclust/internal/faultinject"
	"hierclust/internal/racedetect"
)

// cancelLatencyBound is how quickly a cancelled Run must return. The
// production target is "well under 100ms"; the race detector slows the
// inner loops by an order of magnitude, so the bound scales with it.
func cancelLatencyBound() time.Duration {
	if racedetect.Enabled {
		return time.Second
	}
	return 100 * time.Millisecond
}

// chaosMCScenario runs a paper strategy on a placement that forces the
// reliability model onto its slowest path — Monte Carlo sampling — so
// cancellation tests reliably catch Run mid-sampling. Round-robin puts rank
// r on node r mod 2048, so naive's 3-rank groups sit on three consecutive
// nodes, and once the ranks wrap past the last node the groups' node spans
// overlap the first half's partially ({2046, 2047, 2048} spans nodes 2046,
// 2047 and 0; {2049, 2050, 2051} spans nodes 1 to 3). That rules out the
// disjoint-span closed form, enumeration over C(2048, f ≥ 2) is too large,
// and the union bound is too loose, so the 48-entry mix's multi-node counts
// sample: seconds of work, far past any cancel point the tests pick.
func chaosMCScenario() *Scenario {
	loss := make([]float64, 48)
	for i := range loss {
		loss[i] = 1
	}
	return &Scenario{
		Name:       "cancel-mc",
		Machine:    MachineSpec{Nodes: 2048},
		Placement:  PlacementSpec{Policy: "round-robin", Ranks: 4096, ProcsPerNode: 2},
		Trace:      TraceSpec{Source: "synthetic", Iterations: 2},
		Strategies: []StrategySpec{{Kind: "naive", Size: 3}},
		Mix:        &MixSpec{NodeLoss: loss},
	}
}

// runCancelled starts Run on pl, cancels it after warmup, and returns the
// error and the cancel→return latency.
func runCancelled(t *testing.T, pl *Pipeline, sc *Scenario, warmup time.Duration) (error, time.Duration) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := pl.Run(ctx, sc)
		done <- err
	}()
	time.Sleep(warmup)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		return err, time.Since(start)
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled Run did not return within 30s")
		return nil, 0
	}
}

// TestPipelineRunCancelMidMonteCarlo pins the cancellation-latency
// contract on the reliability model's sampling loops: chaosMCScenario
// forces Monte Carlo rounds of 200k samples (seconds of work), the
// test cancels 100ms in — long past trace generation, inside sampling —
// and Run must return context.Canceled within the latency bound.
func TestPipelineRunCancelMidMonteCarlo(t *testing.T) {
	err, lat := runCancelled(t, NewPipeline(WithWorkers(1)), chaosMCScenario(), 100*time.Millisecond)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
	if bound := cancelLatencyBound(); lat > bound {
		t.Fatalf("cancel→return latency %v exceeds %v", lat, bound)
	}
}

// TestPipelineRunCancelMidPartition pins the same contract on the other
// long-running stage: the hierarchical build on a 131,072-node machine (the
// node fold and the partition, most of the Run's time). Cancelling a tenth
// of an uncancelled Run in lands mid-build; the fold and growth poll (every
// 4,096 nodes and 1,024 clusters), as does refinement between passes, so
// the Run must return within the latency bound and within half of its own
// uncancelled time, rather than running the build to completion. The
// relative bound scales with the host, as TestSweepSharedBuildTimeout's
// does.
func TestPipelineRunCancelMidPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("256k-rank partition in -short mode")
	}
	sc := &Scenario{
		Name:      "cancel-partition",
		Machine:   MachineSpec{Nodes: 131072},
		Placement: PlacementSpec{Policy: "block", Ranks: 262144, ProcsPerNode: 2},
		Trace:     TraceSpec{Source: "synthetic", Iterations: 2},
		Strategies: []StrategySpec{
			{Kind: "hierarchical", Hier: &HierSpec{Multilevel: true}},
		},
	}
	// One pipeline serves every Run, so its build memory is warm and the
	// timed Runs measure the build, not page faults of a fresh arena.
	pl := NewPipeline(WithWorkers(1))
	var full time.Duration
	for range 2 {
		start := time.Now()
		if _, err := pl.Run(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
		full = time.Since(start)
	}
	warmup, bound := full/10, full/2
	if racedetect.Enabled {
		// The detector slows the unpolled stage (the scoring) more than
		// the polled build.
		bound = full * 3 / 4
	}
	err, lat := runCancelled(t, pl, sc, warmup)
	t.Logf("cancelled %v in, returned %v later (uncancelled %v)", warmup, lat, full)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
	if lat > cancelLatencyBound() || warmup+lat > bound {
		t.Fatalf("cancelled Run took %v + %v; want the latency under %v and the whole under %v (the uncancelled Run is %v)",
			warmup, lat, cancelLatencyBound(), bound, full)
	}
}

// TestPipelineWorkerPanicIsolated pins the panic-isolation boundary: an
// injected panic in a strategy-evaluation worker surfaces as *PanicError
// on that Run, and the pipeline serves the next Run normally — with
// results bit-identical to a pipeline that never saw a panic.
func TestPipelineWorkerPanicIsolated(t *testing.T) {
	defer faultinject.DisarmAll()
	pl := NewPipeline(WithWorkers(2))
	sc := traceScenario("panic-run", "hierarchical")

	faultinject.Arm("pipeline.worker", faultinject.Fault{Kind: faultinject.KindPanic})
	_, err := pl.Run(context.Background(), sc)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run under injected worker panic returned %v, want *PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("recovered PanicError carries no stack")
	}

	faultinject.DisarmAll()
	got, err := pl.Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("Run after recovered panic failed: %v", err)
	}
	ref, err := NewPipeline(WithWorkers(1)).Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalBytes != ref.TotalBytes || got.Evaluations[0].Strategy != ref.Evaluations[0].Strategy {
		t.Fatalf("post-panic result differs from clean pipeline: %+v vs %+v", got, ref)
	}
	if got.Evaluations[0].CatastropheProb != ref.Evaluations[0].CatastropheProb ||
		got.Evaluations[0].LoggedFraction != ref.Evaluations[0].LoggedFraction {
		t.Fatalf("post-panic evaluation differs: %+v vs %+v", got.Evaluations[0], ref.Evaluations[0])
	}
}

// TestPipelineTraceBuildPanicIsolated pins the singleflight boundary: a
// panic inside the shared trace build is recovered, reported to the Run
// that owned the build, and does not poison the pipeline for later Runs.
func TestPipelineTraceBuildPanicIsolated(t *testing.T) {
	defer faultinject.DisarmAll()
	pl := NewPipeline(WithWorkers(1), WithTraceCache(NewMemoryTraceCache(4)))
	sc := traceScenario("trace-panic", "hierarchical")

	faultinject.Arm("pipeline.trace.build", faultinject.Fault{Kind: faultinject.KindPanic})
	_, err := pl.Run(context.Background(), sc)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run under injected trace-build panic returned %v, want *PanicError", err)
	}

	faultinject.DisarmAll()
	if _, err := pl.Run(context.Background(), sc); err != nil {
		t.Fatalf("Run after recovered trace-build panic failed: %v", err)
	}
}

// A Run under a context that can be cancelled allocates what a Run under
// Background does: the build and the weighing poll ctx.Err() themselves, so
// no strategy turns the context into a closure or a watcher first.
func TestPipelineRunCancelableCtxAllocatesNothingMore(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	sc := &Scenario{
		Name:       "cancelable-allocs",
		Machine:    MachineSpec{Nodes: 128},
		Placement:  PlacementSpec{Ranks: 1024, ProcsPerNode: 8},
		Trace:      TraceSpec{Source: "synthetic", Pattern: "stencil2d"},
		Strategies: []StrategySpec{{Kind: "naive", Size: 32}, {Kind: "hierarchical"}},
	}
	pl := NewPipeline(WithWorkers(1))
	allocs := func(ctx context.Context) float64 {
		run := func() {
			if _, err := pl.Run(ctx, sc); err != nil {
				t.Fatal(err)
			}
		}
		run() // the pipeline's buffers and arena reach their shapes
		return testing.AllocsPerRun(10, run)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	background, cancelable := allocs(context.Background()), allocs(ctx)
	t.Logf("a warm Run allocates %v objects under Background, %v under WithCancel", background, cancelable)
	if cancelable != background {
		t.Errorf("a warm Run allocates %v objects under a cancelable context, %v under Background", cancelable, background)
	}
}
