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

// chaosMCStrategy is a test-only strategy whose group layout forces the
// reliability model onto its slowest path — Monte Carlo sampling — so
// cancellation tests reliably catch Run mid-sampling:
//
//   - 150 single-node groups ({2i, 2i+1} under block ppn=2 placement, so
//     both members share node i; tolerance 1) are each destroyed whenever
//     their node fails, making the union bound ≈ 151·f/nodes > 0.1 for
//     every f ≥ 2 on a 2048-node machine.
//   - One "breaker" group {300, 301, 302} spans nodes 150 and 151 with
//     unequal member counts, which invalidates the disjoint-span closed
//     form for the whole model.
//
// With enumeration over C(2048, f≥2) too large, the closed form broken,
// and the union bound too loose, every multi-node failure count samples.
type chaosMCStrategy struct{}

func (chaosMCStrategy) Name() string { return "chaos-mc" }

func (chaosMCStrategy) Build(m Comm, p *Placement) (*Clustering, error) {
	n := p.NumRanks()
	c := &Clustering{Name: "chaos-mc", L1: make([]int, n)}
	for i := 0; i < 150; i++ {
		c.Groups = append(c.Groups, []Rank{Rank(2 * i), Rank(2*i + 1)})
	}
	c.Groups = append(c.Groups, []Rank{300, 301, 302})
	return c, nil
}

func init() {
	MustRegisterStrategy("chaos-mc", func(spec StrategySpec) (Strategy, error) {
		return chaosMCStrategy{}, nil
	})
}

// chaosMCScenario needs Monte Carlo rounds for every node-loss count in
// the mix, totalling seconds of sampling — far past any cancel point the
// tests pick.
func chaosMCScenario() *Scenario {
	loss := make([]float64, 48)
	for i := range loss {
		loss[i] = 1
	}
	return &Scenario{
		Name:       "cancel-mc",
		Machine:    MachineSpec{Nodes: 2048},
		Placement:  PlacementSpec{Policy: "block", Ranks: 4096, ProcsPerNode: 2},
		Trace:      TraceSpec{Source: "synthetic", Iterations: 2},
		Strategies: []StrategySpec{{Kind: "chaos-mc"}},
		Mix:        &MixSpec{NodeLoss: loss},
	}
}

// runCancelled starts Run, cancels it after warmup, and returns the error
// and the cancel→return latency.
func runCancelled(t *testing.T, sc *Scenario, warmup time.Duration) (error, time.Duration) {
	t.Helper()
	pl := NewPipeline(WithWorkers(1))
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
// contract on the reliability model's sampling loops: the chaos-mc layout
// forces ~47 Monte Carlo rounds of 200k samples (seconds of work), the
// test cancels 100ms in — long past trace generation, inside sampling —
// and Run must return context.Canceled within the latency bound.
func TestPipelineRunCancelMidMonteCarlo(t *testing.T) {
	err, lat := runCancelled(t, chaosMCScenario(), 100*time.Millisecond)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
	if bound := cancelLatencyBound(); lat > bound {
		t.Fatalf("cancel→return latency %v exceeds %v", lat, bound)
	}
}

// TestPipelineRunCancelMidMultilevelPartition pins the same contract on
// the other long-running stage: the multilevel partitioner on a 131,072-node
// machine (tens of ms of coarsening/refinement, several times the stages
// before it, so a fast host cannot finish the whole Run first). Cancelling
// 10ms in lands mid-partition; the partitioner polls between levels and
// refinement passes, so the return must stay within the latency bound rather
// than running the partition to completion.
func TestPipelineRunCancelMidMultilevelPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("256k-rank partition in -short mode")
	}
	sc := &Scenario{
		Name:      "cancel-ml",
		Machine:   MachineSpec{Nodes: 131072},
		Placement: PlacementSpec{Policy: "block", Ranks: 262144, ProcsPerNode: 2},
		Trace:     TraceSpec{Source: "synthetic", Iterations: 2},
		Strategies: []StrategySpec{
			{Kind: "hierarchical", Hier: &HierSpec{Multilevel: true}},
		},
	}
	err, lat := runCancelled(t, sc, 10*time.Millisecond)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
	if bound := cancelLatencyBound(); lat > bound {
		t.Fatalf("cancel→return latency %v exceeds %v", lat, bound)
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
