package reliability

import (
	"context"
	"errors"
	"testing"
	"time"

	"hierclust/internal/racedetect"
	"hierclust/internal/topology"
)

// mcForcingFixture builds a model and group layout that force the Monte
// Carlo path for every f >= 2 on a 2048-node machine: 150 single-node
// tolerance-1 groups push the union bound past 0.1, and one group with
// non-uniform per-node member counts invalidates the disjoint-span closed
// form (see addDPSpan). Enumeration is out for C(2048, f>=2) > defaultExactLimit.
func mcForcingFixture(samples int) (*Model, []Group) {
	loss := make([]float64, 48)
	for i := range loss {
		loss[i] = 1
	}
	mdl := &Model{Nodes: 2048, Mix: Mix{NodeLoss: loss}, samples: samples}
	mdl.Mix.Normalize()

	var groups []Group
	for i := 0; i < 150; i++ {
		groups = append(groups, groupOf(map[topology.NodeID]int{topology.NodeID(i): 2}, 1))
	}
	groups = append(groups, groupOf(map[topology.NodeID]int{150: 2, 151: 1}, 1))
	return mdl, groups
}

// TestCatastropheProbCtxCancelMidMonteCarlo pins the model's cancellation
// latency: cancelling a multi-second sampling run must make it return
// ctx.Err() within the chunk-polling bound, not after finishing the
// samples.
func TestCatastropheProbCtxCancelMidMonteCarlo(t *testing.T) {
	mdl, groups := mcForcingFixture(5_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := mdl.CatastropheProbCtx(ctx, groups)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // well inside the first sampling rounds
	start := time.Now()
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled CatastropheProbCtx did not return within 30s")
	}
	lat := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v, want context.Canceled", err)
	}
	bound := 100 * time.Millisecond
	if racedetect.Enabled {
		bound = time.Second
	}
	if lat > bound {
		t.Fatalf("cancel→return latency %v exceeds %v", lat, bound)
	}
}

// TestCatastropheProbCtxPreCancelled: a context cancelled before the call
// returns immediately with its error and no partial result.
func TestCatastropheProbCtxPreCancelled(t *testing.T) {
	mdl, groups := mcForcingFixture(5_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	p, err := mdl.CatastropheProbCtx(ctx, groups)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled call returned %v, want context.Canceled", err)
	}
	if p != 0 {
		t.Fatalf("pre-cancelled call returned probability %g, want 0", p)
	}
	if lat := time.Since(start); lat > time.Second {
		t.Fatalf("pre-cancelled call took %v", lat)
	}
}

// TestCatastropheProbCtxUncancelledIdentical: threading a live context
// through the sampling loops must not change a single bit of the result
// relative to the context-free call.
func TestCatastropheProbCtxUncancelledIdentical(t *testing.T) {
	mdl, groups := mcForcingFixture(20_000)
	ref, err := mdl.CatastropheProb(groups)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := mdl.CatastropheProbCtx(ctx, groups)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("context-threaded result %g != context-free result %g", got, ref)
	}
}

// A warm product-form weighing polls nothing and allocates nothing, under a
// context that can be cancelled as under Background: the loops that poll
// read ctx.Err() themselves, so no per-call watcher turns the context into
// something else.
func TestCatastropheProbCancelableCtxAllocatesNothing(t *testing.T) {
	var groups []Group
	for g := 0; g < 16; g++ { // disjoint uniform spans of 4 nodes
		groups = append(groups, groupOf(map[topology.NodeID]int{
			topology.NodeID(4 * g): 1, topology.NodeID(4*g + 1): 1, topology.NodeID(4*g + 2): 1, topology.NodeID(4*g + 3): 1}, 1))
	}
	var p Profile
	if err := p.Init(groups, 64); err != nil {
		t.Fatal(err)
	}
	if !p.fg.dpOK {
		t.Fatal("the fixture left the product form")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mix := DefaultMix()
	want, err := p.CatastropheProb(context.Background(), mix, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	if allocs := testing.AllocsPerRun(5, func() { got, err = p.CatastropheProb(ctx, mix, 1) }); allocs != 0 {
		t.Errorf("a warm weighing under a cancelable context allocates %v objects, want 0", allocs)
	}
	if err != nil || got != want {
		t.Errorf("under a cancelable context: %v, %v; under Background: %v", got, err, want)
	}
}
