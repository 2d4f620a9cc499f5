package graph

import (
	"math/rand"
	"runtime"
	"testing"
)

// The speculative parallel refinement must commit exactly the serial
// sweep's moves in the serial sweep's order, no matter how its scan chunks
// interleave. These tests pin that at GOMAXPROCS=2 — the smallest setting
// where the worker cap (effectiveWorkers never exceeds GOMAXPROCS) still
// lets the speculative path engage, and on a one-CPU host the most
// adversarial: both P's time-slice one core, so every handoff is a forced
// preemption point — across worker counts 1, 2, and 8 (8 exercising the
// cap), on graphs large enough to clear refineParallelMin.

// refineWithWorkers runs refine on a fresh copy of part/sizes.
func refineWithWorkers(g *Graph, part, sizes []int, opts PartitionOptions, vw []int, workers int) []int {
	cp := append([]int(nil), part...)
	cs := append([]int(nil), sizes...)
	opts.Workers = workers
	ar := newPartArena(g)
	defer ar.release()
	refine(g, cp, cs, opts, vw, ar)
	return cp
}

func TestRefineParallelWorkerInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"stencil8192", stencil2D(8192, 128)},
		{"randomWeighted6k", randomWeightedGraph(3, 6000)},
		{"randomInt5k", randomIntGraph(9, 5000)},
	}
	for _, tc := range graphs {
		g := tc.g
		if g.N() < refineParallelMin {
			t.Fatalf("%s: graph below refineParallelMin, test would not exercise speculation", tc.name)
		}
		opts := PartitionOptions{MinSize: 4, TargetSize: 4, Workers: 1}
		if err := opts.normalize(g.N()); err != nil {
			t.Fatal(err)
		}
		// A deliberately unconverged starting partition (round-robin
		// blocks) forces many moves, exercising the staleness
		// re-decide path, not just the all-fresh fast path.
		part := make([]int, g.N())
		for v := range part {
			part[v] = v / 4
		}
		sizes := PartSizes(part)
		ref := refineWithWorkers(g, part, sizes, opts, nil, 1)
		for _, workers := range []int{2, 8} {
			got := refineWithWorkers(g, part, sizes, opts, nil, workers)
			for v := range ref {
				if got[v] != ref[v] {
					t.Fatalf("%s: workers=%d vertex %d in cluster %d, serial %d",
						tc.name, workers, v, got[v], ref[v])
				}
			}
		}
		// Same invariance with a MaxSize cap, which switches the
		// staleness check to the span-scanning form.
		optsCap := PartitionOptions{MinSize: 2, TargetSize: 4, MaxSize: 6, Workers: 1}
		if err := optsCap.normalize(g.N()); err != nil {
			t.Fatal(err)
		}
		refCap := refineWithWorkers(g, part, sizes, optsCap, nil, 1)
		for _, workers := range []int{2, 8} {
			got := refineWithWorkers(g, part, sizes, optsCap, nil, workers)
			for v := range refCap {
				if got[v] != refCap[v] {
					t.Fatalf("%s: MaxSize workers=%d vertex %d in cluster %d, serial %d",
						tc.name, workers, v, got[v], refCap[v])
				}
			}
		}
	}
}

// End-to-end at GOMAXPROCS=2: the full multilevel partition is bit-identical
// at 1, 2, and 8 workers even when every parallel phase is forced to
// interleave on (at most) two P's sharing one core.
func TestMultilevelWorkerInvarianceSingleCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e := stencilEdges(16384, 128)
	rng := rand.New(rand.NewSource(4))
	// Perturb some weights so refinement has real decisions to make.
	for i := 0; i < 2000; i++ {
		u := rng.Intn(16384 - 1)
		e.add(u, u+1, float64(rng.Intn(500)))
	}
	g := e.graph()
	var ref []int
	for _, workers := range []int{1, 2, 8} {
		part, err := Partition(g, PartitionOptions{
			MinSize: 4, TargetSize: 4, Multilevel: true, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = part
			continue
		}
		for v := range ref {
			if part[v] != ref[v] {
				t.Fatalf("workers=%d: vertex %d assigned %d, want %d", workers, v, part[v], ref[v])
			}
		}
	}
}
