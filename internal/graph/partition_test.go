package graph

import (
	"errors"
	"runtime"
	"testing"

	"hierclust/internal/racedetect"
)

// newPartArena rewinds ar and fits it to g, the way Partition fits its own.
// A loop that passes the one arena it holds runs every case on the scratch
// the cases before it left dirty, as the pipeline's builds do.
func newPartArena(ar *Arena, g *Graph) *Arena {
	ar.Reset()
	ar.fit(g.N(), g.rowptr[g.N()])
	return ar
}

// stencil2D builds a w-wide 2-D grid with heavy horizontal and lighter
// vertical edges — the node-graph shape of the synthetic scaling rigs.
func stencil2D(n, w int) *Graph {
	e := newEdges(n)
	for i := 0; i < n; i++ {
		if i+1 < n && (i+1)%w != 0 {
			e.add(i, i+1, 1000)
		}
		if i+w < n {
			e.add(i, i+w, 800)
		}
	}
	return e.graph()
}

// Partition runs on its caller's goroutine: with two P's available it
// starts no goroutine and builds no escaping closure, so a partition on a
// warm arena allocates nothing — not a count that grows with the P's or the
// graph. testing.AllocsPerRun cannot measure this: it pins GOMAXPROCS to 1
// while it counts.
func TestPartitionAllocsBounded(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := stencil2D(16384, 128)
	opts := PartitionOptions{MinSize: 4, TargetSize: 5}
	// The arena a pipeline build would hold, across every call.
	ar := new(Arena)
	partition := func() {
		ar.Reset()
		if _, err := ar.Partition(g, opts); err != nil {
			t.Fatal(err)
		}
	}
	partition() // size the arena
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		partition()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / runs
	// 0 on a warm arena; the slack is what the runtime adds at two P's.
	const bound = 2
	t.Logf("Partition at GOMAXPROCS 2: %.2f allocs/op (bound %d)", got, bound)
	if got > bound {
		t.Errorf("Partition allocates %.2f objects per call at GOMAXPROCS 2, over %d: did a phase fork onto goroutines?", got, bound)
	}
}

// The growth polls Cancel as it starts clusters: an uncancelled partition
// of 16,384 vertices into 4,096 clusters calls it at least once per 1,024
// of them, where refinement alone polls once a pass. A cancel that trips
// on its second call — the growth's second poll — ends the partition
// there: ErrCancelled, and no further call from refinement or the final
// check.
func TestPartitionCancelStopsGrowth(t *testing.T) {
	g := stencil2D(16384, 128)
	calls := 0
	opts := PartitionOptions{MinSize: 4, TargetSize: 4, Cancel: func() bool { calls++; return false }}
	if _, err := Partition(g, opts); err != nil {
		t.Fatal(err)
	}
	if calls < 4096/1024 {
		t.Fatalf("an uncancelled partition polls %d times, fewer than its growth's %d", calls, 4096/1024)
	}
	calls = 0
	opts.Cancel = func() bool { calls++; return calls >= 2 }
	if _, err := Partition(g, opts); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled partition returned %v, want ErrCancelled", err)
	}
	if calls != 2 {
		t.Fatalf("Cancel called %d times, want 2: the partition went on after the trip", calls)
	}
}

// PartitionOptions.Multilevel is ignored. Below 128 vertices, where the
// removed coarsening path never engaged, and above, the assignment with it
// set is the assignment without it.
func TestMultilevelIdenticalBelowThreshold(t *testing.T) {
	for _, g := range []*Graph{randomIntGraph(3, 100), stencil2D(4096, 64)} {
		single, err := Partition(g, PartitionOptions{MinSize: 4, TargetSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		multi, err := Partition(g, PartitionOptions{MinSize: 4, TargetSize: 4, Multilevel: true})
		if err != nil {
			t.Fatal(err)
		}
		for v := range single {
			if single[v] != multi[v] {
				t.Fatalf("%d vertices, vertex %d: id %d without Multilevel, %d with it", g.N(), v, single[v], multi[v])
			}
		}
	}
}
