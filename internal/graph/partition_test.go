package graph

import (
	"context"
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
		if _, err := ar.Partition(context.Background(), g, opts); err != nil {
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

// pollCtx is a context whose Err counts its calls and returns
// context.Canceled from call trip on (never while trip is 0). Counting Err
// counts the partitioner's polls only because every poll is a ctx.Err()
// call: none selects on Done, which this context never closes.
type pollCtx struct {
	context.Context
	calls, trip int
}

func newPollCtx(trip int) *pollCtx { return &pollCtx{Context: context.Background(), trip: trip} }

func (c *pollCtx) Err() error {
	c.calls++
	if c.trip > 0 && c.calls >= c.trip {
		return context.Canceled
	}
	return nil
}

// The growth polls ctx as it starts clusters: an uncancelled partition of
// 16,384 vertices into 4,096 clusters polls at least once per 1,024 of
// them, where refinement alone polls once a pass. A context that trips on
// its second poll — the growth's second — ends the partition there:
// context.Canceled, and no further poll from refinement or the final check.
func TestPartitionCancelStopsGrowth(t *testing.T) {
	g := stencil2D(16384, 128)
	opts := PartitionOptions{MinSize: 4, TargetSize: 4}
	ctx := newPollCtx(0)
	if _, err := new(Arena).Partition(ctx, g, opts); err != nil {
		t.Fatal(err)
	}
	if ctx.calls < 4096/1024 {
		t.Fatalf("an uncancelled partition polls %d times, fewer than its growth's %d", ctx.calls, 4096/1024)
	}
	ctx = newPollCtx(2)
	if _, err := new(Arena).Partition(ctx, g, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled partition returned %v, want context.Canceled", err)
	}
	if ctx.calls != 2 {
		t.Fatalf("ctx polled %d times, want 2: the partition went on after the trip", ctx.calls)
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
