package core

import (
	"flag"
	"runtime"
	"testing"

	"hierclust/internal/graph"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
)

// bytesPerOp is what one call of build allocates, read the way the
// benchmarks read it. The partitioner recycles its arena through a
// sync.Pool, which a collection empties in two steps; with coldPool, two
// collections outside the timer before every call make each call pay for a
// fresh arena, so the count repeats. The caller fixes the call count
// (-test.benchtime), which keeps the collections from stretching the
// default one-second run.
func bytesPerOp(coldPool bool, build func()) int64 {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if coldPool {
				b.StopTimer()
				runtime.GC()
				runtime.GC()
				b.StartTimer()
			}
			build()
		}
	}).AllocedBytesPerOp()
}

// TestClusteringFootprint holds every strategy to the bytes of what it
// returns: 4 per rank for L1 and 4 for the group slab, 24 per group header,
// and under 1 KiB for the struct and its name. Hierarchical also pays for the
// trace's node graph and the partitioner, measured here on the same input,
// and 8 per node of its own: the bucketed node ids (4), the cluster offsets
// and cursors, and the sub-group bounds. A rank- or node-indexed []int in any
// build breaks its bound.
func TestClusteringFootprint(t *testing.T) {
	const ranks, ppn, nodes = 16384, 4, 16384 / 4
	benchtime := flag.Lookup("test.benchtime").Value // 64 calls per reading
	defer benchtime.Set(benchtime.String())
	benchtime.Set("64x")
	for _, build := range []func(int, int) (*Clustering, error){Naive, SizeGuided, Distributed} {
		var c *Clustering
		got := bytesPerOp(false, func() { c, _ = build(ranks, 8) })
		limit := int64(8*ranks + 24*len(c.Groups) + 1024)
		t.Logf("%s: %d B/op, limit %d (8/rank + 24/group + 1 KiB)", c.Name, got, limit)
		if got > limit {
			t.Errorf("%s: %d B/op over its limit %d", c.Name, got, limit)
		}
	}

	s, err := trace.NewStencil(ranks, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: ppn})
	if err != nil {
		t.Fatal(err)
	}
	p, err := topology.Block(&topology.Machine{Name: "m", Nodes: nodes}, ranks, ppn)
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.NodeGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	fold := bytesPerOp(false, func() { s.NodeGraph(p) })
	// core.Hierarchical's defaults: a 4-node minimum and target.
	part := bytesPerOp(true, func() { graph.Partition(g, graph.PartitionOptions{MinSize: 4, TargetSize: 4}) })
	var c *Clustering
	got := bytesPerOp(true, func() { c, _ = Hierarchical(s, p, HierOptions{}) })
	limit := fold + part + int64(8*ranks+8*nodes+24*len(c.Groups)+1024)
	t.Logf("hierarchical: %d B/op, limit %d (node graph %d + partition %d + 8/rank + 8/node + 24/group + 1 KiB)",
		got, limit, fold, part)
	if got > limit {
		t.Errorf("hierarchical: %d B/op over its limit %d", got, limit)
	}
}
