package core

import (
	"flag"
	"testing"

	"hierclust/internal/graph"
	"hierclust/internal/racedetect"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
)

// bytesPerOp is what one call of build allocates, read the way the
// benchmarks read it. The caller fixes the call count (-test.benchtime).
func bytesPerOp(build func()) int64 {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			build()
		}
	}).AllocedBytesPerOp()
}

// stencilRig is a 2-D stencil trace, ppn ranks a node, on a block placement.
func stencilRig(t testing.TB, ranks, ppn int) (*trace.Stencil, *topology.Placement) {
	s, err := trace.NewStencil(ranks, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: ppn})
	if err != nil {
		t.Fatal(err)
	}
	p, err := topology.Block(&topology.Machine{Name: "m", Nodes: (ranks + ppn - 1) / ppn}, ranks, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

// TestClusteringFootprint holds every strategy to the bytes of what it
// returns: 4 per rank for L1 and 4 for the group slab, 24 per group header,
// and under 1 KiB for the struct and its name. Hierarchical builds in a
// fresh arena, and stays within what the caller-owned node graph and
// partition cost plus 8 per rank, 8 per node and the group headers. In a
// held buffer and arena, the ones a pipeline lends, it meets the first
// bound once they have served its shape: the node graph, the partition and
// the node bucketing live in the arena. A rank- or node-indexed []int in
// any build breaks its bound.
func TestClusteringFootprint(t *testing.T) {
	const ranks, ppn, nodes = 16384, 4, 16384 / 4
	benchtime := flag.Lookup("test.benchtime").Value // 64 calls per reading
	defer benchtime.Set(benchtime.String())
	benchtime.Set("64x")
	for _, build := range []func(int, int) (*Clustering, error){Naive, SizeGuided, Distributed} {
		var c *Clustering
		got := bytesPerOp(func() { c, _ = build(ranks, 8) })
		limit := int64(8*ranks + 24*len(c.Groups) + 1024)
		t.Logf("%s: %d B/op, limit %d (8/rank + 24/group + 1 KiB)", c.Name, got, limit)
		if got > limit {
			t.Errorf("%s: %d B/op over its limit %d", c.Name, got, limit)
		}
	}

	s, p := stencilRig(t, ranks, ppn)
	g, err := s.NodeGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	fold := bytesPerOp(func() { s.NodeGraph(p) })
	// core.Hierarchical's defaults: a 4-node minimum and target.
	part := bytesPerOp(func() { graph.Partition(g, graph.PartitionOptions{MinSize: 4, TargetSize: 4}) })
	var c *Clustering
	cold := bytesPerOp(func() { c, _ = Hierarchical(s, p, HierOptions{}) })
	limit := fold + part + int64(8*ranks+8*nodes+24*len(c.Groups)+1024)
	t.Logf("hierarchical, fresh arena: %d B/op, limit %d (node graph %d + partition %d + 8/rank + 8/node + 24/group + 1 KiB)",
		cold, limit, fold, part)
	if cold > limit {
		t.Errorf("hierarchical, fresh arena: %d B/op over its limit %d", cold, limit)
	}

	if racedetect.Enabled {
		t.Log("race detector: it changes allocation counts, warm bound not checked")
		return
	}
	b, ar := new(ClusteringBuf), new(graph.Arena)
	warm := bytesPerOp(func() { c, _ = b.Hierarchical(ar, s, p, HierOptions{}, nil) })
	limit = int64(8*ranks + 24*len(c.Groups) + 1024)
	t.Logf("hierarchical, held buffer and arena: %d B/op, limit %d (8/rank + 24/group + 1 KiB)", warm, limit)
	if warm > limit {
		t.Errorf("hierarchical, held buffer and arena: %d B/op over its limit %d", warm, limit)
	}
}

// An unbuildable machine is turned away before the fold: the rejection
// costs its error value and message, not a node graph.
func TestHierarchicalRejectsBeforeFold(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	s, p := stencilRig(t, 1<<16, 1<<14) // 4 nodes
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Hierarchical(s, p, HierOptions{MinNodesPerL1: 8}); err == nil {
			t.Fatal("accepted 4 nodes for an 8-node minimum")
		}
	})
	if allocs > 2 {
		t.Errorf("rejecting 4 nodes for an 8-node minimum allocates %v objects, want <= 2", allocs)
	}
}
