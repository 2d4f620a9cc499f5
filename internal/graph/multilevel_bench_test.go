package graph

import (
	"testing"
)

// Phase benchmarks for the multilevel pipeline on the 131,072-node
// stencil of BenchmarkPartition100k (the node-graph shape of a 2M-rank
// machine). They exist so serial-gap work can see where a millisecond goes
// without reconstructing pprof sessions; the package-external benchmarks in
// the repository root remain the gated numbers.

func benchGraph() *Graph { return stencil2D(131072, 256) }

func benchOpts() PartitionOptions {
	opts := PartitionOptions{MinSize: 4, TargetSize: 4, Multilevel: true}
	_ = opts.normalize(131072)
	return opts
}

func BenchmarkPhaseMatching(b *testing.B) {
	g := benchGraph()
	opts := benchOpts()
	ar := newPartArena(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heavyEdgeMatching(g, nil, opts, ar)
	}
}

func BenchmarkPhaseContract(b *testing.B) {
	g := benchGraph()
	opts := benchOpts()
	ar := newPartArena(g)
	match, matched := heavyEdgeMatching(g, nil, opts, ar)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.reset()
		if _, _, _, err := contract(g, nil, match, matched, opts, ar); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhaseRefineFinest(b *testing.B) {
	g := benchGraph()
	opts := benchOpts()
	ar := newPartArena(g)
	part, err := Partition(g, PartitionOptions{MinSize: 4, TargetSize: 4, Multilevel: true})
	if err != nil {
		b.Fatal(err)
	}
	sizes := PartSizes(part)
	buf := make([]int, len(part))
	szbuf := make([]int, len(sizes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, part)
		copy(szbuf, sizes)
		refine(g, buf, szbuf, opts, nil, ar)
	}
}

func BenchmarkPhaseGrowCoarsest(b *testing.B) {
	// Approximate the coarsest graph by contracting twice.
	g := benchGraph()
	opts := benchOpts()
	ar := newPartArena(g)
	var vw []int
	for level := 0; level < 2; level++ {
		match, matched := heavyEdgeMatching(g, vw, opts, ar)
		coarse, _, cvw, err := contract(g, vw, match, matched, opts, ar)
		if err != nil {
			b.Fatal(err)
		}
		g, vw = coarse, cvw
	}
	b.Logf("coarsest: %d vertices, %d entries", g.N(), g.rowptr[g.N()])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grow(g, opts, vw, ar)
	}
}
