// Package hierclust's root benchmark suite regenerates every table and
// figure of the paper's evaluation through the harness (one benchmark per
// artifact, quick scale so -bench terminates promptly) and benchmarks the
// performance-critical substrates: Reed–Solomon encoding at the paper's
// group sizes (the linear-in-k law behind Fig. 3b and Table II's encode
// column), the graph partitioner, the reliability model, the message-
// passing runtime, and the hybrid protocol with failure recovery.
//
// Run with: go test -bench=. -benchmem
package hierclust

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"hierclust/internal/checkpoint"
	"hierclust/internal/core"
	"hierclust/internal/erasure"
	"hierclust/internal/graph"
	"hierclust/internal/harness"
	"hierclust/internal/hybrid"
	"hierclust/internal/reliability"
	"hierclust/internal/simmpi"
	"hierclust/internal/storage"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
	"hierclust/internal/tsunami"
	api "hierclust/pkg/hierclust"
)

// benchExperiment runs one harness experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	exp, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.Config{Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := exp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkFig3a(b *testing.B)    { benchExperiment(b, "fig3a") }
func BenchmarkFig3b(b *testing.B)    { benchExperiment(b, "fig3b") }
func BenchmarkFig4a(b *testing.B)    { benchExperiment(b, "fig4a") }
func BenchmarkFig4b(b *testing.B)    { benchExperiment(b, "fig4b") }
func BenchmarkFig4c(b *testing.B)    { benchExperiment(b, "fig4c") }
func BenchmarkFig5a(b *testing.B)    { benchExperiment(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)    { benchExperiment(b, "fig5b") }
func BenchmarkFig5c(b *testing.B)    { benchExperiment(b, "fig5c") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkProtocol(b *testing.B) { benchExperiment(b, "protocol") }
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkRSEncode measures Reed–Solomon group encoding at the paper's
// group sizes. Throughput should fall roughly linearly with k — the law the
// paper's encode-time column (51 s/102 s/204 s per GB at k=8/16/32) obeys.
func BenchmarkRSEncode(b *testing.B) {
	const shard = 1 << 20
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			enc, err := erasure.NewGroupEncoder(k, k, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			data := make([][]byte, k)
			for i := range data {
				data[i] = make([]byte, shard)
				for j := range data[i] {
					data[i][j] = byte(i + j)
				}
			}
			b.SetBytes(int64(k * shard))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := enc.Encode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCkptCycle measures one failure cycle through the checkpoint data
// plane, the shape of hcbench's ckpt-cycle op: a fresh storage cluster and
// manager, an L3 (Reed–Solomon) checkpoint of 32 nodes × 4 ranks × 128 KiB
// in the hierarchical clustering's L2 encoding groups, the loss and repair
// of one node, and the restore of its ranks. B/op shows the zero-copy
// paths: L1 copies + stored parity + restored blobs, about twice the
// payload (TestL3CycleAllocationBound in internal/checkpoint bounds it).
func BenchmarkCkptCycle(b *testing.B) {
	const nodes, ppn, groupNodes, blob = 32, 4, 16, 128 << 10
	mach := *topology.Tsubame2()
	mach.Nodes = nodes
	placement, err := topology.Block(&mach, nodes*ppn, ppn)
	if err != nil {
		b.Fatal(err)
	}
	comm, err := trace.Synthetic(nodes*ppn, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: ppn})
	if err != nil {
		b.Fatal(err)
	}
	cl, err := core.Hierarchical(comm, placement, core.HierOptions{MinNodesPerL1: groupNodes, SubgroupNodes: groupNodes})
	if err != nil {
		b.Fatal(err)
	}
	data := make(map[topology.Rank][]byte, nodes*ppn)
	for r := 0; r < nodes*ppn; r++ {
		buf := make([]byte, blob)
		for j := range buf {
			buf[j] = byte(r*31 + j*7 + j>>8)
		}
		data[topology.Rank(r)] = buf
	}
	b.SetBytes(nodes * ppn * blob)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node := topology.NodeID(i % nodes)
		cluster := storage.NewCluster(&mach)
		mgr, err := checkpoint.New(cluster, placement, cl.Groups)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mgr.Checkpoint(i+1, checkpoint.L3Encoded, data); err != nil {
			b.Fatal(err)
		}
		if err := cluster.FailNode(node); err != nil {
			b.Fatal(err)
		}
		if err := cluster.RepairNode(node); err != nil {
			b.Fatal(err)
		}
		lost := placement.RanksOn(node)
		restored, err := mgr.Restore(i+1, lost)
		if err != nil {
			b.Fatal(err)
		}
		for j, re := range restored {
			if re.Level != checkpoint.L3Encoded || !bytes.Equal(re.Data, data[lost[j]]) {
				b.Fatalf("rank %d restored wrongly from %v", re.Rank, re.Level)
			}
		}
	}
}

// BenchmarkXOREncode measures the single-parity XOR codec, word-wide: the
// per-parity bound an RS(k, k) encode is read against (no checkpoint level
// uses XOR).
func BenchmarkXOREncode(b *testing.B) {
	const shard = 1 << 20
	for _, k := range []int{8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			x, err := erasure.NewXOR(k)
			if err != nil {
				b.Fatal(err)
			}
			data := make([][]byte, k)
			for i := range data {
				data[i] = make([]byte, shard)
				for j := range data[i] {
					data[i][j] = byte(i ^ j)
				}
			}
			parity := make([]byte, shard)
			b.SetBytes(int64(k * shard))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := x.Encode(data, parity); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHarnessRun measures the pooled experiment runner end to end on a
// small deterministic subset; its pool is GOMAXPROCS wide, so -cpu 1,4 sets
// the widths (they share the rig cache).
func BenchmarkHarnessRun(b *testing.B) {
	var exps []harness.Experiment
	for _, id := range []string{"table1", "fig4a"} {
		e, err := harness.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		exps = append(exps, e)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range harness.Run(harness.Config{Quick: true}, exps) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// syntheticRig builds the large-scale evaluation input the way the pipeline
// does for a synthetic scenario: an implicit 2-D stencil trace (grid width =
// procsPerNode, so horizontal ghost exchange stays intra-node under block
// placement and vertical exchange crosses node boundaries, mirroring a
// blocked 2-D domain decomposition) plus a block placement on a
// TSUBAME2-like machine grown to the required node count.
func syntheticRig(ranks, procsPerNode int) (trace.Comm, *topology.Placement, error) {
	nodes := (ranks + procsPerNode - 1) / procsPerNode
	mach := topology.Tsubame2()
	if nodes > mach.Nodes {
		scaled := *mach
		scaled.Nodes = nodes
		scaled.Name = fmt.Sprintf("%s-scaled[%d]", mach.Name, nodes)
		mach = &scaled
	}
	placement, err := topology.Block(mach, ranks, procsPerNode)
	if err != nil {
		return nil, nil, err
	}
	m, err := trace.NewStencil(ranks, trace.SyntheticOptions{
		Pattern: trace.Stencil2D,
		Width:   procsPerNode,
	})
	if err != nil {
		return nil, nil, err
	}
	return m, placement, nil
}

// Rank counts that do not divide evenly must still get a machine large
// enough for the straggler node.
func TestSyntheticRigNonMultipleRanks(t *testing.T) {
	m, placement, err := syntheticRig(23000, 16) // 1438 nodes > Tsubame2's 1408
	if err != nil {
		t.Fatal(err)
	}
	if m.Ranks() != 23000 || placement.NumRanks() != 23000 {
		t.Fatalf("rig covers %d/%d ranks, want 23000", m.Ranks(), placement.NumRanks())
	}
	if got := len(placement.UsedNodes()); got != 1438 {
		t.Errorf("used nodes = %d, want 1438", got)
	}
}

// BenchmarkScaling64k measures the full evaluation pipeline at 65,536 ranks
// on 4096 nodes: the implicit 2-D stencil trace (syntheticRig's
// trace.Stencil, no rank matrix), hierarchical clustering (node
// aggregation, partitioning, L2 groups), and the four-dimension evaluation
// including the reliability model. The dense-matrix path would need ~34 GB
// for the trace alone; allocs/op and B/op document the sub-O(n²) footprint
// of the pipeline.
func BenchmarkScaling64k(b *testing.B) {
	const ranks, ppn = 65536, 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, placement, err := syntheticRig(ranks, ppn)
		if err != nil {
			b.Fatal(err)
		}
		hier, err := core.Hierarchical(m, placement, core.HierOptions{})
		if err != nil {
			b.Fatal(err)
		}
		e, err := core.Evaluate(hier, m, placement, reliability.DefaultMix())
		if err != nil {
			b.Fatal(err)
		}
		if ok, viol := e.Meets(core.DefaultBaseline()); !ok {
			b.Fatalf("64k-rank evaluation outside baseline: %v", viol)
		}
	}
}

// BenchmarkScaling256k measures the full sparse evaluation pipeline at
// 262,144 ranks on 16,384 nodes — four times the node count of the 64k
// benchmark, the regime the flat-span placement exists for. Implicit 2-D
// stencil trace (trace.Stencil), hierarchical clustering at the paper's
// defaults, and the complete four-dimension evaluation.
func BenchmarkScaling256k(b *testing.B) {
	const ranks, ppn = 262144, 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, placement, err := syntheticRig(ranks, ppn)
		if err != nil {
			b.Fatal(err)
		}
		hier, err := core.Hierarchical(m, placement, core.HierOptions{})
		if err != nil {
			b.Fatal(err)
		}
		e, err := core.Evaluate(hier, m, placement, reliability.DefaultMix())
		if err != nil {
			b.Fatal(err)
		}
		if ok, viol := e.Meets(core.DefaultBaseline()); !ok {
			b.Fatalf("256k-rank evaluation outside baseline: %v", viol)
		}
	}
}

// BenchmarkNodeGraph128k measures step 1 of the hierarchical clustering, the
// fold of the rank rows into the node graph, at the hcbench eval-128k shape
// (131,072 ranks, 4 per node, 2-D stencil of width 4) from both sources:
// "stencil" is the implicit trace, whose fold on this block placement is
// nodeRow's closed form (arithmetic on each node's rank window, no rank
// rows read); "csr" folds the materialized rows of the same trace through
// the directed node CSR, its transpose and the merge (the general path).
func BenchmarkNodeGraph128k(b *testing.B) {
	const ranks, ppn = 131072, 4
	opts := trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: ppn}
	placement, err := topology.Block(&topology.Machine{Name: "bench", Nodes: ranks / ppn}, ranks, ppn)
	if err != nil {
		b.Fatal(err)
	}
	stencil, err := trace.NewStencil(ranks, opts)
	if err != nil {
		b.Fatal(err)
	}
	csr, err := trace.Synthetic(ranks, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, src := range []struct {
		name string
		m    trace.Comm
	}{{"stencil", stencil}, {"csr", csr}} {
		b.Run(src.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := src.m.NodeGraph(placement); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHierarchical128k measures one hierarchical build at the hcbench
// eval-128k shape (131,072 ranks, 4 per node, 2-D stencil of width 4, L1
// growth target 5, which hcbench's multilevel alias resolves to): the
// node-graph fold, the partition and the L2
// groups, in one held ClusteringBuf and graph.Arena, the way the pipeline
// builds in the buffer and arena it lends. One build outside the timer sizes
// them, so B/op is what a warm build allocates.
func BenchmarkHierarchical128k(b *testing.B) {
	const ranks, ppn = 131072, 4
	placement, err := topology.Block(&topology.Machine{Name: "bench", Nodes: ranks / ppn}, ranks, ppn)
	if err != nil {
		b.Fatal(err)
	}
	stencil, err := trace.NewStencil(ranks, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: ppn})
	if err != nil {
		b.Fatal(err)
	}
	opts, buf, ar := core.HierOptions{TargetNodesPerL1: 5}, new(core.ClusteringBuf), new(graph.Arena)
	if _, err := buf.Hierarchical(context.Background(), ar, stencil, placement, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buf.Hierarchical(context.Background(), ar, stencil, placement, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScore128k measures scoring one clustering at the eval-128k shape,
// as the pipeline does it: the hierarchical clustering's Profile.Init
// (validation, recovery fraction, the reliability model's product form)
// plus one weighing with DefaultMix, in the ClusteringBuf the clustering
// was built in. One score outside the timer sizes the buffer's profile, so
// B/op is what a warm score allocates.
func BenchmarkScore128k(b *testing.B) {
	const ranks, ppn = 131072, 4
	placement, err := topology.Block(&topology.Machine{Name: "bench", Nodes: ranks / ppn}, ranks, ppn)
	if err != nil {
		b.Fatal(err)
	}
	stencil, err := trace.NewStencil(ranks, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: ppn})
	if err != nil {
		b.Fatal(err)
	}
	buf := new(core.ClusteringBuf)
	c, err := buf.Hierarchical(context.Background(), nil, stencil, placement, core.HierOptions{TargetNodesPerL1: 5})
	if err != nil {
		b.Fatal(err)
	}
	prof, mix, ctx := buf.Profile(), reliability.DefaultMix(), context.Background()
	score := func() {
		if err := prof.Init(ctx, c, placement); err != nil {
			b.Fatal(err)
		}
		if _, err := prof.Evaluate(ctx, mix, 1); err != nil {
			b.Fatal(err)
		}
	}
	score()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		score()
	}
}

// BenchmarkRSReconstruct measures decode after losing half the group.
func BenchmarkRSReconstruct(b *testing.B) {
	const shard = 1 << 20
	for _, k := range []int{4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rs, err := erasure.NewRS(k, k)
			if err != nil {
				b.Fatal(err)
			}
			data := make([][]byte, k)
			parity := make([][]byte, k)
			for i := 0; i < k; i++ {
				data[i] = make([]byte, shard)
				parity[i] = make([]byte, shard)
				for j := range data[i] {
					data[i][j] = byte(i * j)
				}
			}
			if err := rs.Encode(data, parity); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(k * shard))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shards := make([][]byte, 2*k)
				for j := 0; j < k; j++ {
					if j < k/2 {
						shards[j] = nil // half the members lost
					} else {
						shards[j] = data[j]
					}
					shards[k+j] = parity[j]
				}
				if err := rs.Reconstruct(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartition measures the L1 graph partitioner on node graphs of
// increasing size.
func BenchmarkPartition(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			g := stencilGraph(n, 16, 1000, 10,
				func(i int) bool { return i+1 < n },
				func(i int) bool { return i%4 == 0 && i+16 < n })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := graph.Partition(g, graph.PartitionOptions{MinSize: 4, TargetSize: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// stencilGraph builds an n-node graph in which vertex i links to i+1 with
// weight hw when right(i) holds and to i+down (down > 1) with weight dw when
// below(i) holds, writing each row in ascending column order — i-down, i-1,
// i+1, i+down — straight into the arrays FromCSR adopts.
func stencilGraph(n, down int, hw, dw float64, right, below func(i int) bool) *graph.Graph {
	rowptr := make([]int64, 1, n+1)
	col := make([]int32, 0, 4*n)
	w := make([]float64, 0, 4*n)
	link := func(v int, wt float64) {
		col, w = append(col, int32(v)), append(w, wt)
	}
	for i := 0; i < n; i++ {
		if i >= down && below(i-down) {
			link(i-down, dw)
		}
		if i >= 1 && right(i-1) {
			link(i-1, hw)
		}
		if right(i) {
			link(i+1, hw)
		}
		if below(i) {
			link(i+down, dw)
		}
		rowptr = append(rowptr, int64(len(col)))
	}
	g, err := (*graph.Arena)(nil).FromCSR(n, rowptr, col, w)
	if err != nil {
		panic(err)
	}
	return g
}

// grid2D is the width-wide 2-D stencil of the large partition benchmarks: heavy
// horizontal edges inside each grid row, lighter vertical ones.
func grid2D(n, width int) *graph.Graph {
	return stencilGraph(n, width, 1000, 800,
		func(i int) bool { return i+1 < n && (i+1)%width != 0 },
		func(i int) bool { return i+width < n })
}

// BenchmarkPartition100k measures the node partitioner on a 131,072-node
// 2-D stencil graph — the node-graph shape of a 2M-rank machine at 16
// ranks per node — in one held arena, as a pipeline build partitions.
// MinSize/TargetSize 4 is the paper's L1 configuration.
func BenchmarkPartition100k(b *testing.B) {
	g := grid2D(131072, 256)
	opts := graph.PartitionOptions{MinSize: 4, TargetSize: 4}
	b.Run("single-level", func(b *testing.B) {
		ar := new(graph.Arena)
		if _, err := ar.Partition(context.Background(), g, opts); err != nil { // size the arena
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ar.Reset()
			if _, err := ar.Partition(context.Background(), g, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// stencil1M builds a 1,048,576-node 2-D stencil node graph — the node graph
// of a 4M-rank machine at 4 ranks per node, the scale the paper's title
// promises. Same shape and edge weights as Partition100k's, eight times the
// vertex count.
func stencil1M() *graph.Graph { return grid2D(1<<20, 1024) }

// BenchmarkPartition1M measures the node partitioner on the million-node
// stencil: Partition100k at eight times the vertex count, so a phase that
// stops scaling linearly shows here first,
// in one held arena, the way a pipeline build partitions in the arena it
// lends. Target envelope: under one second per partition. Skipped under
// -short (and therefore absent from `make bench-smoke`-adjacent quick runs
// that pass it); the benchjson gate tolerates one-sided benchmarks, so
// short baselines and full runs compare cleanly.
func BenchmarkPartition1M(b *testing.B) {
	if testing.Short() {
		b.Skip("million-node graph build: skipped under -short")
	}
	g := stencil1M()
	opts := graph.PartitionOptions{MinSize: 4, TargetSize: 4}
	// One partition outside the timer sizes the arena: without it a
	// -benchtime 1x run charges the million-node arena to its single
	// iteration.
	ar := new(graph.Arena)
	if _, err := ar.Partition(context.Background(), g, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.Reset()
		if _, err := ar.Partition(context.Background(), g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaling1M measures the full evaluation pipeline at 4,194,304
// ranks on 1,048,576 nodes — the million-node regime. Implicit 2-D stencil
// trace (trace.Stencil), hierarchical clustering at the paper's defaults,
// and the complete four-dimension evaluation. Skipped under -short.
func BenchmarkScaling1M(b *testing.B) {
	if testing.Short() {
		b.Skip("4M-rank rig: skipped under -short")
	}
	const ranks, ppn = 4 << 20, 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, placement, err := syntheticRig(ranks, ppn)
		if err != nil {
			b.Fatal(err)
		}
		hier, err := core.Hierarchical(m, placement, core.HierOptions{})
		if err != nil {
			b.Fatal(err)
		}
		e, err := core.Evaluate(hier, m, placement, reliability.DefaultMix())
		if err != nil {
			b.Fatal(err)
		}
		if ok, viol := e.Meets(core.DefaultBaseline()); !ok {
			b.Fatalf("4M-rank evaluation outside baseline: %v", viol)
		}
	}
}

// BenchmarkCatastropheModel measures the reliability model at 64 nodes:
// product-form is the paper's hierarchical layout (256 groups of 4 on
// disjoint 4-node spans — the closed form, nothing enumerated); irregular
// slides a 4-node span two nodes at a time (62 groups on partially
// overlapping spans), so f = 1..3 enumerate, f = 4, 5 take the union bound
// and f = 6..9 sample.
func BenchmarkCatastropheModel(b *testing.B) {
	mach := &topology.Machine{Name: "b", Nodes: 64}
	p, err := topology.Block(mach, 1024, 16)
	if err != nil {
		b.Fatal(err)
	}
	layout := func(step, rows int) (groups []reliability.Group) {
		for base := 0; base+4 <= 64; base += step {
			for i := 0; i < rows; i++ {
				var mem []topology.Rank
				for nd := base; nd < base+4; nd++ {
					mem = append(mem, topology.Rank(nd*16+i))
				}
				groups = append(groups, reliability.GroupFromRanks(p, mem))
			}
		}
		return groups
	}
	for _, bc := range []struct {
		name   string
		groups []reliability.Group
	}{{"product-form", layout(4, 16)}, {"irregular", layout(2, 2)}} {
		b.Run(bc.name, func(b *testing.B) {
			mdl := &reliability.Model{Nodes: 64, Mix: reliability.DefaultMix()}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mdl.CatastropheProb(bc.groups); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProfileInit16k measures the mix-independent scoring of one
// clustering — what a sweep's partition node does once and then retains — at
// 16,384 ranks, four per node: the recovery fraction plus the reliability
// model's flat form, read from the member lists (the logged fraction reads
// the trace and is taken per trace, outside the profile). B/op is the
// tracked number. Hierarchical (one member per node) and naive (one node per
// group) pass the product-form reduction, which keeps O(nodes); irregular
// (three consecutive ranks, so some groups hold two members on one node and
// one on the next) is rejected and falls back to the span slabs, O(members).
func BenchmarkProfileInit16k(b *testing.B) {
	const ranks, ppn = 16384, 4
	m, placement, err := syntheticRig(ranks, ppn)
	if err != nil {
		b.Fatal(err)
	}
	hier, err := core.Hierarchical(m, placement, core.HierOptions{})
	if err != nil {
		b.Fatal(err)
	}
	naive, err := core.Naive(ranks, ppn)
	if err != nil {
		b.Fatal(err)
	}
	irregular, err := core.Naive(ranks, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range []struct {
		name string
		c    *core.Clustering
	}{{"hierarchical", hier}, {"naive", naive}, {"irregular", irregular}} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var pr core.Profile
				if err := pr.Init(context.Background(), row.c, placement); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimMPIAllgather measures the runtime's recursive-doubling
// allgather at growing world sizes.
func BenchmarkSimMPIAllgather(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := simmpi.Run(n, simmpi.Options{}, func(p *simmpi.Proc) error {
					_, err := p.Comm().Allgather(make([]byte, 64))
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimMPIStencil measures a full neighbor-exchange sweep.
func BenchmarkSimMPIStencil(b *testing.B) {
	const n = 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := simmpi.Run(n, simmpi.Options{}, func(p *simmpi.Proc) error {
			c := p.Comm()
			payload := make([]byte, 1024)
			if p.Rank() > 0 {
				if err := c.Send(p.Rank()-1, 1, payload); err != nil {
					return err
				}
			}
			if p.Rank() < n-1 {
				if err := c.Send(p.Rank()+1, 1, payload); err != nil {
					return err
				}
				if _, err := c.Recv(p.Rank()+1, 1); err != nil {
					return err
				}
			}
			if p.Rank() > 0 {
				if _, err := c.Recv(p.Rank()-1, 1); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTsunamiStep measures the solver kernel.
func BenchmarkTsunamiStep(b *testing.B) {
	p := tsunami.DefaultParams(1)
	p.NX, p.NY = 256, 256
	s, err := tsunami.NewSolver(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(p.NX * p.NY * 3 * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkHybridRecovery measures a full contained recovery: checkpoint,
// node failure, RS decode, replay, re-execution.
func BenchmarkHybridRecovery(b *testing.B) {
	const ranks, ppn = 64, 8
	mach := &topology.Machine{
		Name: "b", Nodes: ranks / ppn,
		SSDWriteBps: 1e9, SSDReadBps: 1e9, PFSWriteBps: 1e9, PFSReadBps: 1e9, NetBps: 1e9,
	}
	placement, err := topology.Block(mach, ranks, ppn)
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewRecorder(ranks)
	for r := 0; r+1 < ranks; r++ {
		rec.Record(r, r+1, 1000)
		rec.Record(r+1, r, 1000)
	}
	cl, err := core.Hierarchical(rec.Freeze(), placement, core.HierOptions{})
	if err != nil {
		b.Fatal(err)
	}
	params := tsunami.DefaultParams(ranks)
	params.NX, params.NY = 64, 2*ranks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app, err := tsunami.NewFTApp(params)
		if err != nil {
			b.Fatal(err)
		}
		runner, err := hybrid.NewRunner(hybrid.Config{
			Placement:       placement,
			Clusters:        cl.L1,
			Groups:          cl.Groups,
			CheckpointEvery: 5,
			Level:           checkpoint.L3Encoded,
		}, app)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := runner.Run(15, map[int][]topology.NodeID{8: {2}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateSharedTrace measures the pipeline's trace-level cache:
// two scenarios that share one tsunami trace key but differ in strategy.
// "cold" rebuilds the trace — recording the traced application's message
// schedule — on every evaluation; "trace-cached" pre-warms a
// MemoryTraceCache with the first scenario, so every evaluation of the
// second skips that recording
// (the per-iteration cache stats assert it). The delta between the two is
// exactly the cost hcserve's trace cache removes for scenarios sharing
// a trace.
func BenchmarkEvaluateSharedTrace(b *testing.B) {
	scenario := func(name, kind string) *api.Scenario {
		return &api.Scenario{
			Name:       name,
			Machine:    api.MachineSpec{Nodes: 16},
			Placement:  api.PlacementSpec{Policy: "block", Ranks: 64, ProcsPerNode: 4},
			Trace:      api.TraceSpec{Source: "tsunami", Iterations: 5},
			Strategies: []api.StrategySpec{{Kind: kind}},
		}
	}

	b.Run("cold", func(b *testing.B) {
		pl := api.NewPipeline()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pl.Run(context.Background(), scenario("shared-b", "size-guided")); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("trace-cached", func(b *testing.B) {
		tc := api.NewMemoryTraceCache(4)
		pl := api.NewPipeline(api.WithTraceCache(tc))
		if _, err := pl.Run(context.Background(), scenario("shared-a", "hierarchical")); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pl.Run(context.Background(), scenario("shared-b", "size-guided")); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if stats := tc.Stats(); stats.Hits != int64(b.N) || stats.Misses != 1 {
			b.Fatalf("trace cache stats = %+v, want %d hits / 1 miss (every timed run must skip the app)", stats, b.N)
		}
	})
}
