// clustering_explore: the cluster-size trade-off study of the paper's §III
// (Figures 3a/3b) plus the brain-network measures that motivated the
// hierarchical design (§IV-A): modularity and degree distribution of the
// traced communication graph. Uses the lower-level building blocks of
// pkg/hierclust directly, below the scenario API.
//
// Run with: go run ./examples/clustering_explore
package main

import (
	"fmt"
	"log"

	"hierclust/pkg/hierclust"
)

func main() {
	const ranks, ppn = 256, 8
	machine, err := hierclust.Tsubame2().Subset(ranks / ppn)
	if err != nil {
		log.Fatal(err)
	}
	placement, err := hierclust.Block(machine, ranks, ppn)
	if err != nil {
		log.Fatal(err)
	}

	rec := hierclust.NewTraceRecorder(ranks)
	if err := hierclust.TraceTsunami(hierclust.TracedTsunamiOptions{
		Params: hierclust.TsunamiTraceParams(ranks), Iterations: 30, Tracer: rec,
	}); err != nil {
		log.Fatal(err)
	}
	m := rec.Freeze()

	// The Fig. 3a/3b sweep: cluster size versus the three flat-clustering
	// costs. Watch logging fall, restart rise, and encoding explode.
	fmt.Println("cluster size sweep (naive consecutive-rank clusters):")
	fmt.Printf("%8s %10s %12s %14s\n", "size", "logged %", "restart %", "encode s/GB")
	for size := 2; size <= 64; size *= 2 {
		c, err := hierclust.Naive(ranks, size)
		if err != nil {
			log.Fatal(err)
		}
		logged, err := m.LoggedFraction(c.L1)
		if err != nil {
			log.Fatal(err)
		}
		restart, err := hierclust.RecoveryFraction(c, placement)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d %10.2f %12.2f %14.1f\n",
			size, logged*100, restart*100, hierclust.ModelEncodeSeconds(size, 1e9))
	}

	// The brain-network view (§IV-A): the hierarchical L1 partition should
	// score high modularity — "functional segregation" — on the node graph.
	g, err := m.NodeGraph(placement)
	if err != nil {
		log.Fatal(err)
	}
	hier, err := hierclust.Hierarchical(m, placement, hierclust.HierSpec{})
	if err != nil {
		log.Fatal(err)
	}
	// Project the rank-level L1 onto nodes for the modularity measure.
	nodePart := make([]int, len(placement.UsedNodes()))
	for i, n := range placement.UsedNodes() {
		nodePart[i] = int(hier.L1[placement.RanksOn(n)[0]])
	}
	q, err := g.Modularity(nodePart)
	if err != nil {
		log.Fatal(err)
	}
	flat := make([]int, len(nodePart)) // everything in one community
	q0, err := g.Modularity(flat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnode-graph modularity: hierarchical L1 = %.3f (single cluster = %.3f)\n", q, q0)

	st := g.DegreeDistribution()
	fmt.Printf("node-graph degree distribution: min %d, mean %.2f, max %d\n", st.Min, st.Mean, st.Max)
	fmt.Println("\nhierarchical verdict:")
	hierEval, err := hierclust.Evaluate(hier, m, placement, hierclust.DefaultMix())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(" ", hierEval)
}
