// tsunami_ft: the paper's full stack end to end. A tsunami simulation runs
// under the hybrid protocol with hierarchical clustering and multi-level
// checkpointing; halfway through, a compute node dies, taking its local
// checkpoints with it. Only one L1 cluster rolls back; the lost checkpoints
// are rebuilt by Reed–Solomon decode inside the failed cluster's L2 groups;
// inter-cluster messages are replayed from sender logs — and the final wave
// field is bit-identical to a failure-free run.
//
// Run with: go run ./examples/tsunami_ft
package main

import (
	"fmt"
	"log"

	"hierclust/pkg/hierclust"
)

func main() {
	const (
		ranks, ppn = 64, 8 // 8 nodes
		iterations = 40
		ckptEvery  = 8
		failIter   = 27
		failNode   = 3
	)

	machine, err := hierclust.Tsubame2().Subset(ranks / ppn)
	if err != nil {
		log.Fatal(err)
	}
	placement, err := hierclust.Block(machine, ranks, ppn)
	if err != nil {
		log.Fatal(err)
	}

	params := hierclust.DefaultTsunamiParams(ranks)
	params.NX, params.NY = 96, 2*ranks
	params.Source = hierclust.TsunamiSource{CX: 48, CY: float64(ranks), Amplitude: 2, Sigma: 10}

	// Hierarchical clustering from a short communication trace.
	rec := hierclust.NewTraceRecorder(ranks)
	if err := hierclust.TraceTsunami(hierclust.TracedTsunamiOptions{
		Params: params, Iterations: 5, Tracer: rec,
	}); err != nil {
		log.Fatal(err)
	}
	clustering, err := hierclust.Hierarchical(rec.Freeze(), placement, hierclust.HierSpec{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hierarchical clustering: %d L1 clusters, %d L2 groups of %d\n",
		clustering.NumClusters(), len(clustering.Groups), clustering.MaxGroupSize())

	// The protected run with an injected node failure.
	app, err := hierclust.NewTsunamiApp(params)
	if err != nil {
		log.Fatal(err)
	}
	runner, err := hierclust.NewHybridRunner(hierclust.HybridConfig{
		Placement:       placement,
		Clusters:        clustering.L1,
		Groups:          clustering.Groups,
		CheckpointEvery: ckptEvery,
		Level:           hierclust.L3Encoded,
	}, app)
	if err != nil {
		log.Fatal(err)
	}
	report, err := runner.Run(iterations, map[int][]hierclust.NodeID{
		failIter: {hierclust.NodeID(failNode)},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ran %d iterations, %d checkpoints, logged %.1f%% of traffic\n",
		report.Iterations, report.CheckpointsTaken, report.LoggedFraction*100)
	for _, f := range report.Failures {
		fmt.Printf("node %v failed at iteration %d:\n", f.Nodes, f.Iter)
		fmt.Printf("  containment: %d of %d ranks rolled back (%.1f%%)\n",
			f.RestartedRanks, ranks, f.RestartedFraction*100)
		for lv, n := range f.RestoreLevels {
			fmt.Printf("  %d ranks restored from %s\n", n, lv)
		}
		fmt.Printf("  %d messages replayed from sender logs, %d duplicates suppressed, %d iterations re-run\n",
			f.ReplayedMessages, f.SuppressedDuplicates, f.ReExecutedIters)
	}

	// Verify against a failure-free reference.
	ref, err := hierclust.NewTsunamiApp(params)
	if err != nil {
		log.Fatal(err)
	}
	if err := ref.RunSequential(iterations); err != nil {
		log.Fatal(err)
	}
	diffs := 0
	for r := 0; r < ranks; r++ {
		for j := 0; j < app.Solver(r).Rows(); j++ {
			for i := 0; i < params.NX; i++ {
				if app.Solver(r).Eta(j, i) != ref.Solver(r).Eta(j, i) {
					diffs++
				}
			}
		}
	}
	if diffs == 0 {
		fmt.Println("verification: recovered field is bit-identical to the failure-free run")
	} else {
		fmt.Printf("verification FAILED: %d cells differ\n", diffs)
	}
}
