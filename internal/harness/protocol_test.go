package harness

import (
	"math"
	"testing"

	"hierclust/internal/checkpoint"
	"hierclust/internal/core"
	"hierclust/internal/hybrid"
	"hierclust/internal/topology"
	"hierclust/internal/tsunami"
	"hierclust/pkg/hierclust"
)

// TestProtocolRecoveryOracle holds the analytic recovery score to what the
// protocol does, on the protocol experiment's quick rig (64 ranks, 8 per
// node) and schedule. For naive-16, distributed-16 and hierarchical,
// core.RecoveryFraction is the mean of hybrid.Runner's RestartedFraction
// over every single-node failure, compared as integer restarted-rank sums;
// size-guided-8's groups sit on one node each, so every node's failure is
// unrecoverable.
func TestProtocolRecoveryOracle(t *testing.T) {
	const ranks, ppn, iters, ckptEvery, failAt = 64, 8, 20, 5, 13
	r, err := tracedRig(Config{Ranks: ranks, ProcsPerNode: ppn, Iterations: 10, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	params := tsunami.TraceParams(ranks)
	used := r.placement.UsedNodes()
	if len(used) != ranks/ppn {
		t.Fatalf("rig uses %d nodes, want %d", len(used), ranks/ppn)
	}
	for _, spec := range []hierclust.StrategySpec{
		{Kind: "naive", Size: 2 * ppn}, {Kind: "size-guided", Size: ppn},
		{Kind: "distributed", Size: 2 * ppn}, {Kind: "hierarchical"},
	} {
		c, err := spec.Build(r.matrix, r.placement)
		if err != nil {
			t.Fatal(err)
		}
		restarted := 0
		for _, node := range used {
			app, err := tsunami.NewFTApp(params)
			if err != nil {
				t.Fatal(err)
			}
			runner, err := hybrid.NewRunner(hybrid.Config{
				Placement:       r.placement,
				Clusters:        c.L1,
				Groups:          c.Groups,
				CheckpointEvery: ckptEvery,
				Level:           checkpoint.L3Encoded,
			}, app)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runner.Run(iters, map[int][]topology.NodeID{failAt: {node}})
			if spec.Kind == "size-guided" {
				if !checkpoint.Unrecoverable(err) {
					t.Errorf("%s, node %d fails: %v, want unrecoverable", c.Name, node, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s, node %d fails: %v", c.Name, node, err)
			}
			if len(rep.Failures) != 1 {
				t.Fatalf("%s, node %d fails: %d failures handled, want 1", c.Name, node, len(rep.Failures))
			}
			restarted += rep.Failures[0].RestartedRanks
		}
		if spec.Kind == "size-guided" {
			continue
		}
		rf, err := core.RecoveryFraction(c, r.placement)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d ranks restarted over %d single-node failures, RecoveryFraction %v", c.Name, restarted, len(used), rf)
		if want := int(math.Round(rf * ranks * float64(len(used)))); restarted != want {
			t.Errorf("%s: %d ranks restarted over %d single-node failures, RecoveryFraction %v predicts %d",
				c.Name, restarted, len(used), rf, want)
		}
	}
}
