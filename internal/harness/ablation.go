package harness

import (
	"fmt"

	"hierclust/internal/core"
	"hierclust/internal/graph"
	"hierclust/internal/reliability"
	"hierclust/internal/topology"
)

// Ablation quantifies the design choices DESIGN.md calls out for the
// hierarchical clustering, each against the default construction:
//
//  1. L1 on the node graph vs. directly on the process graph — the node
//     graph guarantees one cluster restarts per node failure.
//  2. Minimum 4 nodes per L1 cluster vs. 2 — four nodes give L2 groups
//     room to distribute, and reliability collapses without them.
//  3. Transversal L2 groups vs. co-located (consecutive-rank) L2 groups
//     inside the same L1 clusters.
func Ablation(cfg Config) (*Table, error) {
	cfg.normalize()
	r, err := tracedRig(cfg)
	if err != nil {
		return nil, err
	}
	mix := reliability.DefaultMix()
	t := &Table{
		ID:      "ablation",
		Title:   fmt.Sprintf("hierarchical design ablations, %d ranks", cfg.Ranks),
		Columns: []string{"variant", "logged %", "restart % (node failure)", "P(cat)", "verdict"},
	}

	base, err := core.Hierarchical(r.matrix, r.placement, core.HierOptions{})
	if err != nil {
		return nil, err
	}
	if err := addAblationRow(t, "hierarchical (default)", base, r, mix, ""); err != nil {
		return nil, err
	}

	// Ablation 1: partition the process graph directly, ignoring nodes.
	procPart, err := graph.Partition(r.matrix.ToGraph(), graph.PartitionOptions{
		MinSize:    4 * cfg.ProcsPerNode,
		TargetSize: 4 * cfg.ProcsPerNode,
	})
	if err != nil {
		return nil, err
	}
	// Groups would now cross L1 clusters; the variant keeps none and shows
	// the L1 effect only (the point is the restart metric).
	procHier := &core.Clustering{Name: "L1-on-process-graph", L1: make([]int32, len(procPart))}
	for r, id := range procPart {
		procHier.L1[r] = int32(id)
	}
	if err := addAblationRow(t, "L1 on process graph", procHier, r, mix,
		"a node failure can straddle clusters"); err != nil {
		return nil, err
	}

	// Ablation 2: allow 2-node L1 clusters; L2 groups span only 2 nodes.
	small, err := core.Hierarchical(r.matrix, r.placement, core.HierOptions{
		MinNodesPerL1: 2, TargetNodesPerL1: 2, SubgroupNodes: 2,
	})
	if err != nil {
		return nil, err
	}
	small.Name = "min 2 nodes per L1"
	if err := addAblationRow(t, "min 2 nodes per L1", small, r, mix,
		"L2 groups span 2 nodes: half the group dies with one node"); err != nil {
		return nil, err
	}

	// Ablation 3: co-located L2 groups (consecutive ranks inside L1).
	colocated := &core.Clustering{Name: "co-located L2", L1: base.L1}
	members := make([][]topology.Rank, base.NumClusters())
	for r, id := range base.L1 {
		members[id] = append(members[id], topology.Rank(r))
	}
	for _, m := range members {
		for lo := 0; lo < len(m); lo += 4 {
			hi := min(lo+4, len(m))
			colocated.Groups = append(colocated.Groups, m[lo:hi:hi])
		}
	}
	if err := addAblationRow(t, "co-located L2 groups", colocated, r, mix,
		"same L1 cut, but groups die with their node"); err != nil {
		return nil, err
	}

	t.Notes = append(t.Notes, "every variant relaxes exactly one DESIGN.md decision; compare against the first row")
	return t, nil
}

// addAblationRow scores c; a variant whose groups were dropped shows "-" for
// P(cat), not the zero of an empty model.
func addAblationRow(t *Table, label string, c *core.Clustering, r *rig, mix reliability.Mix, note string) error {
	e, err := core.Evaluate(c, r.matrix, r.placement, mix)
	if err != nil {
		return err
	}
	pcatCell := fmt.Sprintf("%.2g", e.CatastropheProb)
	if len(c.Groups) == 0 {
		pcatCell = "-"
	}
	t.Rows = append(t.Rows, []string{
		label,
		fmt.Sprintf("%.2f", e.LoggedFraction*100),
		fmt.Sprintf("%.2f", e.RecoveryFraction*100),
		pcatCell,
		note,
	})
	return nil
}
