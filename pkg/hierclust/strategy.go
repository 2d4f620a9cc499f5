package hierclust

import (
	"cmp"
	"context"
	"fmt"

	"hierclust/internal/core"
	"hierclust/internal/graph"
)

// StrategySpec declaratively selects and parameterizes one of the paper's
// four clustering strategies inside a Scenario. Kind names the strategy;
// the remaining fields are its parameters (unused fields stay zero and are
// omitted from JSON). The set is closed: a spec builds itself (Build), and
// every strategy is deterministic, so the pipeline caches and compares
// results byte for byte.
type StrategySpec struct {
	// Kind is "naive", "size-guided", "distributed" or "hierarchical".
	Kind string `json:"kind"`
	// Size is the cluster size for the flat strategies (naive,
	// size-guided, distributed). 0 picks the kind's paper default.
	Size int `json:"size,omitempty"`
	// Hier tunes the hierarchical construction; nil picks the paper
	// defaults (4-node L1 minimum, 4-node L2 sub-groups).
	Hier *HierSpec `json:"hier,omitempty"`
}

// check validates spec's parameters against the one machine property they
// depend on, whether it has power pairs (the rest of the machine-dependent
// validation happens in the build). It allocates nothing for a valid spec,
// so Scenario.Validate checks every cell of a sweep.
func (s StrategySpec) check(pairs bool) error {
	switch s.Kind {
	case "naive", "size-guided", "distributed":
		if s.Hier != nil {
			return fmt.Errorf("hierclust: strategy %q does not accept hier options", s.Kind)
		}
		if s.Size < 0 {
			return fmt.Errorf("hierclust: strategy %q size %d must be positive", s.Kind, s.Size)
		}
	case "hierarchical":
		if s.Size != 0 {
			return fmt.Errorf("hierclust: strategy \"hierarchical\" takes hier options, not size (got %d)", s.Size)
		}
		if s.Hier != nil {
			return checkHier(s.Hier, pairs)
		}
	default:
		return fmt.Errorf("hierclust: unknown strategy kind %q (have [distributed hierarchical naive size-guided])", s.Kind)
	}
	return nil
}

// checkHier rejects hier sizes that would evaluate the default clustering
// under another name and cache key, or that only the build would refuse: a
// negative field (the build reads a negative min, target or sub-group size
// as the default, and refuses a negative max), and a max below the resolved
// min or target. With power pairs aligned on a paired machine the build
// counts clusters in pairs, halving min and target up and the max down, so
// the halved max must reach them too (a max that halves to 0 would lift
// the cap).
func checkHier(h *HierSpec, pairs bool) error {
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"min_nodes_per_l1", h.MinNodesPerL1},
		{"target_nodes_per_l1", h.TargetNodesPerL1},
		{"max_nodes_per_l1", h.MaxNodesPerL1},
		{"subgroup_nodes", h.SubgroupNodes},
	} {
		if f.v < 0 {
			return fmt.Errorf("hierclust: hier field %s is negative (%d)", f.name, f.v)
		}
	}
	minN := cmp.Or(h.MinNodesPerL1, 4)
	tgt := cmp.Or(h.TargetNodesPerL1, minN)
	if h.MaxNodesPerL1 > 0 && h.MaxNodesPerL1 < max(minN, tgt) {
		return fmt.Errorf("hierclust: hier max_nodes_per_l1 %d is below the L1 minimum %d or target %d", h.MaxNodesPerL1, minN, tgt)
	}
	if pairs && h.AlignPowerPairs && h.MaxNodesPerL1 > 0 && h.MaxNodesPerL1/2 < (max(minN, tgt)+1)/2 {
		return fmt.Errorf("hierclust: hier max_nodes_per_l1 %d holds %d power pairs, fewer than the L1 minimum %d or target %d need", h.MaxNodesPerL1, h.MaxNodesPerL1/2, minN, tgt)
	}
	return nil
}

// Build constructs spec's clustering (L1 containment clusters plus L2
// encoding groups) for the given trace and placement, in fresh memory.
// The flat strategies read only the rank count; hierarchical partitions
// the matrix.
func (s StrategySpec) Build(m Comm, p *Placement) (*Clustering, error) {
	return s.build(context.Background(), m, p, nil, nil)
}

// build is Build into buf, a hierarchical build's scratch in ar (nil for
// either means fresh memory). The partitioner polls ctx between coarsening
// levels and refinement passes, so cancelling a large build returns within
// one phase (with the partitioner's error; the caller reports ctx's). An
// uncancelled build's clustering is Build's.
func (s StrategySpec) build(ctx context.Context, m Comm, p *Placement, buf *core.ClusteringBuf, ar *graph.Arena) (*Clustering, error) {
	if err := s.check(p != nil && p.Machine().PowerPairs); err != nil {
		return nil, err
	}
	// The flat defaults are the Table II configuration.
	switch s.Kind {
	case "naive":
		return buf.Naive(p.NumRanks(), cmp.Or(s.Size, 32))
	case "size-guided":
		return buf.SizeGuided(p.NumRanks(), cmp.Or(s.Size, 8))
	case "distributed":
		return buf.Distributed(p.NumRanks(), cmp.Or(s.Size, 16))
	}
	var opts HierSpec
	if s.Hier != nil {
		opts = *s.Hier
	}
	var cancel func() bool
	if ctx.Done() != nil {
		cancel = func() bool { return ctx.Err() != nil }
	}
	c, err := buf.Hierarchical(ar, m, p, opts, cancel)
	if err != nil {
		return nil, err
	}
	c.Name = hierName(s.Hier) // distinguish non-default variants in results
	return c, nil
}

// hierName distinguishes non-default hierarchical variants in results, the
// way flat strategies encode their size ("naive-32"): a scenario sweeping
// hier options must not produce indistinguishable rows. The default stays
// the paper's plain "hierarchical".
func hierName(h *HierSpec) string {
	if h == nil || *h == (HierSpec{}) {
		return "hierarchical"
	}
	name := "hierarchical"
	if h.MinNodesPerL1 != 0 {
		name += fmt.Sprintf("-min%d", h.MinNodesPerL1)
	}
	if h.TargetNodesPerL1 != 0 {
		name += fmt.Sprintf("-tgt%d", h.TargetNodesPerL1)
	}
	if h.MaxNodesPerL1 != 0 {
		name += fmt.Sprintf("-max%d", h.MaxNodesPerL1)
	}
	if h.SubgroupNodes != 0 {
		name += fmt.Sprintf("-sub%d", h.SubgroupNodes)
	}
	if h.AlignPowerPairs {
		name += "-pairs"
	}
	if h.Multilevel {
		name += "-ml"
	}
	return name
}
