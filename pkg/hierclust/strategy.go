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

// HierSpec is the declarative (JSON) form of HierOptions.
type HierSpec struct {
	MinNodesPerL1    int  `json:"min_nodes_per_l1,omitempty"`
	TargetNodesPerL1 int  `json:"target_nodes_per_l1,omitempty"`
	MaxNodesPerL1    int  `json:"max_nodes_per_l1,omitempty"`
	SubgroupNodes    int  `json:"subgroup_nodes,omitempty"`
	AlignPowerPairs  bool `json:"align_power_pairs,omitempty"`
	// Multilevel selects the coarsen/partition/uncoarsen node partitioner,
	// the scalable path for 10k+-node machines. The two tuning knobs below
	// apply only when it is set (0 picks the partitioner defaults).
	Multilevel       bool `json:"multilevel,omitempty"`
	CoarsenThreshold int  `json:"coarsen_threshold,omitempty"`
	MatchingRounds   int  `json:"matching_rounds,omitempty"`
}

// Options converts the spec to the constructor's option struct.
func (h *HierSpec) Options() HierOptions {
	if h == nil {
		return HierOptions{}
	}
	return HierOptions{
		MinNodesPerL1:    h.MinNodesPerL1,
		TargetNodesPerL1: h.TargetNodesPerL1,
		MaxNodesPerL1:    h.MaxNodesPerL1,
		SubgroupNodes:    h.SubgroupNodes,
		AlignPowerPairs:  h.AlignPowerPairs,
		Multilevel:       h.Multilevel,
		CoarsenThreshold: h.CoarsenThreshold,
		MatchingRounds:   h.MatchingRounds,
	}
}

// check validates spec's parameters that do not depend on the machine
// (machine-dependent validation happens in the build). It allocates nothing
// for a valid spec, so Scenario.Validate checks every cell of a sweep.
func (s StrategySpec) check() error {
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
		// Multilevel tuning without multilevel is a mistake, not a no-op:
		// the user believes they tuned the partitioner, and the dead fields
		// would split the result cache on meaningless keys.
		if h := s.Hier; h != nil && !h.Multilevel && (h.CoarsenThreshold != 0 || h.MatchingRounds != 0) {
			return fmt.Errorf("hierclust: hier options coarsen_threshold/matching_rounds apply only with multilevel")
		}
	default:
		return fmt.Errorf("hierclust: unknown strategy kind %q (have [distributed hierarchical naive size-guided])", s.Kind)
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
	if err := s.check(); err != nil {
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
	opts := s.Hier.Options()
	if ctx.Done() != nil {
		opts.Cancel = func() bool { return ctx.Err() != nil }
	}
	c, err := buf.Hierarchical(ar, m, p, opts)
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
		if h.CoarsenThreshold != 0 {
			name += fmt.Sprintf("-ct%d", h.CoarsenThreshold)
		}
		if h.MatchingRounds != 0 {
			name += fmt.Sprintf("-mr%d", h.MatchingRounds)
		}
	}
	return name
}
