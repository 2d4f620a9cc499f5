package hierclust

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"hierclust/internal/core"
	"hierclust/internal/graph"
)

// Strategy is a clustering strategy: given a communication matrix and a
// placement, it produces a complete clustering decision (L1 containment
// clusters plus L2 encoding groups). Implementations must be deterministic
// — the pipeline caches and compares results byte-for-byte — and safe for
// concurrent Build calls.
type Strategy interface {
	// Name labels the strategy in results and reports.
	Name() string
	// Build constructs the clustering for the given trace and placement.
	Build(m Comm, p *Placement) (*Clustering, error)
}

// CtxStrategy is an optional extension of Strategy for builds long enough
// to need cancellation: when a strategy implements it, the pipeline calls
// BuildCtx instead of Build, and a cancelled context must make the build
// return promptly (the built-in hierarchical strategy polls it between
// partitioner phases). A build that ignores the context is merely slower
// to cancel, never incorrect.
type CtxStrategy interface {
	Strategy
	BuildCtx(ctx context.Context, m Comm, p *Placement) (*Clustering, error)
}

// StrategySpec declaratively selects and parameterizes a strategy inside a
// Scenario. Kind names a registered factory; the remaining fields are that
// factory's parameters (unused fields stay zero and are omitted from JSON).
type StrategySpec struct {
	// Kind is the registry key: "naive", "size-guided", "distributed",
	// "hierarchical", or any third-party registration.
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

// StrategyFactory instantiates a Strategy from its declarative spec,
// validating parameters that do not depend on the machine (machine-dependent
// validation belongs in Build).
type StrategyFactory func(spec StrategySpec) (Strategy, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]StrategyFactory{}
)

// RegisterStrategy adds a strategy factory under kind. Registering an
// already-registered kind is an error: built-ins cannot be silently
// shadowed, and double registration is almost always an init-order bug.
func RegisterStrategy(kind string, f StrategyFactory) error {
	if kind == "" || f == nil {
		return fmt.Errorf("hierclust: RegisterStrategy needs a kind and a factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[kind]; dup {
		return fmt.Errorf("hierclust: strategy kind %q already registered", kind)
	}
	registry[kind] = f
	return nil
}

// MustRegisterStrategy is RegisterStrategy that panics on error, for use in
// package init functions.
func MustRegisterStrategy(kind string, f StrategyFactory) {
	if err := RegisterStrategy(kind, f); err != nil {
		panic(err)
	}
}

// NewStrategy resolves a spec against the registry.
func NewStrategy(spec StrategySpec) (Strategy, error) {
	registryMu.RLock()
	f, ok := registry[spec.Kind]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("hierclust: unknown strategy kind %q (have %v)", spec.Kind, StrategyKinds())
	}
	return f(spec)
}

// StrategyKinds lists the registered kinds, sorted.
func StrategyKinds() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	kinds := make([]string, 0, len(registry))
	for k := range registry {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// The four built-in strategies of the paper. The flat three ignore the
// communication matrix by construction; the hierarchical one partitions it.

// builtinStrategy is a built-in strategy: it builds into a lent buffer, its
// scratch in a lent arena, and the pipeline hands the clustering back once
// it has scored it. A registered third-party strategy may keep what it
// returns, so the pipeline never recycles its clustering.
type builtinStrategy interface {
	buildIn(ctx context.Context, m Comm, p *Placement, buf *core.ClusteringBuf, ar *graph.Arena) (*Clustering, error)
}

type flatStrategy struct {
	kind  string
	size  int
	build func(buf *core.ClusteringBuf, nranks, size int) (*Clustering, error)
}

func (s *flatStrategy) Name() string { return fmt.Sprintf("%s-%d", s.kind, s.size) }

func (s *flatStrategy) Build(m Comm, p *Placement) (*Clustering, error) {
	return s.buildIn(context.Background(), m, p, nil, nil)
}

func (s *flatStrategy) buildIn(_ context.Context, _ Comm, p *Placement, buf *core.ClusteringBuf, _ *graph.Arena) (*Clustering, error) {
	return s.build(buf, p.NumRanks(), s.size)
}

// flatKinds are the built-ins whose clustering reads the rank count alone.
var flatKinds = map[string]bool{"naive": true, "size-guided": true, "distributed": true}

type hierStrategy struct {
	name string
	opts HierOptions
}

func (s *hierStrategy) Name() string { return s.name }

func (s *hierStrategy) Build(m Comm, p *Placement) (*Clustering, error) {
	return s.BuildCtx(context.Background(), m, p)
}

// BuildCtx implements CtxStrategy: the partitioner polls the context
// between coarsening levels and refinement passes, so cancelling mid-build
// on a large machine returns within one phase instead of after the full
// partition. The clustering of an uncancelled build is identical to
// Build's.
func (s *hierStrategy) BuildCtx(ctx context.Context, m Comm, p *Placement) (*Clustering, error) {
	return s.buildIn(ctx, m, p, nil, nil)
}

func (s *hierStrategy) buildIn(ctx context.Context, m Comm, p *Placement, buf *core.ClusteringBuf, ar *graph.Arena) (*Clustering, error) {
	opts := s.opts
	if ctx.Done() != nil {
		opts.Cancel = func() bool { return ctx.Err() != nil }
	}
	c, err := buf.Hierarchical(ar, m, p, opts)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	c.Name = s.name // distinguish non-default variants in results
	return c, nil
}

// flatFactory builds a factory for one flat strategy kind with its paper
// default size (naive 32, size-guided 8, distributed 16 — the Table II
// configuration).
func flatFactory(kind string, defaultSize int, build func(*core.ClusteringBuf, int, int) (*Clustering, error)) StrategyFactory {
	return func(spec StrategySpec) (Strategy, error) {
		if spec.Hier != nil {
			return nil, fmt.Errorf("hierclust: strategy %q does not accept hier options", kind)
		}
		size := spec.Size
		if size == 0 {
			size = defaultSize
		}
		if size < 0 {
			return nil, fmt.Errorf("hierclust: strategy %q size %d must be positive", kind, size)
		}
		return &flatStrategy{kind: kind, size: size, build: build}, nil
	}
}

func init() {
	MustRegisterStrategy("naive", flatFactory("naive", 32, (*core.ClusteringBuf).Naive))
	MustRegisterStrategy("size-guided", flatFactory("size-guided", 8, (*core.ClusteringBuf).SizeGuided))
	MustRegisterStrategy("distributed", flatFactory("distributed", 16, (*core.ClusteringBuf).Distributed))
	MustRegisterStrategy("hierarchical", func(spec StrategySpec) (Strategy, error) {
		if spec.Size != 0 {
			return nil, fmt.Errorf("hierclust: strategy \"hierarchical\" takes hier options, not size (got %d)", spec.Size)
		}
		// Multilevel tuning without multilevel is a mistake, not a no-op:
		// the user believes they tuned the partitioner, and the dead fields
		// would split the result cache on meaningless keys.
		if h := spec.Hier; h != nil && !h.Multilevel && (h.CoarsenThreshold != 0 || h.MatchingRounds != 0) {
			return nil, fmt.Errorf("hierclust: hier options coarsen_threshold/matching_rounds apply only with multilevel")
		}
		return &hierStrategy{name: hierName(spec.Hier), opts: spec.Hier.Options()}, nil
	})
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
