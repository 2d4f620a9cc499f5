package hierclust

import (
	"fmt"
	"sort"
)

// fourStrategies is the paper's Table II strategy set at the given flat
// sizes (hierarchical takes its defaults).
func fourStrategies(naive, sizeGuided, distributed int) []StrategySpec {
	return []StrategySpec{
		{Kind: "naive", Size: naive},
		{Kind: "size-guided", Size: sizeGuided},
		{Kind: "distributed", Size: distributed},
		{Kind: "hierarchical"},
	}
}

// BuiltinScenarios returns the named scenarios shipped with the package —
// the paper's experiments expressed as data. The slice is freshly built on
// every call; callers may mutate their copy.
func BuiltinScenarios() []*Scenario {
	scenarios := []*Scenario{
		{
			// The README quickstart: the four strategies on a traced
			// 256-rank tsunami run, the laptop-scale Table II.
			Name:       "quickstart",
			Machine:    MachineSpec{Model: "tsubame2", Nodes: 32},
			Placement:  PlacementSpec{Policy: "block", Ranks: 256, ProcsPerNode: 8},
			Trace:      TraceSpec{Source: "tsunami", Iterations: 25},
			Strategies: fourStrategies(32, 8, 8),
		},
		{
			// Table II at the harness's quick scale (hcrun -exp table2
			// -quick uses the same strategy sizes).
			Name:       "table2-quick",
			Machine:    MachineSpec{Model: "tsubame2", Nodes: 32},
			Placement:  PlacementSpec{Policy: "block", Ranks: 256, ProcsPerNode: 8},
			Trace:      TraceSpec{Source: "tsunami", Iterations: 20},
			Strategies: fourStrategies(16, 8, 8),
		},
		{
			// Table II at paper scale: 1024 ranks on 64 nodes × 16.
			Name:       "table2",
			Machine:    MachineSpec{Model: "tsubame2", Nodes: 64},
			Placement:  PlacementSpec{Policy: "block", Ranks: 1024, ProcsPerNode: 16},
			Trace:      TraceSpec{Source: "tsunami", Iterations: 100},
			Strategies: fourStrategies(32, 8, 16),
		},
		{
			// The scaling experiment's first synthetic rung: a generated
			// 2-D stencil at 4096 ranks, pure sparse pipeline.
			Name:       "synthetic-4k",
			Machine:    MachineSpec{Model: "tsubame2", Nodes: 256},
			Placement:  PlacementSpec{Policy: "block", Ranks: 4096, ProcsPerNode: 16},
			Trace:      TraceSpec{Source: "synthetic", Pattern: "stencil2d"},
			Strategies: fourStrategies(32, 8, 16),
		},
		{
			// The 64k-rank synthetic scale of the PR-2 benchmarks: 65,536
			// ranks on 4096 nodes, evaluable in tens of milliseconds.
			Name:       "synthetic-64k",
			Machine:    MachineSpec{Model: "tsubame2", Nodes: 4096},
			Placement:  PlacementSpec{Policy: "block", Ranks: 65536, ProcsPerNode: 16},
			Trace:      TraceSpec{Source: "synthetic", Pattern: "stencil2d"},
			Strategies: []StrategySpec{{Kind: "hierarchical"}},
		},
		{
			// The 262,144-rank / 16,384-node scale: the full clustering →
			// reliability pipeline through the node partitioner (at the
			// growth target 5 that the deprecated multilevel alias picks)
			// and the sparse placement, still bit-identical at any worker
			// count.
			Name:      "synthetic-256k",
			Machine:   MachineSpec{Model: "tsubame2", Nodes: 16384},
			Placement: PlacementSpec{Policy: "block", Ranks: 262144, ProcsPerNode: 16},
			Trace:     TraceSpec{Source: "synthetic", Pattern: "stencil2d"},
			Strategies: []StrategySpec{
				{Kind: "hierarchical", Hier: &HierSpec{Multilevel: true}},
			},
		},
	}
	for _, s := range scenarios {
		s.Version = ScenarioVersion // stored/served documents self-describe
	}
	return scenarios
}

// BuiltinScenario returns the named built-in scenario.
func BuiltinScenario(name string) (*Scenario, error) {
	var names []string
	for _, s := range BuiltinScenarios() {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("hierclust: unknown built-in scenario %q (have %v)", name, names)
}
