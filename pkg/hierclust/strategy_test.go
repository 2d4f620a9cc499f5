package hierclust

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestStrategyKindsIncludeBuiltins(t *testing.T) {
	kinds := strings.Join(StrategyKinds(), ",")
	for _, want := range []string{"naive", "size-guided", "distributed", "hierarchical"} {
		if !strings.Contains(kinds, want) {
			t.Errorf("built-in kind %q missing from registry (%s)", want, kinds)
		}
	}
}

func TestRegisterStrategyRejectsDuplicates(t *testing.T) {
	if err := RegisterStrategy("naive", func(StrategySpec) (Strategy, error) { return nil, nil }); err == nil {
		t.Fatal("shadowing a built-in kind did not error")
	}
	if err := RegisterStrategy("", nil); err == nil {
		t.Fatal("empty registration did not error")
	}
}

func TestFlatStrategyDefaultsAndValidation(t *testing.T) {
	st, err := NewStrategy(StrategySpec{Kind: "naive"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Name() != "naive-32" {
		t.Fatalf("naive default = %q, want naive-32 (the paper's sweet spot)", st.Name())
	}
	if _, err := NewStrategy(StrategySpec{Kind: "naive", Hier: &HierSpec{}}); err == nil {
		t.Fatal("flat strategy accepted hier options")
	}
	if _, err := NewStrategy(StrategySpec{Kind: "hierarchical", Size: 8}); err == nil {
		t.Fatal("hierarchical strategy accepted a flat size")
	}
	if _, err := NewStrategy(StrategySpec{Kind: "nope"}); err == nil {
		t.Fatal("unknown kind resolved")
	}
}

// TestHierarchicalVariantNames: hierarchical variants must be
// distinguishable in results, like the flat strategies' "naive-32".
func TestHierarchicalVariantNames(t *testing.T) {
	plain, err := NewStrategy(StrategySpec{Kind: "hierarchical"})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Name() != "hierarchical" {
		t.Fatalf("default name = %q, want hierarchical", plain.Name())
	}
	variant, err := NewStrategy(StrategySpec{Kind: "hierarchical", Hier: &HierSpec{
		MinNodesPerL1: 8, SubgroupNodes: 4, AlignPowerPairs: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if variant.Name() != "hierarchical-min8-sub4-pairs" {
		t.Fatalf("variant name = %q, want hierarchical-min8-sub4-pairs", variant.Name())
	}
}

// everyOther is a deliberately simple third-party strategy: two striped
// containment clusters, paired encoding groups inside each.
type everyOther struct{}

func (everyOther) Name() string { return "every-other" }

func (everyOther) Build(m Comm, p *Placement) (*Clustering, error) {
	n := p.NumRanks()
	c := &Clustering{Name: "every-other", L1: make([]int32, n)}
	for r := 0; r < n; r++ {
		c.L1[r] = int32(r % 2)
	}
	for base := 0; base+3 < n; base += 4 {
		c.Groups = append(c.Groups,
			[]Rank{Rank(base), Rank(base + 2)},
			[]Rank{Rank(base + 1), Rank(base + 3)})
	}
	return c, nil
}

// TestThirdPartyStrategy registers an out-of-repo strategy and runs it
// through the full scenario pipeline next to a built-in — the registry's
// reason to exist.
func TestThirdPartyStrategy(t *testing.T) {
	if err := RegisterStrategy("every-other", func(spec StrategySpec) (Strategy, error) {
		return everyOther{}, nil
	}); err != nil {
		// Another test in this process may have registered it already.
		if !strings.Contains(err.Error(), "already registered") {
			t.Fatal(err)
		}
	}
	sc := &Scenario{
		Name:      "third-party",
		Machine:   MachineSpec{Nodes: 16},
		Placement: PlacementSpec{Ranks: 64, ProcsPerNode: 4},
		Trace:     TraceSpec{Source: "synthetic", Iterations: 10},
		Strategies: []StrategySpec{
			{Kind: "every-other"},
			{Kind: "hierarchical"},
		},
	}
	res, err := NewPipeline().Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluations) != 2 {
		t.Fatalf("got %d evaluations, want 2", len(res.Evaluations))
	}
	if res.Evaluations[0].Strategy != "every-other" {
		t.Fatalf("first evaluation is %q, want every-other", res.Evaluations[0].Strategy)
	}
	// Striped clusters cut every stencil edge: logging must be ~100%.
	if lf := res.Evaluations[0].LoggedFraction; lf < 0.9 {
		t.Errorf("every-other logged fraction = %v, want ~1 (striped clusters log everything)", lf)
	}
	if res.Evaluations[1].Strategy != "hierarchical" {
		t.Fatalf("second evaluation is %q, want hierarchical", res.Evaluations[1].Strategy)
	}
}

func ExampleRegisterStrategy() {
	// Third-party strategies join the registry and then participate in
	// scenarios exactly like the built-ins.
	_ = RegisterStrategy("example-naive-4", func(spec StrategySpec) (Strategy, error) {
		return exampleNaive4{}, nil
	})
	st, _ := NewStrategy(StrategySpec{Kind: "example-naive-4"})
	fmt.Println(st.Name())
	// Output: example-naive-4
}

type exampleNaive4 struct{}

func (exampleNaive4) Name() string { return "example-naive-4" }
func (exampleNaive4) Build(m Comm, p *Placement) (*Clustering, error) {
	return Naive(p.NumRanks(), 4)
}
