package hierclust

import (
	"testing"
)

// TestStrategyKindsIncludeBuiltins: the four kinds are the whole set. Each
// validates with its zero parameters, and any other kind is rejected with
// the message that lists them, through StrategySpec and through a decoded
// scenario alike.
func TestStrategyKindsIncludeBuiltins(t *testing.T) {
	for _, kind := range []string{"naive", "size-guided", "distributed", "hierarchical"} {
		if err := (StrategySpec{Kind: kind}).check(true); err != nil {
			t.Errorf("built-in kind %q rejected: %v", kind, err)
		}
	}
	const want = `hierclust: unknown strategy kind "nope" (have [distributed hierarchical naive size-guided])`
	if err := (StrategySpec{Kind: "nope"}).check(true); err == nil || err.Error() != want {
		t.Fatalf("unknown kind: %v, want %s", err, want)
	}
	if _, err := (StrategySpec{Kind: "nope"}).Build(nil, nil); err == nil || err.Error() != want {
		t.Fatalf("Build of an unknown kind: %v, want %s", err, want)
	}
	_, err := DecodeScenario([]byte(`{"name": "x", "machine": {"nodes": 4},
		"placement": {"ranks": 16, "procs_per_node": 4}, "trace": {"source": "synthetic"},
		"strategies": [{"kind": "hierarchical"}, {"kind": "nope"}]}`))
	if wantDoc := `hierclust: scenario "x": strategy 1: ` + want; err == nil || err.Error() != wantDoc {
		t.Fatalf("DecodeScenario: %v, want %s", err, wantDoc)
	}
}

func TestFlatStrategyDefaultsAndValidation(t *testing.T) {
	mach, err := Tsubame2().Subset(16)
	if err != nil {
		t.Fatal(err)
	}
	placement, err := Block(mach, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Table II configuration.
	for kind, want := range map[string]string{"naive": "naive-32", "size-guided": "size-guided-8", "distributed": "distributed-16"} {
		c, err := StrategySpec{Kind: kind}.Build(nil, placement)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name != want {
			t.Errorf("%s default = %q, want %s", kind, c.Name, want)
		}
	}
	for _, bad := range []StrategySpec{
		{Kind: "naive", Hier: &HierSpec{}},
		{Kind: "distributed", Size: -1},
		{Kind: "hierarchical", Size: 8},
	} {
		if err := bad.check(true); err == nil {
			t.Errorf("%+v accepted", bad)
		}
		if _, err := bad.Build(nil, placement); err == nil {
			t.Errorf("%+v built", bad)
		}
	}
}

// TestHierarchicalVariantNames: hierarchical variants must be
// distinguishable in results, like the flat strategies' "naive-32".
func TestHierarchicalVariantNames(t *testing.T) {
	for _, tc := range []struct {
		hier *HierSpec
		want string
	}{
		{nil, "hierarchical"},
		{&HierSpec{}, "hierarchical"},
		{&HierSpec{MinNodesPerL1: 8, SubgroupNodes: 4, AlignPowerPairs: true}, "hierarchical-min8-sub4-pairs"},
		{&HierSpec{TargetNodesPerL1: 6, MaxNodesPerL1: 16, Multilevel: true}, "hierarchical-tgt6-max16-ml"},
	} {
		if got := hierName(tc.hier); got != tc.want {
			t.Errorf("hierName(%+v) = %q, want %s", tc.hier, got, tc.want)
		}
	}
}
