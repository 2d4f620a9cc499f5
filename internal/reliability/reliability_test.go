package reliability

import (
	"context"
	"math"
	"testing"

	"hierclust/internal/topology"
)

func machine(nodes, ppn int) (*topology.Machine, *topology.Placement) {
	m := &topology.Machine{Name: "t", Nodes: nodes}
	p, err := topology.Block(m, nodes*ppn, ppn)
	if err != nil {
		panic(err)
	}
	return m, p
}

func TestCombinations(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {64, 2, 2016}, {64, 3, 41664},
		{4, 5, 0}, {4, -1, 0},
	}
	for _, c := range cases {
		if got := combinations(c.n, c.k); math.Abs(got-c.want) > 1e-9*math.Max(1, c.want) {
			t.Errorf("C(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

func TestMixValidateNormalize(t *testing.T) {
	m := DefaultMix()
	if err := m.Validate(); err != nil {
		t.Fatalf("default mix invalid: %v", err)
	}
	sum := m.Transient
	for _, p := range m.NodeLoss {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("default mix sums to %g", sum)
	}
	bad := Mix{Transient: -1}
	if err := bad.Validate(); err == nil {
		t.Error("accepted negative transient")
	}
	bad2 := Mix{NodeLoss: []float64{-0.1}}
	if err := bad2.Validate(); err == nil {
		t.Error("accepted negative node loss")
	}
	zero := Mix{}
	if err := zero.Validate(); err == nil {
		t.Error("accepted all-zero mix")
	}
	zero.Normalize() // must not panic or divide by zero
}

func TestGroupFromRanks(t *testing.T) {
	_, p := machine(4, 4)
	g := GroupFromRanks(p, []topology.Rank{0, 4, 8, 12}) // one per node
	if len(g.Span) != 4 {
		t.Errorf("node span = %d, want 4", len(g.Span))
	}
	if g.Tolerance != 2 {
		t.Errorf("Tolerance = %d, want 2 (half group)", g.Tolerance)
	}
	g2 := GroupFromRanks(p, []topology.Rank{0, 1, 2, 3}) // all on node 0
	if len(g2.Span) != 1 || g2.membersOn(0) != 4 {
		t.Errorf("co-located group: %+v", g2)
	}
}

func TestDestroyedBy(t *testing.T) {
	g := groupOf(map[topology.NodeID]int{0: 2, 1: 2}, 2)
	if g.destroyedBy([]topology.NodeID{0}) {
		t.Error("losing 2 of 4 with tolerance 2 destroyed the group")
	}
	if !g.destroyedBy([]topology.NodeID{0, 1}) {
		t.Error("losing all members did not destroy the group")
	}
	if g.destroyedBy([]topology.NodeID{7}) {
		t.Error("losing an unrelated node destroyed the group")
	}
}

func TestExactConditionalHandComputed(t *testing.T) {
	// One group: 1 member on node 0, tolerance 0. With 1 failure among 4
	// nodes, P = 1/4; with 2 failures, P = C(3,1)/C(4,2) = 3/6 = 1/2.
	groups := []Group{groupOf(map[topology.NodeID]int{0: 1}, 0)}
	if got := exactConditional(context.Background(), flatten(groupSpans{groups, 4}), 4, 1, 1); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("f=1: %g, want 0.25", got)
	}
	if got := exactConditional(context.Background(), flatten(groupSpans{groups, 4}), 4, 2, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("f=2: %g, want 0.5", got)
	}
}

func TestGroupConditionalMatchesExact(t *testing.T) {
	// The per-group closed form must agree with brute-force enumeration.
	groups := []Group{groupOf(map[topology.NodeID]int{0: 2, 3: 1, 5: 1}, 2)}
	for f := 1; f <= 4; f++ {
		fg := flatten(groupSpans{groups, 8})
		exact := exactConditional(context.Background(), fg, 8, f, 1)
		closed := fg.groupConditional(context.Background(), 0, 8, f, 1)
		if math.Abs(exact-closed) > 1e-12 {
			t.Errorf("f=%d: exact %g != closed-form %g", f, exact, closed)
		}
	}
}

func TestUnionBoundOverlapsCap(t *testing.T) {
	// Two identical always-destroyed groups: union bound caps at 1.
	g := groupOf(map[topology.NodeID]int{0: 4}, 0)
	groups := []Group{g, g}
	// Any failure including node 0 destroys both; with n=2,f=1: each group
	// P=1/2, sum = 1.0 (capped).
	if got := unionBoundConditional(context.Background(), flatten(groupSpans{groups, 2}), 2, 1, 1); got != 1 {
		t.Errorf("union bound = %g, want capped 1", got)
	}
}

func TestMonteCarloAgreesWithExact(t *testing.T) {
	groups := []Group{
		groupOf(map[topology.NodeID]int{0: 1, 1: 1, 2: 1}, 1),
		groupOf(map[topology.NodeID]int{3: 1, 4: 1, 5: 1}, 1),
	}
	exact := exactConditional(context.Background(), flatten(groupSpans{groups, 10}), 10, 3, 1)
	mc := monteCarloConditional(context.Background(), flatten(groupSpans{groups, 10}), 10, 3, 400_000, 1, 1)
	if math.Abs(exact-mc) > 0.01 {
		t.Errorf("monte carlo %g vs exact %g", mc, exact)
	}
}

func TestCatastropheProbValidation(t *testing.T) {
	mdl := &Model{Nodes: 0, Mix: DefaultMix()}
	if _, err := mdl.CatastropheProb(nil); err == nil {
		t.Error("accepted 0-node model")
	}
	mdl = &Model{Nodes: 4, Mix: Mix{Transient: -1}}
	if _, err := mdl.CatastropheProb(nil); err == nil {
		t.Error("accepted invalid mix")
	}
}

// The four Table II reliability scenarios. 64 nodes, 16 procs per node,
// 1024 ranks, tolerance = half the group (FTI provisioning).

func tableIIGroups(strategy string) []Group {
	_, p := machine(64, 16)
	var groups []Group
	switch strategy {
	case "size-guided-8": // 8 consecutive ranks: half a node each
		for base := 0; base < 1024; base += 8 {
			var mem []topology.Rank
			for r := base; r < base+8; r++ {
				mem = append(mem, topology.Rank(r))
			}
			groups = append(groups, GroupFromRanks(p, mem))
		}
	case "naive-32": // 32 consecutive ranks: exactly 2 nodes
		for base := 0; base < 1024; base += 32 {
			var mem []topology.Rank
			for r := base; r < base+32; r++ {
				mem = append(mem, topology.Rank(r))
			}
			groups = append(groups, GroupFromRanks(p, mem))
		}
	case "distributed-16": // stride-16: 16 distinct nodes per group
		for g := 0; g < 64; g++ {
			var mem []topology.Rank
			for j := 0; j < 16; j++ {
				mem = append(mem, topology.Rank((g+j*64)%1024))
			}
			// force distinct nodes: ranks g, g+64, ... are 16 apart in
			// node numbering under block placement (64 ranks apart / 16
			// per node = 4 nodes apart) — recompute properly below.
			groups = append(groups, GroupFromRanks(p, mem))
		}
	case "hierarchical-64-4": // L1 = 4 nodes; L2 = i-th proc of each node
		for l1 := 0; l1 < 16; l1++ {
			nodes := []int{l1 * 4, l1*4 + 1, l1*4 + 2, l1*4 + 3}
			for i := 0; i < 16; i++ {
				var mem []topology.Rank
				for _, n := range nodes {
					mem = append(mem, topology.Rank(n*16+i))
				}
				groups = append(groups, GroupFromRanks(p, mem))
			}
		}
	}
	return groups
}

func TestCatastropheSizeGuided(t *testing.T) {
	// Whole group on one node: every node-loss failure is catastrophic,
	// so P(cat) = 1 - transient ≈ 0.95 (paper Table II: 0.95).
	mdl := &Model{Nodes: 64, Mix: DefaultMix()}
	p, err := mdl.CatastropheProb(tableIIGroups("size-guided-8"))
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.90 || p > 0.96 {
		t.Errorf("size-guided P(cat) = %g, want ≈0.95", p)
	}
}

func TestCatastropheNaive32(t *testing.T) {
	// Groups spanning 2 nodes with tolerance 16: only simultaneous loss of
	// both nodes kills a group. Paper Table II: ~1e-4.
	mdl := &Model{Nodes: 64, Mix: DefaultMix()}
	p, err := mdl.CatastropheProb(tableIIGroups("naive-32"))
	if err != nil {
		t.Fatal(err)
	}
	if p < 2e-5 || p > 5e-4 {
		t.Errorf("naive-32 P(cat) = %g, want ~1e-4", p)
	}
}

func TestCatastropheHierarchical(t *testing.T) {
	// Groups of 4 on 4 distinct nodes, tolerance 2: needs >=3 of an L1's
	// 4 nodes down. Paper Table II: ~1e-6.
	mdl := &Model{Nodes: 64, Mix: DefaultMix()}
	p, err := mdl.CatastropheProb(tableIIGroups("hierarchical-64-4"))
	if err != nil {
		t.Fatal(err)
	}
	if p < 2e-8 || p > 5e-5 {
		t.Errorf("hierarchical P(cat) = %g, want ~1e-6", p)
	}
}

func TestCatastropheDistributed(t *testing.T) {
	// Groups spanning many distinct nodes with tolerance 8: catastrophic
	// only under >=9 simultaneous node losses. Paper Table II: ~1e-15.
	mdl := &Model{Nodes: 64, Mix: DefaultMix()}
	p, err := mdl.CatastropheProb(tableIIGroups("distributed-16"))
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-9 {
		t.Errorf("distributed P(cat) = %g, want ≲1e-10", p)
	}
}

func TestReliabilityOrdering(t *testing.T) {
	// The paper's qualitative claim (Fig. 4a): distributed clustering is
	// orders of magnitude more reliable than non-distributed; hierarchical
	// sits between naive and distributed.
	mdl := &Model{Nodes: 64, Mix: DefaultMix()}
	get := func(s string) float64 {
		p, err := mdl.CatastropheProb(tableIIGroups(s))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	sg, nv, hc, db := get("size-guided-8"), get("naive-32"), get("hierarchical-64-4"), get("distributed-16")
	if !(db < hc && hc < nv && nv < sg) {
		t.Errorf("ordering violated: distributed %g < hierarchical %g < naive %g < size-guided %g",
			db, hc, nv, sg)
	}
	if sg/hc < 1e3 {
		t.Errorf("hierarchical (%g) not orders of magnitude better than size-guided (%g)", hc, sg)
	}
}

func TestFig4aDistributionGap(t *testing.T) {
	// Fig. 4a setting: 128 nodes x 8 procs, groups of 4/8/16, distributed
	// vs non-distributed. Distributed must win by orders of magnitude for
	// every size.
	m := &topology.Machine{Name: "t", Nodes: 128}
	p, err := topology.Block(m, 1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	mdl := &Model{Nodes: 128, Mix: DefaultMix()}
	for _, size := range []int{4, 8, 16} {
		var nonDist, dist []Group
		for base := 0; base < 1024; base += size {
			var mem []topology.Rank
			for r := base; r < base+size; r++ {
				mem = append(mem, topology.Rank(r))
			}
			nonDist = append(nonDist, GroupFromRanks(p, mem))
		}
		for g := 0; g < 1024/size; g++ {
			var mem []topology.Rank
			for j := 0; j < size; j++ {
				mem = append(mem, topology.Rank((g+j*(1024/size))%1024))
			}
			dist = append(dist, GroupFromRanks(p, mem))
		}
		pn, err := mdl.CatastropheProb(nonDist)
		if err != nil {
			t.Fatal(err)
		}
		pd, err := mdl.CatastropheProb(dist)
		if err != nil {
			t.Fatal(err)
		}
		if pd*100 > pn {
			t.Errorf("size %d: distributed %g not ≫ better than non-distributed %g", size, pd, pn)
		}
	}
}
