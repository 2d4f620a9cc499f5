package reliability

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"hierclust/internal/topology"
)

// Reference implementations: the map-based group and the per-group-slice
// flatten that Group spans and the slab-built flatGroups replaced, kept
// here so the differential tests below pin the flat forms to them field for
// field (the internal/graph/reference_test.go idiom).

// mapGroup is the group representation before spans: a node→count map.
type mapGroup struct {
	MembersOn map[topology.NodeID]int
	Tolerance int
}

// refGroupFromRanks is the map-based GroupFromRanks, nodes in the
// placement's dense numbering.
func refGroupFromRanks(p *topology.Placement, members []topology.Rank) mapGroup {
	g := mapGroup{MembersOn: map[topology.NodeID]int{}, Tolerance: len(members) / 2}
	for _, r := range members {
		g.MembersOn[topology.NodeID(p.UsedIndex(p.NodeOf(r)))]++
	}
	return g
}

// span converts the map to the sorted span form, zero-count entries kept.
func (g mapGroup) span() Group {
	out := Group{Tolerance: g.Tolerance}
	for n, c := range g.MembersOn {
		out.Span = append(out.Span, NodeCount{Node: n, Count: int32(c)})
	}
	slices.SortFunc(out.Span, func(a, b NodeCount) int { return cmp.Compare(a.Node, b.Node) })
	return out
}

// groupOf builds a hand-written group from its node→count map.
func groupOf(membersOn map[topology.NodeID]int, tolerance int) Group {
	return mapGroup{MembersOn: membersOn, Tolerance: tolerance}.span()
}

// membersOn returns the number of group members hosted on node n.
func (g *Group) membersOn(n topology.NodeID) int {
	for _, e := range g.Span {
		if e.Node == n {
			return int(e.Count)
		}
	}
	return 0
}

// destroyedBy reports whether losing exactly the nodes in failed destroys
// the group — the per-group oracle the flat destroys is checked against.
func (g *Group) destroyedBy(failed []topology.NodeID) bool {
	lost := 0
	for _, n := range failed {
		lost += g.membersOn(n)
	}
	return lost > g.Tolerance
}

// refFlatGroups is flatGroups before the slabs: one slice per group and per
// node.
type refFlatGroups struct {
	spanNodes  [][]int32
	spanCounts [][]int32
	tolerance  []int32
	uniform    []int32
	maskWords  [][]int32
	maskBits   [][]uint64
	critical   []bool
	byNode     [][]int32
	dpOK       bool
	dpSpans    []dpSpan
	owner      []int32
}

// refFlatten is the map-based flatten, verbatim but for the receiver of
// addDPSpan (the reduction's state is all it touches): one pass builds the
// reduction and the enumeration index that the flat form builds apart.
func refFlatten(groups []mapGroup, n int) *refFlatGroups {
	fg := &refFlatGroups{
		spanNodes:  make([][]int32, len(groups)),
		spanCounts: make([][]int32, len(groups)),
		tolerance:  make([]int32, len(groups)),
		uniform:    make([]int32, len(groups)),
		maskWords:  make([][]int32, len(groups)),
		maskBits:   make([][]uint64, len(groups)),
		critical:   make([]bool, n),
		byNode:     make([][]int32, n),
	}
	dp := &flatGroups{dpOK: true, owner: make([]int32, n)}
	for i := range dp.owner {
		dp.owner[i] = -1
	}
	for gi := range groups {
		tol := int32(groups[gi].Tolerance)
		fg.tolerance[gi] = tol
		nodes := make([]int32, 0, len(groups[gi].MembersOn))
		for node := range groups[gi].MembersOn {
			if int(node) >= 0 && int(node) < n {
				nodes = append(nodes, int32(node))
			}
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		counts := make([]int32, len(nodes))
		var worst int64
		uniform := int32(-1)
		for i, node := range nodes {
			c := int32(groups[gi].MembersOn[topology.NodeID(node)])
			counts[i] = c
			worst += int64(c)
			if uniform == -1 {
				uniform = c
			} else if uniform != c {
				uniform = 0
			}
		}
		fg.spanNodes[gi] = nodes
		fg.spanCounts[gi] = counts
		if uniform > 0 {
			fg.uniform[gi] = uniform
			var words []int32
			var masks []uint64
			for _, node := range nodes {
				w := node >> 6
				if len(words) == 0 || words[len(words)-1] != w {
					words = append(words, w)
					masks = append(masks, 0)
				}
				masks[len(masks)-1] |= 1 << (uint(node) & 63)
			}
			fg.maskWords[gi] = words
			fg.maskBits[gi] = masks
		}
		if worst <= int64(tol) {
			continue
		}
		if dp.dpOK {
			dp.addDPSpan(nodes, uniform, tol)
		}
		for i, node := range nodes {
			if counts[i] > tol {
				fg.critical[node] = true
			} else {
				fg.byNode[node] = append(fg.byNode[node], int32(gi))
			}
		}
	}
	if fg.dpOK = dp.dpOK; fg.dpOK { // a rejected reduction keeps nothing
		fg.dpSpans, fg.owner = dp.dpSpans, dp.owner
	}
	return fg
}

// pack lays the reference's per-group slices out as the slab form with its
// enumeration index marked built, so one reflect.DeepEqual compares every
// field of the two builds.
func (r *refFlatGroups) pack(n int) *flatGroups {
	fg := &flatGroups{
		n:          n,
		spanPtr:    []int32{0},
		spanNodes:  []int32{},
		spanCounts: []int32{},
		tolerance:  r.tolerance,
		uniform:    r.uniform,
		maskPtr:    []int32{0},
		maskWords:  []int32{},
		maskBits:   []uint64{},
		critical:   r.critical,
		byNodePtr:  []int32{0},
		byNode:     []int32{},
		dpOK:       r.dpOK,
		dpSpans:    r.dpSpans,
		owner:      r.owner,
	}
	fg.indexOnce.Do(func() {})
	for gi := range r.spanNodes {
		fg.spanNodes = append(fg.spanNodes, r.spanNodes[gi]...)
		fg.spanCounts = append(fg.spanCounts, r.spanCounts[gi]...)
		fg.spanPtr = append(fg.spanPtr, int32(len(fg.spanNodes)))
		fg.maskWords = append(fg.maskWords, r.maskWords[gi]...)
		fg.maskBits = append(fg.maskBits, r.maskBits[gi]...)
		fg.maskPtr = append(fg.maskPtr, int32(len(fg.maskWords)))
	}
	for _, gs := range r.byNode {
		fg.byNode = append(fg.byNode, gs...)
		fg.byNodePtr = append(fg.byNodePtr, int32(len(fg.byNode)))
	}
	return fg
}

// checkAgainstReference asserts that the flat flatten of the groups' span
// form equals the reference flatten of their map form in every field, and
// that the model's probability over the two is bit-equal.
func checkAgainstReference(t *testing.T, label string, mdl *Model, ref []mapGroup) {
	t.Helper()
	groups := make([]Group, len(ref))
	for i, g := range ref {
		groups[i] = g.span()
	}
	got := flatten(groups, mdl.Nodes).indexed()
	want := refFlatten(ref, mdl.Nodes).pack(mdl.Nodes)
	if len(got.dpSpans) == 0 && len(want.dpSpans) == 0 {
		want.dpSpans = got.dpSpans // DeepEqual tells nil from empty
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: flat groups differ from reference\n got %+v\nwant %+v", label, got, want)
	}
	pGot, err := mdl.CatastropheProb(groups)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// The same weighing over the reference's flat form.
	var refProfile Profile
	if err := refProfile.Init(groups, mdl.Nodes, mdl.ExactLimit, mdl.MonteCarloSamples); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	refProfile.fg = want
	pWant, err := refProfile.CatastropheProb(context.Background(), mdl.Mix, mdl.Workers)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if math.Float64bits(pGot) != math.Float64bits(pWant) {
		t.Errorf("%s: CatastropheProb %v (flat) != %v (reference)", label, pGot, pWant)
	}
}

// Hand-built groups: overlapping spans, non-uniform and zero counts, nodes
// outside [0, Nodes) on both sides, groups no failure can destroy.
func TestFlattenMatchesReferenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(150) // crosses the 64-node bitset word boundary
		ref := make([]mapGroup, 1+rng.Intn(24))
		for i := range ref {
			g := mapGroup{MembersOn: map[topology.NodeID]int{}}
			members := 0
			uniform := rng.Intn(2) == 0
			c := rng.Intn(3) + 1
			for j := rng.Intn(6); j >= 0; j-- {
				if !uniform {
					c = rng.Intn(4) // zero-count entries stay in the span
				}
				g.MembersOn[topology.NodeID(rng.Intn(n+6)-3)] += c
				members += c
			}
			g.Tolerance = rng.Intn(members + 2)
			ref[i] = g
		}
		mdl := &Model{Nodes: n, Mix: DefaultMix(), ExactLimit: 2000, MonteCarloSamples: 20_000, Workers: 1}
		checkAgainstReference(t, "random", mdl, ref)
	}
}

// Groups built from ranks under block, round-robin and sparse explicit
// placements: the layouts the disjoint-span reduction accepts, and with
// uneven procs per node the ones it rejects. The two span stages are one
// function: flattenRanks equals flatten of the per-group GroupFromRanks
// values slab for slab, and a profile built either way weighs to the same
// bits through every conditional branch.
func TestFlattenMatchesReferencePlacements(t *testing.T) {
	var branches [4]int
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 4 + rng.Intn(80)
		mach := &topology.Machine{Name: "t", Nodes: nodes}
		ranks := nodes + rng.Intn(4*nodes)
		var p *topology.Placement
		var err error
		switch seed % 3 {
		case 0:
			ppn := (ranks + nodes - 1) / nodes
			p, err = topology.Block(mach, ranks, ppn)
		case 1:
			p, err = topology.RoundRobin(mach, ranks, 1+rng.Intn(nodes))
		default: // sparse used-node set, uneven procs per node
			nodeOf := make([]topology.NodeID, ranks)
			for r := range nodeOf {
				nodeOf[r] = topology.NodeID(rng.Intn(nodes) &^ 1)
			}
			p, err = topology.NewPlacement(mach, nodeOf)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Members in shuffled order, so spans need the sort.
		perm := rng.Perm(ranks)
		size := 2 + rng.Intn(7)
		var members [][]topology.Rank
		if used := p.UsedNodes(); seed%2 == 0 && len(used) >= size {
			// The hierarchical shape: every block of size used nodes hosts
			// groups of one rank per node, so spans are disjoint or equal.
			for base := 0; base+size <= len(used); base += size {
				block := used[base : base+size]
				depth := p.CountOn(block[0])
				for _, n := range block {
					depth = min(depth, p.CountOn(n))
				}
				for i := 0; i < depth; i++ {
					var m []topology.Rank
					for _, k := range rng.Perm(size) {
						m = append(m, p.RanksOn(block[k])[i])
					}
					members = append(members, m)
				}
			}
		} else {
			for base := 0; base < ranks; base += size {
				var m []topology.Rank
				for _, r := range perm[base:min(base+size, ranks)] {
					m = append(m, topology.Rank(r))
				}
				members = append(members, m)
			}
		}
		ref := make([]mapGroup, len(members))
		for i, m := range members {
			ref[i] = refGroupFromRanks(p, m)
		}
		groups := make([]Group, len(members))
		for i, m := range members {
			groups[i] = GroupFromRanks(p, m)
			if want := ref[i].span(); !reflect.DeepEqual(groups[i], want) {
				t.Fatalf("seed %d group %d: %+v, reference %+v", seed, i, groups[i], want)
			}
		}
		mdl := &Model{Nodes: p.NumUsed(), Mix: DefaultMix(), ExactLimit: 2000, MonteCarloSamples: 20_000, Workers: 1}
		checkAgainstReference(t, "placement", mdl, ref)

		// reflect.DeepEqual compares lengths, not capacities: the slabs
		// flattenRanks sizes for one entry per member equal the exact ones.
		if got, want := flattenRanks(p, members).indexed(), flatten(groups, mdl.Nodes).indexed(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: flat form from ranks differs from flatten of the groups\n got %+v\nwant %+v", seed, got, want)
		}
		// The exact budget is small enough that the tail goes through the
		// closed form, the union bound or Monte Carlo, as the layout selects.
		var fromRanks Profile
		if err := fromRanks.InitRanks(p, members, mdl.ExactLimit, mdl.MonteCarloSamples); err != nil {
			t.Fatal(err)
		}
		got, err := fromRanks.CatastropheProb(context.Background(), mdl.Mix, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mdl.CatastropheProb(groups)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("seed %d: CatastropheProb %v from ranks != %v from groups", seed, got, want)
		}
		for f := 1; f <= min(len(mdl.Mix.NodeLoss), mdl.Nodes); f++ {
			branches[conditionalBranch(&fromRanks, f)]++
		}
	}
	t.Logf("conditionals by branch %v: %v", branchNames, branches)
	for i, name := range branchNames {
		if branches[i] == 0 {
			t.Errorf("no seed reached the %s branch", name)
		}
	}
}

// An unsorted or duplicated span is rejected, not silently mis-flattened.
func TestCatastropheProbRejectsUnsortedSpan(t *testing.T) {
	mdl := &Model{Nodes: 8, Mix: DefaultMix()}
	for _, span := range [][]NodeCount{
		{{Node: 3, Count: 1}, {Node: 1, Count: 1}},
		{{Node: 2, Count: 1}, {Node: 2, Count: 1}},
	} {
		if _, err := mdl.CatastropheProb([]Group{{Span: span, Tolerance: 0}}); err == nil {
			t.Errorf("span %v accepted", span)
		}
	}
}

// Both span stages allocate a fixed number of objects, whatever the group
// and node counts.
func TestFlattenAllocsIndependentOfScale(t *testing.T) {
	build := func(nodes int) (*topology.Placement, [][]topology.Rank) {
		mach := &topology.Machine{Name: "t", Nodes: nodes}
		p, err := topology.Block(mach, 4*nodes, 4)
		if err != nil {
			t.Fatal(err)
		}
		var members [][]topology.Rank
		for base := 0; base < nodes; base += 4 {
			for i := 0; i < 4; i++ {
				var m []topology.Rank
				for n := base; n < base+4; n++ {
					m = append(m, topology.Rank(4*n+i))
				}
				members = append(members, m)
			}
		}
		return p, members
	}
	measure := func(nodes int) (ranksAllocs, flattenAllocs float64) {
		p, members := build(nodes)
		groups := make([]Group, len(members))
		for i, m := range members {
			groups[i] = GroupFromRanks(p, m)
		}
		ranksAllocs = testing.AllocsPerRun(5, func() { flattenRanks(p, members) })
		flattenAllocs = testing.AllocsPerRun(5, func() { flatten(groups, nodes) })
		return
	}
	r1, f1 := measure(256)
	r2, f2 := measure(1024)
	if r1 != r2 || f1 != f2 || r1 != f1 {
		t.Errorf("allocations differ: flattenRanks %v -> %v, flatten %v -> %v", r1, r2, f1, f2)
	}
	if f1 > 7 { // the struct, four span slabs, owner, dpSpans
		t.Errorf("flatten %v allocs (want <= 7)", f1)
	}
}
