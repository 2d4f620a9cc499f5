package reliability

import (
	"cmp"
	"context"
	"fmt"
	"maps"
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

// checkAgainstReference asserts that the span stage of the groups' span form,
// indexed, with the reducer's reduction of them equals the reference flatten
// of their map form in every field, and that the model's probability over the
// two is bit-equal.
func checkAgainstReference(t *testing.T, label string, mdl *Model, ref []mapGroup) {
	t.Helper()
	groups := make([]Group, len(ref))
	for i, g := range ref {
		groups[i] = g.span()
	}
	got := flatten(groupSpans{groups, mdl.Nodes}).indexed()
	red := reduceOrFlatten(groupSpans{groups, mdl.Nodes}, nil)
	got.dpOK, got.dpSpans, got.owner = red.dpOK, red.dpSpans, red.owner
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
	refProfile := Profile{exactLimit: mdl.exactLimit, samples: mdl.samples}
	if err := refProfile.Init(groups, mdl.Nodes); err != nil {
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

// Hand-built groups: overlapping spans, non-uniform counts, nodes at both
// ends of [0, Nodes), groups no failure can destroy; and each layout with
// one more member on a node past either end, which the model refuses.
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
					c = 1 + rng.Intn(4)
				}
				g.MembersOn[topology.NodeID((rng.Intn(n+6)-3+n)%n)] += c
				members += c
			}
			g.Tolerance = rng.Intn(members + 2)
			ref[i] = g
		}
		mdl := &Model{Nodes: n, Mix: DefaultMix(), exactLimit: 2000, samples: 20_000, Workers: 1}
		checkAgainstReference(t, "random", mdl, ref)

		off := topology.NodeID(n + rng.Intn(3))
		if rng.Intn(2) == 0 {
			off = topology.NodeID(-1 - rng.Intn(3))
		}
		groups, extra := make([]Group, len(ref)), rng.Intn(len(ref))
		for i, g := range ref {
			if i == extra {
				g.MembersOn = maps.Clone(g.MembersOn)
				g.MembersOn[off]++
			}
			groups[i] = g.span()
		}
		if _, err := mdl.CatastropheProb(groups); err == nil {
			t.Errorf("seed %d: a member on node %d of a %d-node machine accepted", seed, off, n)
		}
	}
}

// referencePlacement draws seed's layout from ranks: a block, round-robin or
// sparse explicit placement (uneven procs per node) and member lists in
// shuffled order, so spans need the sort. Even seeds take the hierarchical
// shape, which the disjoint-span reduction accepts; odd seeds chunk a
// permutation of the ranks, which uneven procs per node make it reject.
func referencePlacement(t *testing.T, seed int64) (*topology.Placement, [][]topology.Rank) {
	t.Helper()
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
	return p, members
}

// groupsFromRanks is GroupFromRanks of every member list.
func groupsFromRanks(p *topology.Placement, members [][]topology.Rank) []Group {
	groups := make([]Group, len(members))
	for i, m := range members {
		groups[i] = GroupFromRanks(p, m)
	}
	return groups
}

// Groups built from ranks under block, round-robin and sparse explicit
// placements: the layouts the disjoint-span reduction accepts, and with
// uneven procs per node the ones it rejects. The two span stages are one
// function: flatten of the member lists equals flatten of the per-group
// GroupFromRanks values slab for slab, and a profile built either way weighs
// to the same bits through every conditional branch.
func TestFlattenMatchesReferencePlacements(t *testing.T) {
	var branches [4]int
	for seed := int64(1); seed <= 30; seed++ {
		p, members := referencePlacement(t, seed)
		ref := make([]mapGroup, len(members))
		for i, m := range members {
			ref[i] = refGroupFromRanks(p, m)
		}
		groups := groupsFromRanks(p, members)
		for i := range groups {
			if want := ref[i].span(); !reflect.DeepEqual(groups[i], want) {
				t.Fatalf("seed %d group %d: %+v, reference %+v", seed, i, groups[i], want)
			}
		}
		mdl := &Model{Nodes: p.NumUsed(), Mix: DefaultMix(), exactLimit: 2000, samples: 20_000, Workers: 1}
		checkAgainstReference(t, "placement", mdl, ref)

		// reflect.DeepEqual compares lengths, not capacities: the slabs
		// flatten sizes for one entry per member equal the exact ones.
		if got, want := flatten(rankSpans{p, members}).indexed(), flatten(groupSpans{groups, mdl.Nodes}).indexed(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: flat form from ranks differs from flatten of the groups\n got %+v\nwant %+v", seed, got, want)
		}
		// The exact budget is small enough that the tail goes through the
		// closed form, the union bound or Monte Carlo, as the layout selects.
		fromRanks := Profile{exactLimit: mdl.exactLimit, samples: mdl.samples}
		if err := fromRanks.InitRanks(p, members); err != nil {
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

// reduceReference is the slab pass the streaming reducer replaced, verbatim:
// the disjoint-span reduction computed, in group order, from a span stage's
// slabs, which it keeps.
func (fg *flatGroups) reduceReference() *flatGroups {
	fg.dpOK = true
	fg.owner = make([]int32, fg.n)
	spans := 0
	for gi := range fg.tolerance {
		nodes, _ := fg.span(int32(gi))
		if _, destroyable := fg.shape(int32(gi)); destroyable && len(nodes) > 0 && fg.owner[nodes[0]] == 0 {
			fg.owner[nodes[0]] = 1
			spans++
		}
	}
	for i := range fg.owner {
		fg.owner[i] = -1
	}
	fg.dpSpans = make([]dpSpan, 0, spans)
	for gi := 0; gi < len(fg.tolerance) && fg.dpOK; gi++ {
		if uniform, destroyable := fg.shape(int32(gi)); destroyable {
			nodes, _ := fg.span(int32(gi))
			fg.addDPSpan(nodes, uniform, fg.tolerance[gi])
		}
	}
	if !fg.dpOK {
		fg.dpSpans, fg.owner = nil, nil
	}
	return fg
}

// checkReduction asserts that the profile an entry point built holds what the
// reference slab pass computes over the layout's span stage (stage builds it
// afresh): the same reduction, no span slabs when the reduction holds and
// exactly the span stage's when it does not, and CatastropheProb's bits with
// and without pair correlation.
func checkReduction(t *testing.T, label string, p *Profile, stage func() *flatGroups) {
	t.Helper()
	got, want := p.fg, stage().reduceReference()
	if got.dpOK != want.dpOK || !reflect.DeepEqual(got.dpSpans, want.dpSpans) || !reflect.DeepEqual(got.owner, want.owner) {
		t.Fatalf("%s: reduction dpOK %v spans %v owner %v, reference dpOK %v spans %v owner %v",
			label, got.dpOK, got.dpSpans, got.owner, want.dpOK, want.dpSpans, want.owner)
	}
	if got.dpOK {
		if got.spanPtr != nil || got.spanNodes != nil || got.spanCounts != nil || got.tolerance != nil {
			t.Fatalf("%s: a product-form profile holds span slabs", label)
		}
	} else if !reflect.DeepEqual(got, want) { // want is the stage's slabs, dpOK false
		t.Fatalf("%s: rejected layout's slabs differ from the span stage\n got %+v\nwant %+v", label, got, want)
	}
	ref := Profile{exactLimit: p.exactLimit, samples: p.samples}
	ref.init(want)
	for _, mix := range []Mix{DefaultMix(), {Transient: 0.05, NodeLoss: []float64{0.6, 0.25, 0.1}, PairCorrelation: 0.5}} {
		pg, err := p.CatastropheProb(context.Background(), mix, 1)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := ref.CatastropheProb(context.Background(), mix, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pg) != math.Float64bits(pw) {
			t.Errorf("%s: CatastropheProb %v, reference %v (pair correlation %v)", label, pg, pw, mix.PairCorrelation)
		}
	}
}

// checkEntryPoints runs checkReduction through InitRanks on the member lists
// and through Init on their GroupFromRanks values. It returns whether the
// reduction held.
func checkEntryPoints(t *testing.T, label string, p *topology.Placement, members [][]topology.Rank) bool {
	t.Helper()
	const exactLimit, samples = 2000, 5000
	fromRanks := Profile{exactLimit: exactLimit, samples: samples}
	fromGroups := Profile{exactLimit: exactLimit, samples: samples}
	if err := fromRanks.InitRanks(p, members); err != nil {
		t.Fatal(err)
	}
	checkReduction(t, label+" InitRanks", &fromRanks, func() *flatGroups { return flatten(rankSpans{p, members}) })
	groups := groupsFromRanks(p, members)
	if err := fromGroups.Init(groups, p.NumUsed()); err != nil {
		t.Fatal(err)
	}
	checkReduction(t, label+" Init", &fromGroups, func() *flatGroups { return flatten(groupSpans{groups, p.NumUsed()}) })
	return fromRanks.fg.dpOK
}

// The streaming reducer equals the slab pass it replaced on the placements
// above, accepting and rejecting, through both entry points.
func TestReductionMatchesReference(t *testing.T) {
	accepted := 0
	for seed := int64(1); seed <= 30; seed++ {
		p, members := referencePlacement(t, seed)
		if checkEntryPoints(t, fmt.Sprintf("seed %d", seed), p, members) {
			accepted++
		}
	}
	if accepted == 0 || accepted == 30 {
		t.Errorf("%d of 30 layouts accepted: both outcomes must be reached", accepted)
	}
}

// reductionLayout decodes a placement and member lists from bytes: 1-16
// machine nodes and 1-48 ranks, each rank on a byte-chosen node (procs per
// node uneven, some nodes unused). A mode byte then picks the groups. Even
// takes the hierarchical shape — blocks of 1-4 used nodes, group i holding
// the i-th rank of every block node, rotated so members arrive unsorted —
// which the reduction accepts. Odd takes 0-12 groups of 0-6 byte-chosen ranks:
// empty groups, unsorted members, partially overlapping spans, non-uniform
// counts. Missing bytes read as zero.
func reductionLayout(t *testing.T, data []byte) (*topology.Placement, [][]topology.Rank) {
	next := func(mod int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0]) % mod
		data = data[1:]
		return b
	}
	nodes, ranks := 1+next(16), 1+next(48)
	nodeOf := make([]topology.NodeID, ranks)
	for r := range nodeOf {
		nodeOf[r] = topology.NodeID(next(nodes))
	}
	p, err := topology.NewPlacement(&topology.Machine{Name: "t", Nodes: nodes}, nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	var members [][]topology.Rank
	if next(2) == 0 {
		used := p.UsedNodes()
		width := min(1+next(4), len(used))
		for base := 0; base+width <= len(used); base += width {
			block := used[base : base+width]
			depth := p.CountOn(block[0])
			for _, n := range block {
				depth = min(depth, p.CountOn(n))
			}
			for i := 0; i < depth; i++ {
				rot := next(width)
				var m []topology.Rank
				for k := range block {
					m = append(m, p.RanksOn(block[(k+rot)%width])[i])
				}
				members = append(members, m)
			}
		}
		return p, members
	}
	for g := next(13); g > 0; g-- {
		m := []topology.Rank{}
		for k := next(7); k > 0; k-- {
			m = append(m, topology.Rank(next(ranks)))
		}
		members = append(members, m)
	}
	return p, members
}

func FuzzReductionMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 15, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 3, 1, 2, 0})    // hierarchical, rotated
	f.Add([]byte{5, 11, 0, 0, 1, 1, 1, 2, 3, 3, 4, 4, 4, 1, 1, 3, 3, 0, 1, 2, 2, 2, 5, 0}) // non-uniform, empty
	f.Add([]byte{3, 7, 0, 1, 2, 3, 0, 1, 2, 3, 1, 2, 2, 0, 1, 2, 1, 2})                    // partial overlap
	f.Fuzz(func(t *testing.T, data []byte) {
		p, members := reductionLayout(t, data)
		checkEntryPoints(t, "fuzz", p, members)
	})
}

// An unsorted or duplicated span, a node listed with no member and a negative
// tolerance are rejected, not silently mis-read: at f = 1 on 4 nodes the
// closed form scores {0:1, 1:1} at tolerance -1 as 1, the enumeration as 0.5.
func TestCatastropheProbRejectsUnsortedSpan(t *testing.T) {
	mdl := &Model{Nodes: 8, Mix: DefaultMix()}
	for _, g := range []Group{
		{Span: []NodeCount{{Node: 3, Count: 1}, {Node: 1, Count: 1}}},
		{Span: []NodeCount{{Node: 2, Count: 1}, {Node: 2, Count: 1}}},
		{Span: []NodeCount{{Node: 0, Count: 1}, {Node: 1, Count: 1}}, Tolerance: -1},
		{Span: []NodeCount{{Node: 0, Count: 1}, {Node: 1, Count: 0}}},
		{Span: []NodeCount{{Node: 0, Count: -2}, {Node: 1, Count: 1}}, Tolerance: 1},
	} {
		if _, err := mdl.CatastropheProb([]Group{g}); err == nil {
			t.Errorf("group %+v accepted", g)
		}
	}
}

// A span node outside the machine is rejected, not scored as a node that
// never fails: on 4 nodes under two-node failures, {2, 9} and {0, 1} at
// tolerance 1 would read as P(cat) 1/6 — only {0, 1} can be lost whole.
func TestCatastropheProbRejectsNodeOutsideMachine(t *testing.T) {
	mdl := &Model{Nodes: 4, Mix: Mix{NodeLoss: []float64{0, 1}}}
	inside := Group{Span: []NodeCount{{Node: 0, Count: 1}, {Node: 1, Count: 1}}, Tolerance: 1}
	if _, err := mdl.CatastropheProb([]Group{inside}); err != nil {
		t.Fatalf("a layout inside the machine: %v", err)
	}
	for _, g := range []Group{
		{Span: []NodeCount{{Node: 2, Count: 1}, {Node: 9, Count: 1}}, Tolerance: 1},
		{Span: []NodeCount{{Node: 2, Count: 1}, {Node: 4, Count: 1}}, Tolerance: 1},
		{Span: []NodeCount{{Node: -1, Count: 1}, {Node: 1, Count: 1}}, Tolerance: 1},
	} {
		groups := []Group{g, inside}
		if pc, err := mdl.CatastropheProb(groups); err == nil {
			t.Errorf("Model.CatastropheProb accepted %+v on %d nodes: P(cat) %g", g, mdl.Nodes, pc)
		}
		var p Profile
		if err := p.Init(groups, mdl.Nodes); err == nil {
			t.Errorf("Profile.Init accepted %+v on %d nodes", g, mdl.Nodes)
		}
	}
}

// The reducer allocates a fixed number of objects (the struct, owner, dpSpans
// and its scratch buffer), and so do the span stages, whatever the group and
// node counts.
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
	type allocs struct{ reduceRanks, reduceGroups, flattenRanks, flattenGroups float64 }
	measure := func(nodes int) (a allocs) {
		p, members := build(nodes)
		groups := groupsFromRanks(p, members)
		if !reduceOrFlatten(rankSpans{p, members}, nil).dpOK {
			t.Fatal("hierarchical layout rejected by the reduction")
		}
		a.reduceRanks = testing.AllocsPerRun(5, func() { reduceOrFlatten(rankSpans{p, members}, nil) })
		a.reduceGroups = testing.AllocsPerRun(5, func() { reduceOrFlatten(groupSpans{groups, nodes}, nil) })
		a.flattenRanks = testing.AllocsPerRun(5, func() { flatten(rankSpans{p, members}) })
		a.flattenGroups = testing.AllocsPerRun(5, func() { flatten(groupSpans{groups, nodes}) })
		return
	}
	small, large := measure(256), measure(1024)
	if small != large {
		t.Errorf("allocations grow with scale: %+v at 256 nodes, %+v at 1024", small, large)
	}
	if small.reduceRanks > 4 || small.reduceGroups > 4 {
		t.Errorf("reducer allocs %+v (want <= 4: the struct, owner, dpSpans, the buffer)", small)
	}
	if small.flattenRanks > 5 || small.flattenGroups > 5 {
		t.Errorf("span stage allocs %+v (want <= 5: the struct and four slabs)", small)
	}
}

// disjointConditional is the per-f closed form productConditionals replaced,
// verbatim: a convolution truncated at degree f for each failure count f,
// with C(size, j) computed per span, j and f. It is the oracle the one
// convolution is held to with ==.
func (fg *flatGroups) disjointConditional(n, f, exactLimit int) float64 {
	var polyBuf, nextBuf [memoF + 1]float64 // a remembered f needs no heap
	var poly, next []float64
	if f <= memoF {
		poly, next = polyBuf[:f+1], nextBuf[:f+1]
	} else {
		poly, next = make([]float64, f+1), make([]float64, f+1)
	}
	poly[0] = 1
	constrained := 0
	for _, sp := range fg.dpSpans {
		size := int(sp.size)
		constrained += size
		maxJ := min(int(sp.thresh)-1, size, f)
		for d := range next {
			next[d] = 0
		}
		for j := 0; j <= maxJ; j++ {
			ways := combinations(size, j)
			for d := j; d <= f; d++ {
				next[d] += poly[d-j] * ways
			}
		}
		poly, next = next, poly
	}
	free := n - constrained
	var safe float64
	for d := 0; d <= f; d++ {
		safe += poly[d] * combinations(free, f-d)
	}
	total := combinations(n, f)
	if total == 0 {
		return 0
	}
	if total <= float64(exactLimit) {
		return (total - safe) / total
	}
	p := 1 - safe/total
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// productSpans draws a reduction of count spans — one repeated size, two
// alternating sizes or a fresh size per span, 1-12 nodes each, thresholds
// 1..size+1 (the top one never reached) — beside free unconstrained nodes.
func productSpans(rng *rand.Rand, sizing, count, free int) *flatGroups {
	a := int32(1 + rng.Intn(12))
	b := a%12 + 1 // differs from a
	fg := &flatGroups{n: free, dpOK: true}
	for i := range count {
		size := a
		switch sizing {
		case 1:
			size = [2]int32{a, b}[i%2]
		case 2:
			size = int32(1 + rng.Intn(12))
		}
		fg.dpSpans = append(fg.dpSpans, dpSpan{size: size, thresh: 1 + rng.Int31n(size+1)})
		fg.n += int(size)
	}
	return fg
}

// One convolution answers every failure count with the bits of the per-f
// closed form: at the remembered degree min(memoF, n) and at a degree past
// memoF, under budgets below, at and above every C(n, f), on machines of a
// handful to ≈40k nodes.
func TestProductConditionalsMatchPerF(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	var below, above, past int
	for i := range 120 {
		free := [4]int{0, rng.Intn(8), rng.Intn(400), 20_000 + rng.Intn(20_000)}[i/3%4]
		fg := productSpans(rng, i%3, 1+rng.Intn(24), free)
		n := fg.n
		degrees := []int{min(memoF, n)}
		if n > memoF {
			degrees = append(degrees, memoF+1+rng.Intn(min(8, n-memoF)))
			past++
		}
		for _, limit := range []int{0, defaultExactLimit, math.MaxInt} {
			for _, top := range degrees {
				out := make([]float64, top)
				fg.productConditionals(n, limit, out)
				for f := 1; f <= top; f++ {
					want := fg.disjointConditional(n, f, limit)
					if math.Float64bits(out[f-1]) != math.Float64bits(want) {
						t.Fatalf("%d nodes, spans %v, limit %d, degree %d: f=%d reads %v, per-f form %v",
							n, fg.dpSpans, limit, top, f, out[f-1], want)
					}
					if limit == defaultExactLimit && combinations(n, f) <= float64(limit) {
						below++
					} else if limit == defaultExactLimit {
						above++
					}
				}
			}
		}
	}
	if below == 0 || above == 0 || past == 0 {
		t.Errorf("%d (f, layout) pairs within the default budget, %d past it, %d layouts past memoF: every side must be reached", below, above, past)
	}
}

// One weighing of a product-form profile with a one-entry mix remembers the
// conditional of every f up to min(memoF, nodes), each the per-f form's bits,
// and leaves the aligned-pair term alone.
func TestProductFormRemembersEveryF(t *testing.T) {
	for _, nodes := range []int{6, 64} {
		groups := tableIIGroups("hierarchical-64-4")
		if nodes < 64 {
			groups = []Group{groupOf(map[topology.NodeID]int{1: 1, 2: 1, 3: 1}, 1)}
		}
		var p Profile
		if err := p.Init(groups, nodes); err != nil {
			t.Fatal(err)
		}
		if _, err := p.CatastropheProb(context.Background(), Mix{NodeLoss: []float64{1}}, 1); err != nil {
			t.Fatal(err)
		}
		top := min(memoF, nodes)
		if want := uint32(1)<<top - 1; p.have != want {
			t.Errorf("%d nodes: have %#x after an f=1 weighing, want %#x", nodes, p.have, want)
		}
		if p.cond[memoF] != 0 {
			t.Errorf("%d nodes: aligned-pair term written: %v", nodes, p.cond[memoF])
		}
		for f := 1; f <= top; f++ {
			if want := p.fg.disjointConditional(nodes, f, p.exactLimit); math.Float64bits(p.cond[f-1]) != math.Float64bits(want) {
				t.Errorf("%d nodes: remembered f=%d %v, per-f form %v", nodes, f, p.cond[f-1], want)
			}
		}
	}
}
