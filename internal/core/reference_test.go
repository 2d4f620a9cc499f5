package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"hierclust/internal/reliability"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
)

// Reference implementations: the map- and append-based group construction
// the slab-carved Clustering.Groups replaced, kept here so the differential
// tests pin group contents and order to it (the
// internal/graph/reference_test.go idiom).

// refSplitSubgroups partitions nodes into consecutive sub-groups of at
// least `size` nodes each, as equal as possible.
func refSplitSubgroups(nodes []topology.NodeID, size int) [][]topology.NodeID {
	n := len(nodes)
	if n == 0 {
		return nil
	}
	k := n / size
	if k == 0 {
		k = 1
	}
	base := n / k
	extra := n % k
	var out [][]topology.NodeID
	pos := 0
	for i := 0; i < k; i++ {
		sz := base
		if i < extra {
			sz++
		}
		out = append(out, nodes[pos:pos+sz])
		pos += sz
	}
	return out
}

// refHierGroups rebuilds Hierarchical's L2 groups from its L1 assignment
// the way the map-based version did: nodes bucketed in a map by cluster,
// cluster ids and buckets sorted, groups grown by append.
func refHierGroups(l1 []int32, p *topology.Placement, subgroupNodes int) [][]topology.Rank {
	byCluster := map[int32][]topology.NodeID{}
	for _, n := range p.UsedNodes() {
		id := l1[p.RanksOn(n)[0]] // all ranks of a node share its cluster
		byCluster[id] = append(byCluster[id], n)
	}
	clusterIDs := make([]int32, 0, len(byCluster))
	for id := range byCluster {
		clusterIDs = append(clusterIDs, id)
	}
	sort.Slice(clusterIDs, func(a, b int) bool { return clusterIDs[a] < clusterIDs[b] })
	var groups [][]topology.Rank
	for _, id := range clusterIDs {
		nodes := byCluster[id]
		sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
		for _, sub := range refSplitSubgroups(nodes, subgroupNodes) {
			width := 0
			for _, n := range sub {
				if w := p.CountOn(n); width == 0 || w < width {
					width = w
				}
			}
			for i := 0; i < width; i++ {
				var g []topology.Rank
				for _, n := range sub {
					g = append(g, p.RanksOn(n)[i])
				}
				groups = append(groups, g)
			}
			for _, n := range sub {
				for i := width; i < p.CountOn(n); i++ {
					gidx := len(groups) - width + i%width
					groups[gidx] = append(groups[gidx], p.RanksOn(n)[i])
				}
			}
		}
	}
	return groups
}

// refConsecutiveGroups and refDistributedGroups are the append-grown flat
// strategies' groups.
func refConsecutiveGroups(nranks, size int) [][]topology.Rank {
	var groups [][]topology.Rank
	for base := 0; base < nranks; base += size {
		var g []topology.Rank
		for r := base; r < base+size && r < nranks; r++ {
			g = append(g, topology.Rank(r))
		}
		groups = append(groups, g)
	}
	return groups
}

func refDistributedGroups(nranks, size int) [][]topology.Rank {
	k := nranks / size
	if k == 0 {
		k = 1
	}
	groups := make([][]topology.Rank, k)
	for r := 0; r < nranks; r++ {
		groups[r%k] = append(groups[r%k], topology.Rank(r))
	}
	return groups
}

// checkCarved asserts the groups are exactly want (order included) and that
// no group header can reach its neighbour's ranks through append.
func checkCarved(t *testing.T, label string, got, want [][]topology.Rank) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: groups differ from reference\n got %v\nwant %v", label, got, want)
	}
	for gi, g := range got {
		if cap(g) != len(g) {
			t.Fatalf("%s: group %d has len %d, cap %d: an append would overwrite its neighbour",
				label, gi, len(g), cap(g))
		}
	}
}

// randomPlacement draws a block, round-robin or explicit placement; the
// explicit ones leave nodes unused and put uneven rank counts on the rest.
func randomPlacement(t *testing.T, rng *rand.Rand) *topology.Placement {
	t.Helper()
	nodes := 8 + rng.Intn(56)
	mach := &topology.Machine{Name: "t", Nodes: nodes, PowerPairs: rng.Intn(2) == 0}
	var p *topology.Placement
	var err error
	switch rng.Intn(3) {
	case 0:
		ppn := 1 + rng.Intn(6)
		p, err = topology.Block(mach, nodes*ppn-rng.Intn(ppn), ppn) // last node may be short
	case 1:
		p, err = topology.RoundRobin(mach, nodes+rng.Intn(5*nodes), 4+rng.Intn(nodes-3))
	default:
		live := make([]topology.NodeID, 0, nodes)
		for n := 0; n < nodes; n++ {
			if rng.Intn(4) != 0 {
				live = append(live, topology.NodeID(n))
			}
		}
		for len(live) < 4 {
			live = append(live, topology.NodeID(len(live)))
		}
		nodeOf := make([]topology.NodeID, len(live)+rng.Intn(6*len(live)))
		for r := range nodeOf {
			if r < len(live) {
				nodeOf[r] = live[r] // every live node hosts at least one rank
			} else {
				nodeOf[r] = live[rng.Intn(len(live))]
			}
		}
		p, err = topology.NewPlacement(mach, nodeOf)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randomTrace draws an asymmetric sparse trace with some zero-byte cells.
func randomTrace(rng *rand.Rand, n int) *trace.CSR {
	rec := trace.NewRecorder(n)
	for r := 0; r < n; r++ {
		for k := rng.Intn(4); k > 0; k-- {
			d := (r + 1 + rng.Intn(8)) % n
			rec.Record(r, d, rng.Intn(5)*1000) // 0 one time in five
		}
	}
	return rec.Freeze()
}

func TestHierarchicalGroupsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomPlacement(t, rng)
		m := randomTrace(rng, p.NumRanks())
		opts := HierOptions{
			MinNodesPerL1:   2 + rng.Intn(3),
			SubgroupNodes:   1 + rng.Intn(5),
			AlignPowerPairs: rng.Intn(2) == 0,
			Multilevel:      rng.Intn(2) == 0,
		}
		if len(p.UsedNodes()) < opts.MinNodesPerL1 {
			continue
		}
		c, err := Hierarchical(m, p, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := c.Validate(p.NumRanks()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkCarved(t, "hierarchical", c.Groups, refHierGroups(c.L1, p, opts.SubgroupNodes))
	}
}

func TestFlatStrategyGroupsMatchReference(t *testing.T) {
	for _, nranks := range []int{1, 7, 64, 100, 1023} {
		for _, size := range []int{1, 3, 8, 32} {
			if size > nranks {
				continue
			}
			c, err := Naive(nranks, size)
			if err != nil {
				t.Fatal(err)
			}
			checkCarved(t, "consecutive", c.Groups, refConsecutiveGroups(nranks, size))
			d, err := Distributed(nranks, size)
			if err != nil {
				t.Fatal(err)
			}
			checkCarved(t, "distributed", d.Groups, refDistributedGroups(nranks, size))
			for r, id := range d.L1 {
				if int(id) != r%len(d.Groups) {
					t.Fatalf("distributed L1[%d] = %d", r, id)
				}
			}
		}
	}
}

// A third-party strategy's sparse cluster id must fail validation instead
// of sizing the cluster-size array (and every stamp array) by the id.
func TestValidateRejectsSparseClusterID(t *testing.T) {
	c := &Clustering{Name: "sparse", L1: []int32{0, 1 << 30, 0, 0}, Groups: [][]topology.Rank{{0, 2, 3}}}
	if err := c.Validate(4); err == nil {
		t.Fatal("accepted L1 id 1<<30 for 4 ranks")
	}
	c.L1[1] = 4 // ids are dense: the largest legal one is nranks-1
	if err := c.Validate(4); err == nil {
		t.Fatal("accepted L1 id 4 for 4 ranks")
	}
	c.L1[1] = 3
	if err := c.Validate(4); err != nil {
		t.Fatalf("rejected L1 id 3 for 4 ranks: %v", err)
	}
	mach := &topology.Machine{Name: "t", Nodes: 2}
	p, err := topology.Block(mach, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.L1[1] = 1 << 30
	if _, err := RecoveryFraction(c, p); err == nil {
		t.Fatal("RecoveryFraction accepted L1 id 1<<30")
	}
	if _, err := Evaluate(c, trace.NewRecorder(4).Freeze(), p, reliability.DefaultMix()); err == nil {
		t.Fatal("Evaluate accepted L1 id 1<<30")
	}
}

// EvaluateOpts validates once and scores through the unexported recovery
// path; the exported RecoveryFraction must agree bit for bit.
func TestEvaluateRecoveryMatchesExported(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomPlacement(t, rng)
		m := randomTrace(rng, p.NumRanks())
		c, err := Hierarchical(m, p, HierOptions{MinNodesPerL1: 2})
		if err != nil {
			t.Fatal(err)
		}
		e, err := Evaluate(c, m, p, reliability.DefaultMix())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := RecoveryFraction(c, p)
		if err != nil {
			t.Fatal(err)
		}
		if e.RecoveryFraction != rec {
			t.Errorf("seed %d: Evaluate recovery %v, RecoveryFraction %v", seed, e.RecoveryFraction, rec)
		}
	}
}

// One profile weighed with several mixes, in either order, returns for each
// the Evaluation a fresh EvaluateOpts returns; a warm profile allocates
// nothing a cold one does not.
func TestProfileEvaluateMatchesEvaluateOpts(t *testing.T) {
	mixes := []reliability.Mix{
		reliability.DefaultMix(),
		{Transient: 0.3, NodeLoss: []float64{0.5, 0.1, 0, 0.1}, PairCorrelation: 0.4},
		{NodeLoss: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
	}
	for i := range mixes {
		mixes[i].Normalize()
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomPlacement(t, rng)
		m := randomTrace(rng, p.NumRanks())
		c, err := Hierarchical(m, p, HierOptions{MinNodesPerL1: 2})
		if err != nil {
			t.Fatal(err)
		}
		var pr Profile
		if err := pr.Init(context.Background(), c, p); err != nil {
			t.Fatal(err)
		}
		logged, err := m.LoggedFraction(c.L1)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{2, 0, 1, 0} {
			want, err := EvaluateOpts(c, m, p, mixes[i], EvalOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			got, err := pr.Evaluate(context.Background(), mixes[i], 2)
			if err != nil {
				t.Fatal(err)
			}
			got.LoggedFraction = logged
			if got != *want {
				t.Errorf("seed %d mix %d: profile %+v, EvaluateOpts %+v", seed, i, got, *want)
			}
		}
		if warm := testing.AllocsPerRun(3, func() { pr.Evaluate(context.Background(), mixes[0], 1) }); warm != 0 {
			t.Errorf("seed %d: weighing a warm profile allocates %v objects", seed, warm)
		}
	}
}

// The glue allocates a fixed number of objects whatever the rank count: a
// reintroduced per-node or per-group allocation adds at least one object
// per extra node (768 between the two sizes) and fails here.
func TestGlueAllocsIndependentOfRanks(t *testing.T) {
	// One P: the partitioner's parallel phases allocate per worker.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(ranks int) (hier, eval float64) {
		mach := &topology.Machine{Name: "t", Nodes: ranks / 4}
		p, err := topology.Block(mach, ranks, 4)
		if err != nil {
			t.Fatal(err)
		}
		m, err := trace.Synthetic(ranks, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: 4})
		if err != nil {
			t.Fatal(err)
		}
		opts := HierOptions{Multilevel: true}
		c, err := Hierarchical(m, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		mix := reliability.DefaultMix()
		hier = testing.AllocsPerRun(3, func() {
			if _, err := Hierarchical(m, p, opts); err != nil {
				t.Fatal(err)
			}
		})
		eval = testing.AllocsPerRun(3, func() {
			if _, err := EvaluateOpts(c, m, p, mix, EvalOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
		return
	}
	h1, e1 := measure(1024)
	h4, e4 := measure(4096)
	t.Logf("allocs: Hierarchical %v -> %v, EvaluateOpts %v -> %v", h1, h4, e1, e4)
	const slack = 32 // the multilevel partitioner may add a coarsening level
	if h4 > h1+slack {
		t.Errorf("Hierarchical allocations grow with ranks: %v at 1024, %v at 4096", h1, h4)
	}
	if e4 > e1+slack {
		t.Errorf("EvaluateOpts allocations grow with ranks: %v at 1024, %v at 4096", e1, e4)
	}
}

// A placement that leaves nodes unused between the used ones scores like the
// same layout on adjacent nodes: encoding-group spans are numbered by
// Placement.UsedIndex, the numbering the model's node count comes from. With
// raw node ids the upper half of every span fell outside the model and the
// gapped layout scored P(catastrophe) = 0. PairCorrelation stays 0: the
// aligned-pair term pairs nodes in the dense numbering.
func TestGappedPlacementScoresLikeDense(t *testing.T) {
	mach := &topology.Machine{Name: "t", Nodes: 16}
	place := func(stride int) *topology.Placement {
		nodeOf := make([]topology.NodeID, 32)
		for r := range nodeOf {
			nodeOf[r] = topology.NodeID(r / 4 * stride)
		}
		p, err := topology.NewPlacement(mach, nodeOf)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	c, err := Distributed(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := randomTrace(rand.New(rand.NewSource(1)), 32)
	dense, err := Evaluate(c, m, place(1), reliability.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	gapped, err := Evaluate(c, m, place(2), reliability.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	if dense.CatastropheProb <= 0 || *gapped != *dense {
		t.Errorf("nodes {0,2,..,14} score %+v, nodes {0..7} score %+v", *gapped, *dense)
	}
}

// Profile.Init allocates a fixed number of objects whatever the rank and
// group counts: the reliability model's flat form is slabs, filled from the
// member lists with no per-group value in between (the []Group and its
// NodeCount slab were two more) and, under the product form, without the
// enumeration index (eight more, seven for naive's one-node groups).
func TestProfileInitAllocsFixed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(ranks int) (hier, naive float64) {
		mach := &topology.Machine{Name: "t", Nodes: ranks / 4}
		p, err := topology.Block(mach, ranks, 4)
		if err != nil {
			t.Fatal(err)
		}
		m, err := trace.NewStencil(ranks, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: 4})
		if err != nil {
			t.Fatal(err)
		}
		h, err := Hierarchical(m, p, HierOptions{Multilevel: true})
		if err != nil {
			t.Fatal(err)
		}
		n, err := Naive(ranks, 4)
		if err != nil {
			t.Fatal(err)
		}
		initAllocs := func(c *Clustering) float64 {
			return testing.AllocsPerRun(3, func() {
				var pr Profile
				if err := pr.Init(context.Background(), c, p); err != nil {
					t.Fatal(err)
				}
			})
		}
		return initAllocs(h), initAllocs(n)
	}
	h1, n1 := measure(4096)
	h2, n2 := measure(16384)
	t.Logf("Profile.Init allocs: hierarchical %v -> %v, naive %v -> %v", h1, h2, n1, n2)
	if h1 != h2 || n1 != n2 {
		t.Errorf("Profile.Init allocations depend on scale: hierarchical %v -> %v, naive %v -> %v", h1, h2, n1, n2)
	}
	if h1 > 10 || n1 > 10 {
		t.Errorf("Profile.Init allocates %v (hierarchical) and %v (naive) objects, want <= 10 and <= 10", h1, n1)
	}
}
