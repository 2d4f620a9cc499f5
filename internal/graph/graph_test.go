package graph

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// edges is the undirected edge list every test graph is built from: add
// appends {u,v} (zero weights skipped, as Quotient skips them) and graph
// hands the list to fromEdges, which sums repeated edges in list order.
type edges struct {
	n      int
	eu, ev []int32
	ew     []float64
}

func newEdges(n int) *edges { return &edges{n: n} }

func (e *edges) add(u, v int, w float64) {
	if w != 0 {
		e.eu, e.ev, e.ew = append(e.eu, int32(u)), append(e.ev, int32(v)), append(e.ew, w)
	}
}

func (e *edges) graph() *Graph { return fromEdges(e.n, e.eu, e.ev, e.ew) }

func ring(n int, w float64) *Graph {
	e := newEdges(n)
	for i := 0; i < n; i++ {
		e.add(i, (i+1)%n, w)
	}
	return e.graph()
}

// path returns a path graph 0-1-2-...-n-1, the topology of the tsunami
// application's slab-decomposed communication.
func path(n int, w float64) *Graph {
	e := newEdges(n)
	for i := 0; i+1 < n; i++ {
		e.add(i, i+1, w)
	}
	return e.graph()
}

// communityGraph is groups dense k-vertex communities (each pair linked
// with probability 0.8, float weights) joined by sparse light noise.
func communityGraph(k, groups int) *Graph {
	rng := rand.New(rand.NewSource(7))
	e := newEdges(k * groups)
	for grp := 0; grp < groups; grp++ {
		base := grp * k
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				if rng.Float64() < 0.8 {
					e.add(base+a, base+b, 1+rng.Float64())
				}
			}
		}
	}
	for i := 0; i < 40; i++ {
		u, v := rng.Intn(k*groups), rng.Intn(k*groups)
		if u/k != v/k {
			e.add(u, v, 0.2)
		}
	}
	return e.graph()
}

func TestFromEdgesCoalesceAndWeight(t *testing.T) {
	e := newEdges(4)
	e.add(0, 1, 2.5)
	e.add(1, 0, 1.5)
	e.add(2, 3, 0) // zero-weight edges are skipped
	g := e.graph()
	if got := g.Weight(0, 1); got != 4 {
		t.Errorf("Weight(0,1) = %g, want 4", got)
	}
	if got := g.Weight(1, 0); got != 4 {
		t.Errorf("Weight(1,0) = %g, want 4 (undirected)", got)
	}
	if got := g.Weight(2, 3); got != 0 {
		t.Errorf("Weight(2,3) = %g, want 0", got)
	}
	if g.Degree(2) != 0 {
		t.Error("zero-weight edge created an edge")
	}
}

// A built Graph has no lock and nothing lazy left to fill, so readers on
// several goroutines at once — a quotient, its cached aggregates and a
// partition of it — race on nothing and agree with a serial run (-race).
func TestConcurrentReads(t *testing.T) {
	g := communityGraph(8, 6)
	pairs := make([]int, g.N())
	for v := range pairs {
		pairs[v] = v / 2
	}
	opts := PartitionOptions{MinSize: 4, TargetSize: 4}
	read := func() (float64, string, error) {
		q, err := g.Quotient(pairs, g.N()/2)
		if err != nil {
			return 0, "", err
		}
		part, err := Partition(q, opts)
		return q.TotalWeight() + g.Strength(3), hashAssignment(part), err
	}
	wantW, wantPart, err := read()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, part, err := read()
			if err != nil || w != wantW || part != wantPart {
				t.Errorf("concurrent read: %v, %s, %v; serial %v, %s", w, part, err, wantW, wantPart)
			}
		}()
	}
	wg.Wait()
}

func TestSelfLoop(t *testing.T) {
	e := newEdges(2)
	e.add(0, 0, 3)
	g := e.graph()
	if got := g.Weight(0, 0); got != 3 {
		t.Errorf("self-loop weight = %g, want 3", got)
	}
	if g.Degree(0) != 0 {
		t.Errorf("Degree with only a self-loop = %d, want 0", g.Degree(0))
	}
	if g.Strength(0) != 3 {
		t.Errorf("Strength = %g, want 3", g.Strength(0))
	}
	if g.TotalWeight() != 3 {
		t.Errorf("TotalWeight = %g, want 3", g.TotalWeight())
	}
}

func TestDegreeStrengthTotals(t *testing.T) {
	g := ring(5, 2)
	for i := 0; i < 5; i++ {
		if g.Degree(i) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", i, g.Degree(i))
		}
		if g.Strength(i) != 4 {
			t.Errorf("Strength(%d) = %g, want 4", i, g.Strength(i))
		}
	}
	if g.TotalWeight() != 10 {
		t.Errorf("TotalWeight = %g, want 10", g.TotalWeight())
	}
	if g.EdgeCount() != 5 {
		t.Errorf("EdgeCount = %d, want 5", g.EdgeCount())
	}
	nb := g.Neighbors(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 4 {
		t.Errorf("Neighbors(0) = %v, want [1 4]", nb)
	}
}

func TestQuotient(t *testing.T) {
	// Process graph: 4 procs, 2 per node; heavy intra-node, light inter.
	e := newEdges(4)
	e.add(0, 1, 10) // node 0 internal
	e.add(2, 3, 10) // node 1 internal
	e.add(1, 2, 1)  // crossing
	g := e.graph()
	q, err := g.Quotient([]int{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Weight(0, 1); got != 1 {
		t.Errorf("quotient cross weight = %g, want 1", got)
	}
	if got := q.Weight(0, 0); got != 10 {
		t.Errorf("quotient self-loop(0) = %g, want 10", got)
	}
	if _, err := g.Quotient([]int{0, 0, 1}, 2); err == nil {
		t.Error("Quotient accepted short mapping")
	}
	if _, err := g.Quotient([]int{0, 0, 1, 5}, 2); err == nil {
		t.Error("Quotient accepted out-of-range part id")
	}
}

func TestCutWeight(t *testing.T) {
	g := path(8, 1)
	cut, err := g.CutWeight([]int{0, 0, 0, 0, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if cut != 1 {
		t.Errorf("cut = %g, want 1 (single crossing edge)", cut)
	}
	cut, _ = g.CutWeight([]int{0, 1, 0, 1, 0, 1, 0, 1})
	if cut != 7 {
		t.Errorf("alternating cut = %g, want 7 (all edges)", cut)
	}
	if _, err := g.CutWeight([]int{0}); err == nil {
		t.Error("CutWeight accepted short assignment")
	}
}

func TestModularityTwoCliques(t *testing.T) {
	// Two 4-cliques joined by one edge: the canonical high-modularity graph.
	e := newEdges(8)
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			e.add(a, b, 1)
			e.add(a+4, b+4, 1)
		}
	}
	e.add(3, 4, 1)
	g := e.graph()
	good, err := g.Modularity([]int{0, 0, 0, 0, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := g.Modularity([]int{0, 1, 0, 1, 0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if good <= bad {
		t.Errorf("modularity: community split %g should exceed alternating split %g", good, bad)
	}
	if good < 0.3 || good > 0.6 {
		t.Errorf("two-clique modularity = %g, want ~0.42", good)
	}
	single, _ := g.Modularity(make([]int, 8))
	if math.Abs(single) > 1e-12 {
		t.Errorf("single-cluster modularity = %g, want 0", single)
	}
}

func TestModularityEmptyGraph(t *testing.T) {
	g := newEdges(3).graph()
	q, err := g.Modularity([]int{0, 1, 2})
	if err != nil || q != 0 {
		t.Errorf("edgeless modularity = %g, %v; want 0, nil", q, err)
	}
	if _, err := g.Modularity([]int{0}); err == nil {
		t.Error("Modularity accepted short assignment")
	}
}

func TestDegreeDistribution(t *testing.T) {
	g := path(5, 1) // degrees 1,2,2,2,1
	st := g.DegreeDistribution()
	if st.Min != 1 || st.Max != 2 {
		t.Errorf("min/max = %d/%d, want 1/2", st.Min, st.Max)
	}
	if math.Abs(st.Mean-1.6) > 1e-12 {
		t.Errorf("mean = %g, want 1.6", st.Mean)
	}
	if st.Hist[1] != 2 || st.Hist[2] != 3 {
		t.Errorf("hist = %v, want [_ 2 3]", st.Hist)
	}
	empty := newEdges(0).graph()
	if st := empty.DegreeDistribution(); st.Max != 0 || st.Mean != 0 {
		t.Errorf("empty graph stats = %+v", st)
	}
}

func TestPartitionPathGraph(t *testing.T) {
	// A 16-vertex path partitioned with MinSize=4 should yield contiguous
	// runs: the minimal cut for bounded sizes.
	g := path(16, 1)
	part, err := Partition(g, PartitionOptions{MinSize: 4, TargetSize: 4, MaxSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if NumParts(part) != 4 {
		t.Fatalf("parts = %d, want 4 (assignment %v)", NumParts(part), part)
	}
	for _, s := range PartSizes(part) {
		if s != 4 {
			t.Fatalf("sizes = %v, want all 4", PartSizes(part))
		}
	}
	cut, _ := g.CutWeight(part)
	if cut != 3 {
		t.Errorf("path cut = %g, want 3 (assignment %v)", cut, part)
	}
	// Contiguity: every part's members must be consecutive integers.
	for _, mem := range Members(part) {
		for i := 1; i < len(mem); i++ {
			if mem[i] != mem[i-1]+1 {
				t.Errorf("non-contiguous part %v on a path graph", mem)
			}
		}
	}
}

func TestPartitionRespectsMinSize(t *testing.T) {
	g := ring(10, 1)
	part, err := Partition(g, PartitionOptions{MinSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	for id, s := range PartSizes(part) {
		if s < 3 {
			t.Errorf("part %d has size %d < MinSize 3 (%v)", id, s, part)
		}
	}
}

func TestPartitionSingleCluster(t *testing.T) {
	g := ring(4, 1)
	part, err := Partition(g, PartitionOptions{MinSize: 4, TargetSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if NumParts(part) != 1 {
		t.Errorf("want single part, got %v", part)
	}
}

func TestPartitionDisconnected(t *testing.T) {
	// Two disconnected 4-cliques with MinSize 4: each clique becomes a part.
	e := newEdges(8)
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			e.add(a, b, 1)
			e.add(a+4, b+4, 1)
		}
	}
	g := e.graph()
	part, err := Partition(g, PartitionOptions{MinSize: 4, TargetSize: 4, MaxSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if NumParts(part) != 2 {
		t.Fatalf("parts = %d, want 2", NumParts(part))
	}
	cut, _ := g.CutWeight(part)
	if cut != 0 {
		t.Errorf("cut = %g, want 0 for disconnected cliques (%v)", cut, part)
	}
}

func TestPartitionErrors(t *testing.T) {
	g := ring(4, 1)
	if _, err := Partition(g, PartitionOptions{MinSize: 8}); err == nil {
		t.Error("Partition accepted MinSize > N")
	}
	if _, err := Partition(g, PartitionOptions{MinSize: 2, TargetSize: 1}); err == nil {
		t.Error("Partition accepted TargetSize < MinSize")
	}
	if _, err := Partition(g, PartitionOptions{MinSize: 2, TargetSize: 2, MaxSize: 1}); err == nil {
		t.Error("Partition accepted MaxSize < TargetSize")
	}
	empty := newEdges(0).graph()
	part, err := Partition(empty, PartitionOptions{})
	if err != nil || len(part) != 0 {
		t.Errorf("empty partition = %v, %v", part, err)
	}
}

func TestPartitionImprovesOverRandom(t *testing.T) {
	// On a community-structured graph the partitioner must beat a random
	// assignment of equal part sizes.
	const k, groups = 8, 6
	g := communityGraph(k, groups)
	part, err := Partition(g, PartitionOptions{MinSize: k, TargetSize: k, MaxSize: k})
	if err != nil {
		t.Fatal(err)
	}
	cut, _ := g.CutWeight(part)
	randPart := make([]int, k*groups)
	for i := range randPart {
		randPart[i] = i % groups
	}
	randCut, _ := g.CutWeight(randPart)
	if cut >= randCut {
		t.Errorf("partitioner cut %g not better than round-robin cut %g", cut, randCut)
	}
}

// Property: Partition always returns a dense assignment covering all
// vertices with every part size >= MinSize (when feasible).
func TestPartitionInvariantsProperty(t *testing.T) {
	f := func(seed int64, nRaw, minRaw uint8) bool {
		n := int(nRaw%40) + 8
		min := int(minRaw%4) + 1
		rng := rand.New(rand.NewSource(seed))
		e := newEdges(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				e.add(u, v, rng.Float64()*10)
			}
		}
		g := e.graph()
		part, err := Partition(g, PartitionOptions{MinSize: min, TargetSize: min})
		if err != nil {
			return false
		}
		if len(part) != n {
			return false
		}
		sizes := PartSizes(part)
		for _, s := range sizes {
			if s < min {
				return false
			}
		}
		total := 0
		for _, s := range sizes {
			total += s
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the quotient graph preserves total weight.
func TestQuotientWeightProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 4
		rng := rand.New(rand.NewSource(seed))
		e := newEdges(n)
		for i := 0; i < 2*n; i++ {
			e.add(rng.Intn(n), rng.Intn(n), float64(rng.Intn(100)))
		}
		g := e.graph()
		parts := 3
		pmap := make([]int, n)
		for i := range pmap {
			pmap[i] = rng.Intn(parts)
		}
		q, err := g.Quotient(pmap, parts)
		if err != nil {
			return false
		}
		return math.Abs(q.TotalWeight()-g.TotalWeight()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
