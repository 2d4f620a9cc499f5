package trace

import (
	"math/rand"
	"reflect"
	"testing"

	"hierclust/internal/topology"
)

// refNodeCSR is the map-based NodeCSR the dense-accumulator fold replaced:
// a node→index map and a SparseBuilder (hash row per node, sort.Slice per
// row at Freeze). The differential test pins the flat build's CSR arrays to
// it (the internal/graph/reference_test.go idiom).
func refNodeCSR(c *CSR, p *topology.Placement) *CSR {
	used := p.UsedNodes()
	idx := map[topology.NodeID]int{}
	for i, n := range used {
		idx[n] = i
	}
	b := NewSparseBuilder(len(used))
	for s := 0; s < c.n; s++ {
		ns := idx[p.NodeOf(topology.Rank(s))]
		for i := c.rowPtr[s]; i < c.rowPtr[s+1]; i++ {
			if c.bytes[i] == 0 {
				continue
			}
			nd := idx[p.NodeOf(topology.Rank(int(c.col[i])))]
			b.addCell(ns, nd, c.bytes[i], c.msgs[i])
		}
	}
	return b.Freeze()
}

// testPlacement draws a block, round-robin or explicit placement of n
// ranks; the explicit ones leave nodes unused and load the rest unevenly.
func testPlacement(t *testing.T, rng *rand.Rand, n int) *topology.Placement {
	t.Helper()
	mach := &topology.Machine{Name: "t", Nodes: n + 8}
	var p *topology.Placement
	var err error
	switch rng.Intn(3) {
	case 0:
		p, err = topology.Block(mach, n, 1+rng.Intn(7))
	case 1:
		p, err = topology.RoundRobin(mach, n, 1+rng.Intn(n))
	default:
		nodeOf := make([]topology.NodeID, n)
		for r := range nodeOf {
			nodeOf[r] = topology.NodeID(3 * rng.Intn(1+n/4)) // two of three nodes idle
		}
		p, err = topology.NewPlacement(mach, nodeOf)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNodeCSRMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(120)
		b := NewSparseBuilder(n)
		for adds := rng.Intn(6 * n); adds > 0; adds-- {
			// Asymmetric, self-sends included, one cell in six byte-less,
			// and a few negative cells so a node cell can sum to zero.
			bytes := int64(rng.Intn(6)) * 512
			if rng.Intn(20) == 0 {
				bytes = -512
			}
			_ = b.Add(rng.Intn(n), rng.Intn(n), bytes)
		}
		c := b.Freeze()
		p := testPlacement(t, rng, n)
		got, err := c.NodeCSR(p)
		if err != nil {
			t.Fatal(err)
		}
		want := refNodeCSR(c, p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: NodeCSR differs from reference\n got %+v\nwant %+v", seed, got, want)
		}
		dense, err := c.ToDense().NodeMatrix(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalBytes() != dense.TotalBytes() || got.TotalMsgs() != dense.TotalMsgs() {
			t.Fatalf("seed %d: node totals %d/%d, dense %d/%d", seed,
				got.TotalBytes(), got.TotalMsgs(), dense.TotalBytes(), dense.TotalMsgs())
		}
	}
}

// Synthetic sizes its arrays from the stencil's closed-form pair count: no
// spare capacity, and an allocation count that ignores the rank count.
func TestSyntheticSizedExactly(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 17, 100} {
		for _, opts := range []SyntheticOptions{
			{Pattern: Stencil1D},
			{Pattern: Stencil2D},
			{Pattern: Stencil2D, Width: 1},
			{Pattern: Stencil2D, Width: 3},
			{Pattern: Stencil2D, Width: n},
		} {
			if opts.Width > n {
				continue
			}
			c, err := Synthetic(n, opts)
			if err != nil {
				t.Fatal(err)
			}
			if cap(c.col) != len(c.col) || cap(c.bytes) != len(c.bytes) || cap(c.msgs) != len(c.msgs) {
				t.Errorf("n=%d %+v: nnz %d but capacity %d/%d/%d", n, opts,
					len(c.col), cap(c.col), cap(c.bytes), cap(c.msgs))
			}
			var bytes, msgs int64
			for i := range c.col {
				bytes += c.bytes[i]
				msgs += c.msgs[i]
			}
			if bytes != c.TotalBytes() || msgs != c.TotalMsgs() {
				t.Errorf("n=%d %+v: totals %d/%d, cells sum to %d/%d", n, opts,
					c.TotalBytes(), c.TotalMsgs(), bytes, msgs)
			}
		}
	}
}

// A reintroduced per-rank or per-node allocation adds at least 768 objects
// between the two sizes and fails here.
func TestTraceAllocsIndependentOfRanks(t *testing.T) {
	measure := func(ranks int) (synth, nodeGraph float64) {
		opts := SyntheticOptions{Pattern: Stencil2D, Width: 4}
		c, err := Synthetic(ranks, opts)
		if err != nil {
			t.Fatal(err)
		}
		mach := &topology.Machine{Name: "t", Nodes: ranks / 4}
		p, err := topology.Block(mach, ranks, 4)
		if err != nil {
			t.Fatal(err)
		}
		synth = testing.AllocsPerRun(3, func() {
			if _, err := Synthetic(ranks, opts); err != nil {
				t.Fatal(err)
			}
		})
		nodeGraph = testing.AllocsPerRun(3, func() {
			if _, err := c.NodeGraph(p); err != nil {
				t.Fatal(err)
			}
		})
		return
	}
	s1, g1 := measure(1024)
	s4, g4 := measure(4096)
	if s1 != s4 || g1 != g4 {
		t.Errorf("allocations grow with ranks: Synthetic %v -> %v, NodeGraph %v -> %v", s1, s4, g1, g4)
	}
	if s1 > 10 || g1 > 40 {
		t.Errorf("Synthetic %v allocs (want <= 10), NodeGraph %v (want <= 40)", s1, g1)
	}
}
