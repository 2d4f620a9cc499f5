package reliability

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"hierclust/internal/topology"
)

// productLayout decodes a layout inside the product form from bytes, at most
// 16 nodes so that every f enumerates: per span a gap of 0-2 free nodes, a
// width of 1-5 nodes and 1-3 groups repeating the span; per group a member
// count of 1-3 on every span node and a tolerance from 0 to width*count,
// the top value making the group indestructible. A last byte leaves 0-3
// trailing free nodes. Missing bytes read as zero.
func productLayout(data []byte) (groups []Group, n int) {
	next := func(mod int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0]) % mod
		data = data[1:]
		return b
	}
	for len(data) > 1 {
		gap, width := next(3), 1+next(5)
		if n+gap+width > 13 {
			break
		}
		n += gap
		for g := 1 + next(3); g > 0; g-- {
			count := 1 + next(3)
			membersOn := map[topology.NodeID]int{}
			for k := 0; k < width; k++ {
				membersOn[topology.NodeID(n+k)] = count
			}
			groups = append(groups, groupOf(membersOn, next(width*count+1)))
		}
		n += width
	}
	return groups, max(n+next(4), 1)
}

// checkProductForm asserts, for a layout the reduction accepts, that the
// closed form equals the enumeration with == at every f (C(n,f) <= 12,870
// here, inside any budget) and the closed-form aligned pair the bitset scan.
// The enumeration runs on the layout's span stage, which has no reduction, so
// anything that asks dpOK there goes through the enumeration index: the
// oracle the closed forms are checked against. The reduction itself must be
// the reference slab pass's. It returns the number of (layout, f) pairs
// compared.
func checkProductForm(t *testing.T, groups []Group, n int) int {
	t.Helper()
	var p Profile
	if err := p.Init(groups, n); err != nil {
		t.Fatal(err)
	}
	checkReduction(t, "product layout", &p, func() *flatGroups { return flatten(groupSpans{groups, n}) })
	fg, slabs := p.fg, flatten(groupSpans{groups, n})
	if !fg.dpOK {
		t.Fatalf("layout rejected by the reduction: %+v on %d nodes", groups, n)
	}
	for f := 1; f <= n; f++ {
		exact := exactConditional(slabs, n, f, 1, nil)
		if closed := fg.disjointConditional(n, f, 100_000); closed != exact {
			t.Errorf("f=%d of %d nodes: closed form %v, enumeration %v (%+v)", f, n, closed, exact, groups)
		}
	}
	if closed, scan := alignedPairConditional(fg, n), alignedPairConditional(slabs, n); closed != scan {
		t.Errorf("aligned pair on %d nodes: closed form %v, bitset scan %v (%+v)", n, closed, scan, groups)
	}
	return n
}

func TestProductFormMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pairs := 0
	for i := 0; i < 150; i++ {
		data := make([]byte, 4+rng.Intn(40))
		rng.Read(data)
		groups, n := productLayout(data)
		pairs += checkProductForm(t, groups, n)
	}
	t.Logf("%d (layout, f) pairs", pairs)
}

func FuzzProductFormMatchesEnumeration(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 0, 2, 1, 3, 1, 0, 4, 2})
	f.Add([]byte{2, 1, 2, 2, 0, 1, 1, 0, 0, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		groups, n := productLayout(data)
		checkProductForm(t, groups, n)
	})
}

// The layouts every strategy in this repository produces weigh — with and
// without pair correlation — without the enumeration index ever being built;
// an overlapping layout builds it once, however many goroutines miss it.
func TestEnumerationIndexOnDemand(t *testing.T) {
	pairMix := Mix{Transient: 0.05, NodeLoss: []float64{0.9, 0.05}, PairCorrelation: 0.5}
	for _, strategy := range []string{"hierarchical-64-4", "naive-32", "size-guided-8", "distributed-16"} {
		var p Profile
		if err := p.Init(tableIIGroups(strategy), 64); err != nil {
			t.Fatal(err)
		}
		for _, mix := range []Mix{DefaultMix(), pairMix} {
			if _, err := p.CatastropheProb(context.Background(), mix, 1); err != nil {
				t.Fatal(err)
			}
		}
		if !p.fg.dpOK || p.fg.uniform != nil || p.fg.byNodePtr != nil {
			t.Errorf("%s: dpOK %v, enumeration index built %v", strategy, p.fg.dpOK, p.fg.uniform != nil)
		}
	}

	var p Profile
	if err := p.Init(randomGroups(5, 24, 12), 24); err != nil {
		t.Fatal(err)
	}
	if p.fg.dpOK || p.fg.uniform != nil {
		t.Fatalf("overlapping layout: dpOK %v, index built before first need %v", p.fg.dpOK, p.fg.uniform != nil)
	}
	results := make([]float64, 8)
	indexes := make([]*int32, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if results[i], err = p.CatastropheProb(context.Background(), pairMix, 1); err != nil {
				t.Error(err)
			}
			indexes[i] = &p.fg.byNodePtr[0]
		}()
	}
	wg.Wait()
	for i := range results {
		if results[i] != results[0] || indexes[i] != indexes[0] {
			t.Errorf("caller %d: result %v on index %p, caller 0 %v on %p", i, results[i], indexes[i], results[0], indexes[0])
		}
	}
}
