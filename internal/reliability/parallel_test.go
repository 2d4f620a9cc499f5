package reliability

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hierclust/internal/topology"
)

// randomGroups builds groups with random spans and counts — generally
// overlapping and non-uniform, so the disjoint-span closed form does not
// apply and the enumeration/sampling paths are exercised.
func randomGroups(seed int64, n, k int) []Group {
	rng := rand.New(rand.NewSource(seed))
	groups := make([]Group, k)
	for i := range groups {
		span := rng.Intn(4) + 1
		membersOn := map[topology.NodeID]int{}
		members := 0
		for j := 0; j < span; j++ {
			c := rng.Intn(3) + 1
			membersOn[topology.NodeID(rng.Intn(n))] += c
			members += c
		}
		groups[i] = groupOf(membersOn, rng.Intn(members))
	}
	return groups
}

// Exact enumeration must return bit-identical results at every worker
// count: the lexicographic chunks carry integer hit counts whose sum does
// not depend on scheduling.
func TestExactConditionalWorkerInvariance(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		groups := randomGroups(seed, 12, 6)
		fg := flatten(groupSpans{groups, 12})
		for f := 1; f <= 5; f++ {
			serial := exactConditional(context.Background(), fg, 12, f, 1)
			for _, workers := range []int{2, 3, 8} {
				if got := exactConditional(context.Background(), fg, 12, f, workers); got != serial {
					t.Errorf("seed %d f %d: workers=%d gave %v, serial %v", seed, f, workers, got, serial)
				}
			}
		}
	}
}

// Monte Carlo sharding must be bit-identical at every worker count and
// GOMAXPROCS setting: each fixed chunk owns its RNG stream and its integer
// hit count, so the summed estimate is scheduling-independent.
func TestMonteCarloWorkerInvariance(t *testing.T) {
	groups := randomGroups(3, 40, 10)
	fg := flatten(groupSpans{groups, 40})
	serial := monteCarloConditional(context.Background(), fg, 40, 4, 50_000, 17, 1)
	for _, workers := range []int{2, 5, 16} {
		if got := monteCarloConditional(context.Background(), fg, 40, 4, 50_000, 17, workers); got != serial {
			t.Errorf("workers=%d gave %v, serial %v", workers, got, serial)
		}
	}
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	if got := monteCarloConditional(context.Background(), fg, 40, 4, 50_000, 17, 0); got != serial {
		t.Errorf("GOMAXPROCS=2 workers=0 gave %v, serial %v", got, serial)
	}
}

// The full model must be bit-identical across worker counts.
func TestCatastropheProbWorkerInvariance(t *testing.T) {
	groups := randomGroups(9, 64, 20)
	want := -1.0
	for _, workers := range []int{1, 2, 7} {
		mdl := &Model{Nodes: 64, Mix: DefaultMix(), Workers: workers, exactLimit: 5000}
		p, err := mdl.CatastropheProb(groups)
		if err != nil {
			t.Fatal(err)
		}
		if want < 0 {
			want = p
		} else if p != want {
			t.Errorf("workers=%d: %v != %v", workers, p, want)
		}
	}
}

// destroys (critical fast path + span bitsets) must agree with the naive
// per-group destroyedBy on random failure sets.
func TestDestroysMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		n := 20
		groups := randomGroups(seed, n, 8)
		fg := flatten(groupSpans{groups, n}).indexed()
		scratch := fg.newScratch()
		rng := rand.New(rand.NewSource(seed * 101))
		for trial := 0; trial < 200; trial++ {
			f := rng.Intn(5) + 1
			failed := rng.Perm(n)[:f]
			nodeIDs := make([]topology.NodeID, f)
			for i, nd := range failed {
				nodeIDs[i] = topology.NodeID(nd)
			}
			naive := false
			for gi := range groups {
				if groups[gi].destroyedBy(nodeIDs) {
					naive = true
					break
				}
			}
			if got := fg.destroys(failed, scratch); got != naive {
				t.Fatalf("seed %d trial %d: destroys=%v, naive=%v (failed %v)", seed, trial, got, naive, failed)
			}
			for _, w := range scratch {
				if w != 0 {
					t.Fatal("destroys left scratch bits set")
				}
			}
		}
	}
}

// disjointGroups builds a layout that satisfies the disjoint-span
// reduction: spans tile the machine, counts are uniform per group, and some
// spans are shared by several groups.
func disjointGroups(seed int64, n int) []Group {
	rng := rand.New(rand.NewSource(seed))
	var groups []Group
	node := 0
	for node < n {
		span := rng.Intn(3) + 2
		if node+span > n {
			span = n - node
		}
		perSpan := rng.Intn(2) + 1 // groups sharing this span
		for g := 0; g < perSpan; g++ {
			count := rng.Intn(2) + 1
			membersOn := map[topology.NodeID]int{}
			for j := 0; j < span; j++ {
				membersOn[topology.NodeID(node+j)] = count
			}
			groups = append(groups, groupOf(membersOn, rng.Intn(span*count+1)))
		}
		node += span
		node += rng.Intn(2) // occasionally leave unconstrained nodes
	}
	return groups
}

// The disjoint-span closed form must return the enumeration's bits wherever
// the enumeration is within budget: both are integer counts over C(n,f).
func TestDisjointConditionalMatchesExact(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		n := 14
		groups := disjointGroups(seed, n)
		fg, scan := reduceOrFlatten(groupSpans{groups, n}, nil), flatten(groupSpans{groups, n})
		if !fg.dpOK {
			t.Fatalf("seed %d: disjoint layout rejected by reduction", seed)
		}
		for f := 1; f <= 6; f++ {
			exact := exactConditional(context.Background(), scan, n, f, 1)
			closed := fg.disjointConditional(n, f, 100_000)
			if exact != closed {
				t.Errorf("seed %d f %d: exact %v, closed form %v", seed, f, exact, closed)
			}
		}
	}
}

// The reduction must reject layouts it cannot represent: partial span
// overlap and non-uniform counts.
func TestDisjointReductionRejectsIrregular(t *testing.T) {
	overlap := []Group{
		groupOf(map[topology.NodeID]int{0: 1, 1: 1, 2: 1}, 1),
		groupOf(map[topology.NodeID]int{2: 1, 3: 1}, 0),
	}
	if reduceOrFlatten(groupSpans{overlap, 6}, nil).dpOK {
		t.Error("partial span overlap accepted")
	}
	nonUniform := []Group{
		groupOf(map[topology.NodeID]int{0: 2, 1: 1}, 1),
	}
	if reduceOrFlatten(groupSpans{nonUniform, 4}, nil).dpOK {
		t.Error("non-uniform counts accepted")
	}
	// Identical spans with uniform counts stay reducible.
	identical := []Group{
		groupOf(map[topology.NodeID]int{0: 1, 1: 1}, 1),
		groupOf(map[topology.NodeID]int{0: 2, 1: 2}, 1),
	}
	fg := reduceOrFlatten(groupSpans{identical, 4}, nil)
	if !fg.dpOK {
		t.Error("identical spans rejected")
	}
	if len(fg.dpSpans) != 1 {
		t.Errorf("identical spans not deduped: %d spans", len(fg.dpSpans))
	}
	// The second group dies with one node (2 > 1), so the shared span
	// threshold must be the tighter of the two.
	if fg.dpSpans[0].thresh != 1 {
		t.Errorf("span threshold = %d, want 1", fg.dpSpans[0].thresh)
	}
}

// A model whose groups pass the reduction never enumerates, whatever exact
// budget it has, and still returns the enumeration's answer: bit for bit the
// hand-weighed sum of exactConditional and the bitset pair scan while C(n,f)
// is within the budget, and within rounding of it when the budget is 1 and
// every f takes the 1 - safe/total form.
func TestModelClosedFormAgreesWithEnumeration(t *testing.T) {
	const n = 12
	groups := disjointGroups(4, n)
	mix := Mix{Transient: 0.05, NodeLoss: []float64{0.6, 0.2, 0.1, 0.05}, PairCorrelation: 0.3}
	mix.Normalize()
	scan := flatten(groupSpans{groups, n})
	var brute float64
	for i, pf := range mix.NodeLoss {
		pcat := exactConditional(context.Background(), scan, n, i+1, 1)
		if i+1 == 2 {
			pcat = mix.PairCorrelation*alignedPairConditional(scan, n) + (1-mix.PairCorrelation)*pcat
		}
		brute += pf * pcat
	}
	for _, limit := range []int{0, 1} {
		p := Profile{exactLimit: limit}
		if err := p.Init(groups, n); err != nil {
			t.Fatal(err)
		}
		got, err := p.CatastropheProb(context.Background(), mix, 1)
		if err != nil {
			t.Fatal(err)
		}
		if limit == 0 && got != brute || math.Abs(got-brute) > 1e-12 {
			t.Errorf("exact budget %d: closed form %v vs enumeration %v", limit, got, brute)
		}
		if p.fg.uniform != nil {
			t.Errorf("exact budget %d: a product-form layout built the enumeration index", limit)
		}
	}
}
