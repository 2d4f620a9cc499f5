package reliability

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"hierclust/internal/topology"
)

// profileMixes is the set of mixes one profile is weighed with: the default,
// one that correlates pairs, one with zero weights inside the tail (those
// conditionals are never computed), one longer than the memo and one longer
// than the machine has nodes.
func profileMixes(n int) []Mix {
	tail := func(k int) []float64 {
		loss := make([]float64, k)
		for i := range loss {
			loss[i] = math.Pow(0.5, float64(i+1))
		}
		return loss
	}
	mixes := []Mix{
		DefaultMix(),
		{Transient: 0.05, NodeLoss: tail(4), PairCorrelation: 0.5},
		{Transient: 0.2, NodeLoss: []float64{0.5, 0, 0.2, 0, 0, 0.1}},
		{NodeLoss: tail(memoF + 4)},
		{Transient: 0.01, NodeLoss: tail(n + 3), PairCorrelation: 0.25},
	}
	for i := range mixes {
		mixes[i].Normalize()
	}
	return mixes
}

// profileGroups draws one group set: even seeds a regular layout (disjoint
// uniform spans, the closed form's case), odd seeds overlapping non-uniform
// spans — few and tolerant (the union bound holds) or many and fragile (it
// does not, so the model samples).
func profileGroups(seed int64, n int) []Group {
	rng := rand.New(rand.NewSource(seed))
	if seed%2 == 0 {
		width, count := 2+rng.Intn(3), 1+rng.Intn(3)
		var groups []Group
		for base := 0; base+width <= n; base += width {
			membersOn := map[topology.NodeID]int{}
			for k := 0; k < width; k++ {
				membersOn[topology.NodeID(base+k)] = count
			}
			groups = append(groups, groupOf(membersOn, rng.Intn(width*count)))
		}
		return groups
	}
	if seed%4 == 1 {
		return randomGroups(seed, n, 2*n)
	}
	groups := randomGroups(seed, n, 2)
	for i := range groups {
		groups[i].Tolerance = max(groups[i].Tolerance, 3)
	}
	return groups
}

// conditionalBranch names the way Profile.conditional computes f failed nodes,
// as an index into branchNames.
func conditionalBranch(p *Profile, f int) int {
	switch {
	case p.fg.dpOK:
		return 1
	case combinations(p.nodes, f) <= float64(p.exactLimit):
		return 0
	case unionBoundConditional(p.fg, p.nodes, f, 1, nil) <= 0.1:
		return 2
	}
	return 3
}

var branchNames = [4]string{"exact", "closed form", "union bound", "Monte Carlo"}

// TestProfileMemoOrderIndependent: weighing one profile with a shuffled
// sequence of mixes, each twice, returns for every mix the bits a fresh model
// returns — whatever the memo held when the mix arrived. The seeds must
// reach all four conditional branches.
func TestProfileMemoOrderIndependent(t *testing.T) {
	const exactLimit, samples = 300, 1000
	var branches [4]int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		n := 8 + rng.Intn(28)
		groups := profileGroups(seed, n)
		mixes := profileMixes(n)

		want := make([]float64, len(mixes))
		for i, mix := range mixes {
			mdl := &Model{Nodes: n, Mix: mix, ExactLimit: exactLimit, MonteCarloSamples: samples, Workers: 1}
			var err error
			if want[i], err = mdl.CatastropheProb(groups); err != nil {
				t.Fatalf("seed %d mix %d: %v", seed, i, err)
			}
		}

		var p Profile
		if err := p.Init(groups, n, exactLimit, samples); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		order := rng.Perm(2 * len(mixes))
		for _, k := range order {
			i := k % len(mixes)
			got, err := p.CatastropheProb(context.Background(), mixes[i], 1+k%3)
			if err != nil {
				t.Fatalf("seed %d mix %d: %v", seed, i, err)
			}
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d mix %d (order %v): profile %v, fresh model %v", seed, i, order, got, want[i])
			}
		}

		for f := 1; f <= n; f++ {
			branches[conditionalBranch(&p, f)]++
		}
	}
	for i, name := range branchNames {
		if branches[i] == 0 {
			t.Errorf("no seed reached the %s branch", name)
		}
	}
}

// TestProfileCancelLeavesNoMemo: a conditional cut short by cancellation is a
// partial sum. The cancelled call reports the context's error, the profile
// remembers the conditional that completed before the cut and not the one
// that was cut, and the next caller gets the bits of a model that was never
// cancelled.
func TestProfileCancelLeavesNoMemo(t *testing.T) {
	const n, slowF = 56, 5 // C(56,5) = 3.8 M subsets: tens of milliseconds
	groups := randomGroups(11, n, 12)
	mix := Mix{NodeLoss: make([]float64, slowF)}
	mix.NodeLoss[0], mix.NodeLoss[slowF-1] = 0.5, 0.5

	var p Profile
	if err := p.Init(groups, n, 1<<30, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { // cancel once f=1 is remembered: the call is then inside f=5
		for {
			if _, done := p.memo(0); done {
				cancel()
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	if _, err := p.CatastropheProb(ctx, mix, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled weighing returned %v, want context.Canceled", err)
	}
	if _, done := p.memo(0); !done {
		t.Error("the conditional that completed before the cancel was not remembered")
	}
	if v, done := p.memo(slowF - 1); done {
		t.Fatalf("the cancelled conditional was remembered as %v", v)
	}

	got, err := p.CatastropheProb(context.Background(), mix, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Model{Nodes: n, Mix: mix, ExactLimit: 1 << 30, Workers: 1}).CatastropheProb(groups)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("after a cancelled weighing the profile returns %v, a fresh model %v", got, want)
	}
}
