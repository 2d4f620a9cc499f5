package reliability

import (
	"context"
	"errors"
	"fmt"
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
	case unionBoundConditional(context.Background(), p.fg, p.nodes, f, 1) <= 0.1:
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
			mdl := &Model{Nodes: n, Mix: mix, exactLimit: exactLimit, samples: samples, Workers: 1}
			var err error
			if want[i], err = mdl.CatastropheProb(groups); err != nil {
				t.Fatalf("seed %d mix %d: %v", seed, i, err)
			}
		}

		p := Profile{exactLimit: exactLimit, samples: samples}
		if err := p.Init(groups, n); err != nil {
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

	p := Profile{exactLimit: 1 << 30}
	if err := p.Init(groups, n); err != nil {
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
	want, err := (&Model{Nodes: n, Mix: mix, exactLimit: 1 << 30, Workers: 1}).CatastropheProb(groups)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("after a cancelled weighing the profile returns %v, a fresh model %v", got, want)
	}
}

// reuseShape is one layout TestProfileReuseInvisible re-inits a profile to:
// nodes*4 ranks placed four to a node, in groups of size members, each
// member on its own node when spread, consecutive ranks otherwise.
type reuseShape struct {
	label        string
	nodes, size  int
	spread, dpOK bool
}

func (sh reuseShape) layout() (*topology.Placement, [][]topology.Rank) {
	const ppn = 4
	_, p := machine(sh.nodes, ppn)
	var members [][]topology.Rank
	if sh.size == 0 {
		return p, nil
	}
	if sh.spread {
		for base := 0; base+sh.size <= sh.nodes; base += sh.size {
			for i := 0; i < ppn; i++ {
				m := make([]topology.Rank, sh.size)
				for j := range m {
					m[j] = topology.Rank((base+j)*ppn + i)
				}
				members = append(members, m)
			}
		}
		return p, members
	}
	for base := 0; base < sh.nodes*ppn; base += sh.size {
		m := make([]topology.Rank, 0, sh.size)
		for r := base; r < min(base+sh.size, sh.nodes*ppn); r++ {
			m = append(m, topology.Rank(r))
		}
		members = append(members, m)
	}
	return p, members
}

// TestProfileReuseInvisible: one profile re-initialised through a 16k-rank
// product form, a layout the reduction rejects, a smaller product form, a
// larger one and a layout with no groups at all, through InitRanks and Init
// in turn, holds at every step what a fresh profile holds: the reference
// slab pass's reduction (dpSpans and owner, nil and empty told apart) and
// CatastropheProb's bits with and without pair correlation. Every rotation
// of the shapes runs on its own profile, so each shape is also a first
// Init. Before every Init a weighing is cancelled: Init forgets every
// conditional, and the cancelled one was never remembered.
func TestProfileReuseInvisible(t *testing.T) {
	const exactLimit, samples = 2000, 5000
	shapes := []reuseShape{
		{"product form, 16k ranks", 4096, 4, true, true},
		{"rejected", 64, 3, false, false},
		{"smaller product form", 256, 4, false, true},
		{"larger product form", 8192, 8, false, true},
		{"no groups", 16, 0, false, true},
	}
	mixes := []Mix{DefaultMix(), {Transient: 0.05, NodeLoss: []float64{0.6, 0.25, 0.1}, PairCorrelation: 0.5}}
	long := Mix{NodeLoss: make([]float64, memoF)}
	for i := range long.NodeLoss {
		long.NodeLoss[i] = 1
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for round := range shapes { // each shape comes first once, to a fresh profile
		p := Profile{exactLimit: exactLimit, samples: samples}
		for k := range shapes {
			sh := shapes[(round+k)%len(shapes)]
			pl, members := sh.layout()
			groups := groupsFromRanks(pl, members)
			for _, entry := range []string{"InitRanks", "Init"} {
				label := fmt.Sprintf("round %d, %s, %s", round, sh.label, entry)
				if _, err := p.CatastropheProb(cancelled, long, 1); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: a cancelled weighing returned %v", label, err)
				}
				fresh := Profile{exactLimit: exactLimit, samples: samples}
				var stage func() *flatGroups
				if entry == "InitRanks" {
					if err := p.InitRanks(pl, members); err != nil {
						t.Fatal(err)
					}
					if err := fresh.InitRanks(pl, members); err != nil {
						t.Fatal(err)
					}
					stage = func() *flatGroups { return flatten(rankSpans{pl, members}) }
				} else {
					if err := p.Init(groups, pl.NumUsed()); err != nil {
						t.Fatal(err)
					}
					if err := fresh.Init(groups, pl.NumUsed()); err != nil {
						t.Fatal(err)
					}
					stage = func() *flatGroups { return flatten(groupSpans{groups, pl.NumUsed()}) }
				}
				if p.have != 0 {
					t.Fatalf("%s: re-init kept memo bits %b", label, p.have)
				}
				if p.fg.dpOK != sh.dpOK {
					t.Fatalf("%s: dpOK %v, want %v", label, p.fg.dpOK, sh.dpOK)
				}
				checkReduction(t, label, &p, stage)
				for _, mix := range mixes {
					got, err := p.CatastropheProb(context.Background(), mix, 1)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.CatastropheProb(context.Background(), mix, 1)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s: re-initialised profile %v, fresh %v (pair correlation %v)", label, got, want, mix.PairCorrelation)
					}
				}
			}
		}
	}
}
