package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"hierclust/internal/graph"
	"hierclust/internal/racedetect"
	"hierclust/internal/reliability"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
)

// cloneClustering copies a clustering into fresh memory.
func cloneClustering(c *Clustering) *Clustering {
	out := &Clustering{Name: c.Name, L1: append([]int32(nil), c.L1...)}
	for _, g := range c.Groups {
		out.Groups = append(out.Groups, append([]topology.Rank(nil), g...))
	}
	return out
}

// A clustering owns its memory, and reuse is invisible: builds in one held
// buffer and arena — on the first clustering's shape with other options, so
// every carving lands where an earlier one did with other contents, and on
// shapes smaller and larger, from both trace forms and both partitioner
// paths — each give what a build in fresh memory gives, and leave the
// caller-owned clustering as it was. Fresh memory is zeroed, so an entry
// read before it is written shows only here.
func TestClusteringOutlivesArena(t *testing.T) {
	s, p := stencilRig(t, 16384, 4)
	c, err := Hierarchical(s, p, HierOptions{Multilevel: true})
	if err != nil {
		t.Fatal(err)
	}
	want := cloneClustering(c)
	b, ar := new(ClusteringBuf), new(graph.Arena)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		var m trace.Comm = s
		p, opts := p, HierOptions{Multilevel: true, MinNodesPerL1: 8}
		if i%4 != 0 {
			ppn := 2 + 2*rng.Intn(3)
			var st *trace.Stencil
			st, p = stencilRig(t, ppn*(256<<rng.Intn(6)), ppn)
			if m = st; i%3 == 0 {
				if m, err = trace.Synthetic(st.Ranks(), trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: ppn}); err != nil {
					t.Fatal(err)
				}
			}
			opts = HierOptions{Multilevel: i%2 == 0}
		}
		fresh, err := Hierarchical(m, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Hierarchical(ar, m, p, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("build %d: the held buffer and arena's clustering differs from a fresh build's", i)
		}
	}
	if !reflect.DeepEqual(c, want) {
		t.Fatal("a clustering changed after later builds")
	}
}

// graphSnapshot is everything a graph answers, in fresh memory.
type graphSnapshot struct {
	nbrs     [][]int
	weights  [][]float64
	strength []float64
}

func snapshot(g *graph.Graph) graphSnapshot {
	var s graphSnapshot
	for u := 0; u < g.N(); u++ {
		nb := g.Neighbors(u)
		ws := make([]float64, len(nb))
		for i, v := range nb {
			ws[i] = g.Weight(u, v)
		}
		s.nbrs = append(s.nbrs, nb)
		s.weights = append(s.weights, ws)
		s.strength = append(s.strength, g.Strength(u))
	}
	return s
}

// NodeGraph and graph.Partition hand back memory the caller owns, not the
// arena a later Hierarchical borrows: their results read the same after
// builds of the same shape and of a larger one.
func TestCallerOwnedGraphAndPartition(t *testing.T) {
	s, p := stencilRig(t, 16384, 4)
	csr, err := trace.Synthetic(16384, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	opts := graph.PartitionOptions{MinSize: 4, TargetSize: 4, Multilevel: true}
	var graphs []*graph.Graph
	var parts [][]int
	for _, m := range []trace.Comm{s, csr} {
		g, err := m.NodeGraph(p)
		if err != nil {
			t.Fatal(err)
		}
		part, err := graph.Partition(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		graphs, parts = append(graphs, g), append(parts, part)
	}
	wantGraphs := []graphSnapshot{snapshot(graphs[0]), snapshot(graphs[1])}
	wantParts := [][]int{append([]int(nil), parts[0]...), append([]int(nil), parts[1]...)}
	big, bigP := stencilRig(t, 65536, 4)
	for _, rig := range []struct {
		m trace.Comm
		p *topology.Placement
	}{{s, p}, {csr, p}, {big, bigP}} {
		for _, ml := range []bool{false, true} {
			if _, err := Hierarchical(rig.m, rig.p, HierOptions{Multilevel: ml}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range graphs {
		if !reflect.DeepEqual(snapshot(graphs[i]), wantGraphs[i]) {
			t.Errorf("%T.NodeGraph's graph changed after later builds", []trace.Comm{s, csr}[i])
		}
		if !reflect.DeepEqual(parts[i], wantParts[i]) {
			t.Errorf("graph.Partition's assignment changed after later builds")
		}
	}
}

// Builds running at once each borrow their own arena: four goroutines
// building two shapes (4,096 and 16,384 nodes) in turn produce exactly the
// serial clusterings. Run it under -race.
func TestConcurrentBuildsMatchSerial(t *testing.T) {
	type rig struct {
		s *trace.Stencil
		p *topology.Placement
	}
	var rigs []rig
	var want []*Clustering
	for _, ranks := range []int{16384, 65536} {
		s, p := stencilRig(t, ranks, 4)
		c, err := Hierarchical(s, p, HierOptions{Multilevel: true})
		if err != nil {
			t.Fatal(err)
		}
		rigs, want = append(rigs, rig{s, p}), append(want, c)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				k := (w + i) % len(rigs)
				c, err := Hierarchical(rigs[k].s, rigs[k].p, HierOptions{Multilevel: true})
				if err == nil && !reflect.DeepEqual(c, want[k]) {
					err = errors.New("a concurrent build differs from the serial one")
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A build cancelled mid-partition returns graph.ErrCancelled and leaves its
// arena reusable: the next build of the shape in it allocates next to
// nothing, where an arena the cancellation left unusable would cost a fresh
// one.
func TestCancelledBuildReleasesArena(t *testing.T) {
	s, p := stencilRig(t, 65536, 4)
	polls := 0
	opts, cancel := HierOptions{Multilevel: true}, func() bool { polls++; return polls > 2 }
	if _, err := (*ClusteringBuf)(nil).Hierarchical(nil, s, p, opts, cancel); !errors.Is(err, graph.ErrCancelled) {
		t.Fatalf("cancelled build: %v, want graph.ErrCancelled", err)
	}
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	// The buffer and arena a pipeline would lend, held across every build.
	b, ar := new(ClusteringBuf), new(graph.Arena)
	for i := 0; i < 2; i++ { // size them, then settle the arena's slabs
		if _, err := b.Hierarchical(ar, s, p, opts, nil); err != nil {
			t.Fatal(err)
		}
	}
	polls = 0
	if _, err := b.Hierarchical(ar, s, p, opts, cancel); !errors.Is(err, graph.ErrCancelled) {
		t.Fatalf("cancelled build: %v, want graph.ErrCancelled", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := b.Hierarchical(ar, s, p, opts, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(8*p.NumRanks() + 24*len(c.Groups) + 16<<10)
	t.Logf("build after a cancelled one: %d B, limit %d (8/rank + 24/group + 16 KiB)", got, limit)
	if got > limit {
		t.Errorf("build after a cancelled one allocates %d B, over %d: the cancelled build left its arena unusable", got, limit)
	}
}

// TestWarmScoreAllocatesNothing: a ClusteringBuf's profile that has scored
// its clustering at 16,384 ranks scores it again — Init (validation,
// recovery, the reliability model's product form) plus a DefaultMix
// weighing — without allocating, for every built-in kind, and to the
// scores of a fresh profile. Scoring the hierarchical clustering in a fresh
// profile, as every score did before the buffer carried one, allocates 26
// objects and 33.7 KB: the profile, the flat form's owner, spans and read
// buffer, the rank bitset, the cluster sizes, the recovery stamp and two
// polynomials per failure count.
func TestWarmScoreAllocatesNothing(t *testing.T) {
	const ranks = 16384
	p, err := topology.Block(&topology.Machine{Name: "t", Nodes: ranks / 4}, ranks, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := trace.NewStencil(ranks, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, mix := context.Background(), reliability.DefaultMix()
	builds := map[string]func(b *ClusteringBuf) (*Clustering, error){
		"hierarchical": func(b *ClusteringBuf) (*Clustering, error) {
			return b.Hierarchical(nil, m, p, HierOptions{Multilevel: true}, nil)
		},
		"naive":       func(b *ClusteringBuf) (*Clustering, error) { return b.Naive(ranks, 32) },
		"size-guided": func(b *ClusteringBuf) (*Clustering, error) { return b.SizeGuided(ranks, 8) },
		"distributed": func(b *ClusteringBuf) (*Clustering, error) { return b.Distributed(ranks, 16) },
	}
	for kind, build := range builds {
		b := new(ClusteringBuf)
		c, err := build(b)
		if err != nil {
			t.Fatal(err)
		}
		score := func(pr *Profile) Evaluation {
			if err := pr.Init(ctx, c, p); err != nil {
				t.Fatal(err)
			}
			e, err := pr.Evaluate(ctx, mix, 1)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		fresh := score(new(Profile))
		score(b.Profile())
		var warm Evaluation
		if allocs := testing.AllocsPerRun(5, func() { warm = score(b.Profile()) }); allocs != 0 {
			t.Errorf("%s: a warm score allocates %v objects, want 0", kind, allocs)
		}
		if warm != fresh {
			t.Errorf("%s: a warm score %+v, a fresh profile %+v", kind, warm, fresh)
		}
	}
}
