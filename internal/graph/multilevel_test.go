package graph

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"hierclust/internal/racedetect"
)

// newPartArena rewinds ar and fits it to g, the way Partition fits its own.
// A loop that passes the one arena it holds runs every case on the scratch
// and slabs the cases before it left dirty, as the pipeline's builds do;
// buildArena sizes a fresh one.
func newPartArena(ar *Arena, g *Graph) *Arena {
	ar.Reset()
	ar.fit(g.N(), g.rowptr[g.N()])
	return ar
}

func buildArena(n int, nnz int64) *Arena {
	ar := new(Arena)
	ar.fit(n, nnz)
	return ar
}

// stencil2D builds a w-wide 2-D grid with heavy horizontal and lighter
// vertical edges — the node-graph shape of the synthetic scaling rigs.
func stencil2D(n, w int) *Graph { return stencilEdges(n, w).graph() }

// stencilEdges is stencil2D's edge list, for tests that add to it.
func stencilEdges(n, w int) *edges {
	e := newEdges(n)
	for i := 0; i < n; i++ {
		if i+1 < n && (i+1)%w != 0 {
			e.add(i, i+1, 1000)
		}
		if i+w < n {
			e.add(i, i+w, 800)
		}
	}
	return e
}

// checkAssignment verifies the Partition contract: dense coverage and the
// MinSize (always) / MaxSize (when set) bounds.
func checkAssignment(t *testing.T, name string, part []int, n int, opts PartitionOptions) {
	t.Helper()
	if len(part) != n {
		t.Fatalf("%s: assignment covers %d of %d vertices", name, len(part), n)
	}
	seen := make([]bool, NumParts(part))
	for v, p := range part {
		if p < 0 || p >= len(seen) {
			t.Fatalf("%s: vertex %d has id %d outside dense range", name, v, p)
		}
		seen[p] = true
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("%s: part id %d unused (not dense)", name, id)
		}
	}
	min := opts.MinSize
	if min <= 0 {
		min = 1
	}
	for id, s := range PartSizes(part) {
		if s < min {
			t.Errorf("%s: part %d has size %d < MinSize %d", name, id, s, min)
		}
		if opts.MaxSize != 0 && s > opts.MaxSize {
			t.Errorf("%s: part %d has size %d > MaxSize %d", name, id, s, opts.MaxSize)
		}
	}
}

// The acceptance property of the multilevel path: on every graph the
// existing partition tests exercise — and on the structured large graphs the
// scaling rigs produce — the multilevel cut is never worse than the
// single-level cut, and the same size bounds hold.
func TestMultilevelCutNoWorseThanSingleLevel(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		opts PartitionOptions
	}{
		{"path16", path(16, 1), PartitionOptions{MinSize: 4, TargetSize: 4, MaxSize: 4}},
		{"ring10", ring(10, 1), PartitionOptions{MinSize: 3}},
		{"ring4", ring(4, 1), PartitionOptions{MinSize: 4, TargetSize: 4}},
		{"ring1024", ring(1024, 1000), PartitionOptions{MinSize: 4, TargetSize: 4}},
		{"stencil4096", stencil2D(4096, 64), PartitionOptions{MinSize: 4, TargetSize: 4}},
		{"stencil16384", stencil2D(16384, 128), PartitionOptions{MinSize: 4, TargetSize: 4}},
		{"stencil16384-t16", stencil2D(16384, 128), PartitionOptions{MinSize: 4, TargetSize: 16}},
	}
	// The community graph of TestPartitionImprovesOverRandom.
	const k, groups = 8, 6
	comm := communityGraph(k, groups)
	cases = append(cases, struct {
		name string
		g    *Graph
		opts PartitionOptions
	}{"community48", comm, PartitionOptions{MinSize: k, TargetSize: k, MaxSize: k}})
	// Random graphs at a scale where coarsening engages for real.
	for seed := int64(1); seed <= 3; seed++ {
		rg := randomIntGraph(seed, 2048)
		cases = append(cases, struct {
			name string
			g    *Graph
			opts PartitionOptions
		}{"random2048", rg, PartitionOptions{MinSize: 4, TargetSize: 4}})
	}

	for _, tc := range cases {
		single, err := Partition(tc.g, tc.opts)
		if err != nil {
			t.Fatalf("%s: single-level: %v", tc.name, err)
		}
		mlOpts := tc.opts
		mlOpts.Multilevel = true
		multi, err := Partition(tc.g, mlOpts)
		if err != nil {
			t.Fatalf("%s: multilevel: %v", tc.name, err)
		}
		checkAssignment(t, tc.name, multi, tc.g.N(), tc.opts)
		cs, _ := tc.g.CutWeight(single)
		cm, _ := tc.g.CutWeight(multi)
		if cm > cs {
			t.Errorf("%s: multilevel cut %g worse than single-level %g", tc.name, cm, cs)
		}
	}
}

// Below the coarsening threshold (128 vertices) the multilevel flag is
// inert: the assignment must be identical to single-level, not merely no
// worse.
func TestMultilevelIdenticalBelowThreshold(t *testing.T) {
	g := randomIntGraph(3, 100) // 100 <= default threshold 128
	single, err := Partition(g, PartitionOptions{MinSize: 4, TargetSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Partition(g, PartitionOptions{MinSize: 4, TargetSize: 4, Multilevel: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range single {
		if single[v] != multi[v] {
			t.Fatalf("vertex %d: single-level id %d != multilevel id %d (threshold fallback must be exact)",
				v, single[v], multi[v])
		}
	}
}

// The multilevel assignment is a pure function of the graph and options: a
// repeat run on the first run's recycled arena, every scratch buffer still
// holding that run's state, reproduces it exactly — the partitioner sits
// inside evaluations whose outputs are compared byte-for-byte.
func TestMultilevelWorkerInvariance(t *testing.T) {
	g := stencil2D(8192, 128)
	opts := PartitionOptions{MinSize: 4, TargetSize: 4, Multilevel: true}
	if err := opts.normalize(g.N()); err != nil {
		t.Fatal(err)
	}
	ar := newPartArena(new(Arena), g)
	ref, err := multilevelPartition(g, opts, ar)
	if err != nil {
		t.Fatal(err)
	}
	ref = append([]int(nil), ref...) // the next run writes the same buffer
	ar.Reset()
	again, err := multilevelPartition(g, opts, ar)
	if err != nil {
		t.Fatal(err)
	}
	for v := range ref {
		if ref[v] != again[v] {
			t.Fatalf("repeat run diverged at vertex %d: %d, first run %d", v, again[v], ref[v])
		}
	}
}

// Partition runs on its caller's goroutine: with two P's available it
// starts no goroutine and builds no escaping closure, so a multilevel
// partition on a warm arena allocates the coarse levels' headers and little
// else — a constant, not a count that grows with the P's or the graph's
// chunks. testing.AllocsPerRun cannot measure this: it
// pins GOMAXPROCS to 1 while it counts.
func TestPartitionAllocsBounded(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := stencil2D(16384, 128)
	opts := PartitionOptions{MinSize: 4, TargetSize: 4, Multilevel: true}
	// The arena a pipeline build would hold, across every call.
	ar := new(Arena)
	partition := func() {
		ar.Reset()
		if _, err := ar.Partition(g, opts); err != nil {
			t.Fatal(err)
		}
	}
	partition() // size the arena
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		partition()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / runs
	// 5 on a warm arena (the multilevel ladder's level headers); the slack
	// is what the runtime adds at two P's (a fresh arena is 23 objects).
	const bound = 16
	t.Logf("multilevel Partition at GOMAXPROCS 2: %.2f allocs/op (bound %d)", got, bound)
	if got > bound {
		t.Errorf("multilevel Partition allocates %.2f objects per call at GOMAXPROCS 2, over %d: did a phase fork onto goroutines?", got, bound)
	}
}

// Matching invariants: symmetry, no self-matches, and the TargetSize weight
// cap (coarse vertices are embryonic clusters and must stay mergeable).
func TestHeavyEdgeMatchingInvariants(t *testing.T) {
	g := randomIntGraph(11, 600)
	opts := PartitionOptions{MinSize: 4, TargetSize: 4}
	if err := opts.normalize(g.N()); err != nil {
		t.Fatal(err)
	}
	ar := newPartArena(new(Arena), g)
	match, matched := heavyEdgeMatching(g, nil, opts, ar)
	count := 0
	for u, m := range match {
		if m == -1 {
			continue
		}
		count++
		if int(m) == u {
			t.Fatalf("vertex %d matched to itself", u)
		}
		if match[m] != int32(u) {
			t.Fatalf("matching not symmetric: match[%d]=%d but match[%d]=%d", u, m, m, match[m])
		}
		if g.Weight(u, int(m)) == 0 {
			t.Fatalf("matched pair {%d,%d} shares no edge", u, m)
		}
	}
	if count != matched {
		t.Fatalf("matched count %d != scan count %d", matched, count)
	}
	if matched == 0 {
		t.Fatal("matching found nothing on a connected graph")
	}
	// Contract and confirm weights: every coarse vertex within TargetSize.
	_, cmap, cvw, err := contract(g, nil, match, matched, opts, ar)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cvw {
		if w < 1 || w > opts.TargetSize {
			t.Fatalf("coarse vertex weight %d outside 1..%d", w, opts.TargetSize)
		}
	}
	total := 0
	for _, w := range cvw {
		total += w
	}
	if total != g.N() {
		t.Fatalf("coarse weights sum to %d, want %d", total, g.N())
	}
	for v, c := range cmap {
		if c < 0 || int(c) >= len(cvw) {
			t.Fatalf("vertex %d mapped to out-of-range coarse vertex %d", v, c)
		}
	}
}

// A recycled arena hands matching its proposal slots (cand, accept, candW,
// acceptRound) full of plausible vertex ids, weights and round stamps from
// an earlier level or call. None may leak into a binding: on a weighted
// level where half the vertices are too heavy to match, the matching from a
// poisoned arena is symmetric, never pairs an ineligible vertex, respects
// the TargetSize cap, and equals the matching from a fresh arena.
func TestHeavyEdgeMatchingIneligibleStaleCand(t *testing.T) {
	const n = 12288
	g := stencil2D(n, 128)
	opts := PartitionOptions{MinSize: 4, TargetSize: 4}
	if err := opts.normalize(n); err != nil {
		t.Fatal(err)
	}
	vw := make([]int, n)
	for i := range vw {
		if i%2 == 0 {
			vw[i] = 4 // saturated: 4+1 > TargetSize, ineligible
		} else {
			vw[i] = 1
		}
	}
	run := func(poison bool) []int32 {
		ar := buildArena(n, g.rowptr[n])
		if poison {
			ar.matchRound = 5
			for i := 0; i < n; i++ {
				ar.cand[i] = int32((i + 1) % n)
				ar.accept[i] = int32((i + 2) % n)
				ar.candW[i] = 1e9
				ar.acceptRound[i] = int32(i % 6) // stamps of rounds already run
			}
		}
		match, _ := heavyEdgeMatching(g, vw, opts, ar)
		return append([]int32(nil), match...)
	}
	fresh := run(false)
	poisoned := run(true)
	matched := 0
	for u := 0; u < n; u++ {
		if poisoned[u] != fresh[u] {
			t.Fatalf("vertex %d: poisoned-arena match %d, fresh %d (stale slot leaked into a binding)",
				u, poisoned[u], fresh[u])
		}
		m := poisoned[u]
		if m == -1 {
			continue
		}
		if vw[u]+1 > opts.TargetSize {
			t.Fatalf("ineligible vertex %d got matched to %d", u, m)
		}
		if poisoned[m] != int32(u) {
			t.Fatalf("asymmetric match: match[%d]=%d but match[%d]=%d", u, m, m, poisoned[m])
		}
		if vw[u]+vw[m] > opts.TargetSize {
			t.Fatalf("pair {%d,%d} weight %d bursts cap %d", u, m, vw[u]+vw[m], opts.TargetSize)
		}
		matched++
	}
	if matched == 0 {
		t.Fatal("nothing matched: the eligible vertices' vertical edges should pair")
	}
}

// contract must preserve total edge weight (intra-pair edges become
// self-loops, never vanish) — the invariant behind cut comparisons across
// levels.
func TestContractPreservesTotalWeight(t *testing.T) {
	g := randomIntGraph(5, 500)
	opts := PartitionOptions{MinSize: 4, TargetSize: 4}
	if err := opts.normalize(g.N()); err != nil {
		t.Fatal(err)
	}
	ar := newPartArena(new(Arena), g)
	match, matched := heavyEdgeMatching(g, nil, opts, ar)
	coarse, _, _, err := contract(g, nil, match, matched, opts, ar)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := coarse.TotalWeight(), g.TotalWeight(); got != want {
		t.Fatalf("coarse total weight %g, want %g", got, want)
	}
}

// Property: multilevel keeps the Partition invariants on random graphs even
// with a tiny coarsenThreshold forcing real coarsening at small sizes.
func TestMultilevelInvariantsProperty(t *testing.T) {
	f := func(seed int64, nRaw, minRaw uint8) bool {
		n := int(nRaw%60) + 16
		min := int(minRaw%4) + 1
		rng := rand.New(rand.NewSource(seed))
		e := newEdges(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				e.add(u, v, float64(rng.Intn(100)+1))
			}
		}
		g := e.graph()
		part, err := Partition(g, PartitionOptions{
			MinSize: min, TargetSize: min, Multilevel: true, coarsenThreshold: 8,
		})
		if err != nil {
			return false
		}
		if len(part) != n {
			return false
		}
		total := 0
		for _, s := range PartSizes(part) {
			if s < min {
				return false
			}
			total += s
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
