package graph

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

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

// Below CoarsenThreshold the multilevel flag is inert: the assignment must
// be identical to single-level, not merely no worse.
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

// The multilevel assignment must be bit-identical at any worker count and
// across repeated runs — the partitioner sits inside evaluations whose
// outputs are compared byte-for-byte.
func TestMultilevelWorkerInvariance(t *testing.T) {
	// Raise GOMAXPROCS so the capped worker counts stay distinct and the
	// parallel phases actually engage on single-core hosts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	g := stencil2D(8192, 128)
	var ref []int
	for _, workers := range []int{1, 2, 3, 8} {
		part, err := Partition(g, PartitionOptions{
			MinSize: 4, TargetSize: 4, Multilevel: true, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = part
			continue
		}
		for v := range ref {
			if ref[v] != part[v] {
				t.Fatalf("workers=%d: vertex %d assigned %d, want %d", workers, v, part[v], ref[v])
			}
		}
	}
	again, err := Partition(g, PartitionOptions{
		MinSize: 4, TargetSize: 4, Multilevel: true, Workers: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := range ref {
		if ref[v] != again[v] {
			t.Fatalf("repeat run diverged at vertex %d", v)
		}
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
	ar := newPartArena(g)
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

// An ineligible (never-matchable) vertex skips the worklist, so nothing
// resets its cand slot — but the parallel acceptor phase scans neighbors'
// cand slots. A recycled arena can hand matching a cand array full of
// plausible vertex ids; if ineligible slots are not cleared, a stale id
// reads as a live proposal and binds an asymmetric, cap-violating match.
// This pins the fix on the parallel path (weighted level wide enough that
// Workers>1 engages it) against the serial path's result.
func TestHeavyEdgeMatchingIneligibleStaleCand(t *testing.T) {
	// Two P's so effectiveWorkers(n, 2) == 2 even on a one-core host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	n := 3 * mlChunk // wide enough for effectiveWorkers(n, 2) == 2
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
	run := func(workers int) []int32 {
		o := opts
		o.Workers = workers
		ar := newPartArena(g)
		defer ar.release()
		// Poison cand as a recycled arena would: every slot names a
		// plausible neighbor.
		for i := range ar.cand[:n] {
			ar.cand[i] = int32((i + 1) % n)
		}
		match, _ := heavyEdgeMatching(g, vw, o, ar)
		out := make([]int32, n)
		copy(out, match)
		return out
	}
	serial := run(1)
	parallel := run(2)
	for u := 0; u < n; u++ {
		if parallel[u] != serial[u] {
			t.Fatalf("vertex %d: parallel match %d, serial %d (stale cand leaked into a binding)",
				u, parallel[u], serial[u])
		}
		m := parallel[u]
		if m == -1 {
			continue
		}
		if vw[u]+1 > opts.TargetSize {
			t.Fatalf("ineligible vertex %d got matched to %d", u, m)
		}
		if parallel[m] != int32(u) {
			t.Fatalf("asymmetric match: match[%d]=%d but match[%d]=%d", u, m, m, parallel[m])
		}
		if vw[u]+vw[m] > opts.TargetSize {
			t.Fatalf("pair {%d,%d} weight %d bursts cap %d", u, m, vw[u]+vw[m], opts.TargetSize)
		}
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
	ar := newPartArena(g)
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
// with a tiny CoarsenThreshold forcing real coarsening at small sizes.
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
			MinSize: min, TargetSize: min, Multilevel: true, CoarsenThreshold: 8,
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
