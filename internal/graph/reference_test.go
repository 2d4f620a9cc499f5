package graph

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file retains the pre-optimization reference implementations of the
// partitioner's hot phases — hash-map frontier growth and the full-scan
// small-cluster merge — and of the graph builders, exactly as they ran
// before the arena / flat-frontier rewrite. The property tests
// below pin the optimized paths bit-identical to them: the partitioner sits
// inside evaluations whose outputs are compared byte-for-byte, so "faster"
// is only acceptable when it is also "identical".

// growReference is the historical grow: a fresh hash-map frontier per seed,
// scanned linearly for the heaviest (then lowest-index) candidate.
func growReference(g *Graph, opts PartitionOptions) ([]int, []int) {
	n := g.N()
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := g.strength[order[a]], g.strength[order[b]]
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	next := 0
	sizes := []int{}
	fallbackCursor := 0
	for _, seed := range order {
		if part[seed] != -1 {
			continue
		}
		id := next
		next++
		part[seed] = id
		size := 1
		conn := map[int]float64{}
		seedCols, seedWs := g.row(seed)
		for i, c := range seedCols {
			if part[c] == -1 {
				conn[int(c)] += seedWs[i]
			}
		}
		for size < opts.TargetSize {
			best, bestW := -1, -1.0
			for v, w := range conn {
				if opts.MaxSize != 0 && size+1 > opts.MaxSize {
					continue
				}
				if w > bestW || (w == bestW && (best == -1 || v < best)) {
					best, bestW = v, w
				}
			}
			if best == -1 {
				for fallbackCursor < n {
					if part[order[fallbackCursor]] == -1 {
						best = order[fallbackCursor]
						break
					}
					fallbackCursor++
				}
				if best == -1 {
					break
				}
			}
			part[best] = id
			delete(conn, best)
			size++
			cols, ws := g.row(best)
			for i, c := range cols {
				if part[c] == -1 {
					conn[int(c)] += ws[i]
				}
			}
		}
		sizes = append(sizes, size)
	}
	return part, sizes
}

// mergeSmallFullScan is the historical merge the partitioner ran before
// the indexed one: a full-graph scan and a fresh map per merge. Same policy
// — fold every cluster below MinSize into the neighbor it communicates with
// most, relaxing MaxSize when nothing fits.
func mergeSmallFullScan(g *Graph, part []int, sizes []int, opts PartitionOptions) ([]int, []int) {
	for {
		small := -1
		for id, s := range sizes {
			if s > 0 && s < opts.MinSize {
				small = id
				break
			}
		}
		if small == -1 {
			return part, sizes
		}
		if len(activeClusters(sizes)) == 1 {
			return part, sizes // nothing to merge with
		}
		// Connection weight from the small cluster to each other cluster.
		conn := map[int]float64{}
		for v := range part {
			if part[v] != small {
				continue
			}
			cols, ws := g.row(v)
			for i, c := range cols {
				if part[c] != small {
					conn[part[c]] += ws[i]
				}
			}
		}
		target := -1
		bestW := -1.0
		for id, w := range conn {
			fits := opts.MaxSize == 0 || sizes[id]+sizes[small] <= opts.MaxSize
			if fits && (w > bestW || (w == bestW && (target == -1 || id < target))) {
				target, bestW = id, w
			}
		}
		if target == -1 { // no fitting neighbor: relax MaxSize, then fall
			for id, w := range conn { // back to smallest cluster overall
				if w > bestW || (w == bestW && (target == -1 || id < target)) {
					target, bestW = id, w
				}
			}
		}
		if target == -1 {
			for id, s := range sizes {
				if id != small && s > 0 && (target == -1 || s < sizes[target]) {
					target = id
				}
			}
		}
		if target == -1 {
			return part, sizes
		}
		for v := range part {
			if part[v] == small {
				part[v] = target
			}
		}
		sizes[target] += sizes[small]
		sizes[small] = 0
	}
}

func activeClusters(sizes []int) []int {
	var out []int
	for id, s := range sizes {
		if s > 0 {
			out = append(out, id)
		}
	}
	return out
}

// randomWeightedGraph builds a connected graph with float weights whose
// binary expansions do not terminate — any reordering of additions, or any
// divergence in selection order, shows up as a changed bit.
func randomWeightedGraph(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	e := newEdges(n)
	for i := 0; i+1 < n; i++ {
		e.add(i, i+1, 0.1+rng.Float64()*99)
	}
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			e.add(u, v, 0.1+rng.Float64()*49)
		}
	}
	return e.graph()
}

// Property: flat-frontier growth (epoch-stamped weights + frontier list)
// produces identical seeds, assignments, and sizes to the retained hash-map
// reference on random weighted graphs, with and without MaxSize.
func TestGrowMatchesHashMapReference(t *testing.T) {
	var held Arena // one arena across every case
	for seed := int64(1); seed <= 12; seed++ {
		n := 200 + int(seed)*97
		g := randomWeightedGraph(seed, n)
		for _, opts := range []PartitionOptions{
			{MinSize: 4, TargetSize: 4},
			{MinSize: 2, TargetSize: 6, MaxSize: 8},
		} {
			if err := opts.normalize(n); err != nil {
				t.Fatal(err)
			}
			ar := newPartArena(&held, g)
			gotPart, gotSizes, err := grow(context.Background(), g, opts, ar)
			if err != nil {
				t.Fatal(err)
			}
			wantPart, wantSizes := growReference(g, opts)
			for v := range wantPart {
				if gotPart[v] != wantPart[v] {
					t.Fatalf("seed %d opts %+v: vertex %d assigned %d, reference %d",
						seed, opts, v, gotPart[v], wantPart[v])
				}
			}
			if len(gotSizes) != len(wantSizes) {
				t.Fatalf("seed %d: %d clusters, reference %d", seed, len(gotSizes), len(wantSizes))
			}
			for id := range wantSizes {
				if gotSizes[id] != wantSizes[id] {
					t.Fatalf("seed %d: cluster %d size %d, reference %d", seed, id, gotSizes[id], wantSizes[id])
				}
			}
		}
	}
}

// Property: on real growths the single merge and the retained full-scan
// merge — which loops until no cluster is undersized and prefers a
// neighbor that fits MaxSize — leave the same assignment and sizes. The
// graphs are sparse enough to be disconnected, so the fallback-grown last
// cluster also meets the case with no neighbor at all.
func TestMergeSmallMatchesFullScan(t *testing.T) {
	var held Arena // one arena across every case
	const cases = 3200
	needMerge := 0
	for seed := int64(0); seed < cases; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(201)
		e := newEdges(n)
		for m := rng.Intn(2 * n); m > 0; m-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			w := float64(1 + rng.Intn(40))
			if seed%2 == 1 {
				w = 0.1 + rng.Float64()*49
			}
			e.add(u, v, w)
		}
		g := e.graph()
		opts := PartitionOptions{MinSize: 1 + rng.Intn(6)}
		opts.TargetSize = opts.MinSize + rng.Intn(3)
		if rng.Intn(2) == 0 {
			opts.MaxSize = opts.TargetSize + rng.Intn(3)
		}
		if err := opts.normalize(n); err != nil {
			t.Fatal(err)
		}
		ar := newPartArena(&held, g)
		part, sizes, err := grow(context.Background(), g, opts, ar)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sizes {
			if s < opts.MinSize {
				needMerge++
				break
			}
		}
		wantPart, wantSizes := mergeSmallFullScan(g, append([]int(nil), part...), append([]int(nil), sizes...), opts)
		mergeSmall(g, part, sizes, opts, ar)
		want := compact(wantPart, make([]int32, n), make([]int, n))
		got := compact(part, make([]int32, n), make([]int, n))
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("seed %d opts %+v: vertex %d in cluster %d, full-scan merge %d", seed, opts, v, got[v], want[v])
			}
		}
		for id := range wantSizes {
			if sizes[id] != wantSizes[id] {
				t.Fatalf("seed %d opts %+v: cluster %d size %d, full-scan merge %d", seed, opts, id, sizes[id], wantSizes[id])
			}
		}
	}
	if needMerge < cases/4 {
		t.Fatalf("only %d of %d growths left a cluster to merge; the test proves little", needMerge, cases)
	}
	t.Logf("%d of %d growths left a cluster to merge", needMerge, cases)
}

// fromEdgesReference is the historical freeze of staged edges, exactly as it
// ran before graphs were built once: the same counting sort into rows, then
// per row an index-order sort.SliceStable by column and a coalesce through
// scratch copies.
func fromEdgesReference(n int, eu, ev []int32, ew []float64) *Graph {
	deg := make([]int64, n+1)
	for i := range eu {
		deg[eu[i]+1]++
		if eu[i] != ev[i] {
			deg[ev[i]+1]++
		}
	}
	rowptr := make([]int64, n+1)
	for u := 0; u < n; u++ {
		rowptr[u+1] = rowptr[u] + deg[u+1]
	}
	nnz := rowptr[n]
	col := make([]int32, nnz)
	w := make([]float64, nnz)
	fill := make([]int64, n)
	put := func(u, v int32, wt float64) {
		pos := rowptr[u] + fill[u]
		col[pos], w[pos] = v, wt
		fill[u]++
	}
	for i := range eu {
		put(eu[i], ev[i], ew[i])
		if eu[i] != ev[i] {
			put(ev[i], eu[i], ew[i])
		}
	}
	newPtr := make([]int64, n+1)
	write := int64(0)
	for u := 0; u < n; u++ {
		lo, hi := rowptr[u], rowptr[u+1]
		m := int(hi - lo)
		order := make([]int, m)
		for i := range order {
			order[i] = i
		}
		row, rowW := col[lo:hi], w[lo:hi]
		sort.SliceStable(order, func(i, j int) bool { return row[order[i]] < row[order[j]] })
		tmpC := make([]int32, m)
		tmpW := make([]float64, m)
		for i, o := range order {
			tmpC[i], tmpW[i] = row[o], rowW[o]
		}
		start := write
		for i := 0; i < m; i++ {
			if write > start && col[write-1] == tmpC[i] {
				w[write-1] += tmpW[i]
			} else {
				col[write], w[write] = tmpC[i], tmpW[i]
				write++
			}
		}
		newPtr[u+1] = write
	}
	g := &Graph{n: n, rowptr: newPtr, col: col[:write], w: w[:write]}
	g.fillAggregates()
	return g
}

// quotientReference is the historical Quotient: the same edge walk staged
// edge by edge (zero weights dropped, as AddEdge dropped them), then frozen
// by fromEdgesReference.
func quotientReference(g *Graph, part []int, parts int) *Graph {
	var eu, ev []int32
	var ew []float64
	for u := 0; u < g.n; u++ {
		cols, ws := g.row(u)
		for i, c := range cols {
			if int(c) >= u && ws[i] != 0 {
				eu = append(eu, int32(part[u]))
				ev = append(ev, int32(part[c]))
				ew = append(ew, ws[i])
			}
		}
	}
	return fromEdgesReference(parts, eu, ev, ew)
}

// randomEdgeList draws an undirected edge list on n vertices with every
// shape fromEdges must coalesce exactly: non-integer, integer and zero
// weights, self-loops, and repeated edges in both orientations — about a
// third of the endpoints land on vertex 0, so its row outgrows
// sortPairsStable's insertion-sort cutoff.
func randomEdgeList(rng *rand.Rand, n int) (eu, ev []int32, ew []float64) {
	if n == 0 {
		return nil, nil, nil
	}
	vertex := func() int32 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return int32(rng.Intn(n))
	}
	for m := rng.Intn(8*n + 1); m > 0; m-- {
		u, v := vertex(), vertex()
		var w float64
		switch rng.Intn(4) {
		case 0:
			w = float64(rng.Intn(50))
		case 1:
			w = 0
		default:
			w = 0.1 + rng.Float64()*49
		}
		eu, ev, ew = append(eu, u), append(ev, v), append(ew, w)
		if rng.Intn(4) == 0 { // a repeat, either orientation
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			eu, ev, ew = append(eu, u), append(ev, v), append(ew, 0.1+rng.Float64()*9)
		}
	}
	return eu, ev, ew
}

// sameGraph fails unless got and want agree on every CSR array and cached
// aggregate with ==.
func sameGraph(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if got.n != want.n || len(got.rowptr) != len(want.rowptr) || len(got.col) != len(want.col) ||
		len(got.w) != len(want.w) || len(got.strength) != len(want.strength) {
		t.Fatalf("%s: shape n=%d rowptr=%d col=%d w=%d strength=%d, reference %d/%d/%d/%d/%d", name,
			got.n, len(got.rowptr), len(got.col), len(got.w), len(got.strength),
			want.n, len(want.rowptr), len(want.col), len(want.w), len(want.strength))
	}
	for i := range want.rowptr {
		if got.rowptr[i] != want.rowptr[i] {
			t.Fatalf("%s: rowptr[%d] = %d, reference %d", name, i, got.rowptr[i], want.rowptr[i])
		}
	}
	for i := range want.col {
		if got.col[i] != want.col[i] || got.w[i] != want.w[i] {
			t.Fatalf("%s: entry %d = (%d, %v), reference (%d, %v)", name, i, got.col[i], got.w[i], want.col[i], want.w[i])
		}
	}
	for u := range want.strength {
		if got.strength[u] != want.strength[u] {
			t.Fatalf("%s: strength[%d] = %v, reference %v", name, u, got.strength[u], want.strength[u])
		}
	}
	if got.total != want.total || got.nedges != want.nedges {
		t.Fatalf("%s: total %v, %d edges; reference %v, %d", name, got.total, got.nedges, want.total, want.nedges)
	}
}

// Property: fromEdges (coalesceRow per row) builds the same graph, to the
// bit, as the historical freeze on random edge lists.
func TestFromEdgesMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60)
		eu, ev, ew := randomEdgeList(rng, n)
		want := fromEdgesReference(n, eu, ev, ew)
		got := fromEdges(n, eu, ev, ew)
		sameGraph(t, fmt.Sprintf("seed %d (n=%d, %d edges)", seed, n, len(eu)), got, want)
	}
}

// Property: Quotient matches the historical stage-then-freeze quotient to
// the bit, with parts that receive no vertex and source graphs carrying
// zero-weight entries (which the quotient drops).
func TestQuotientMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60)
		eu, ev, ew := randomEdgeList(rng, n)
		g := fromEdges(n, eu, ev, ew)
		parts := (n+1)/2 + rng.Intn(4) // 0 only when n is
		part := make([]int, n)
		for v := range part {
			part[v] = rng.Intn(parts)
		}
		q, err := g.Quotient(part, parts)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, fmt.Sprintf("seed %d (n=%d, %d parts)", seed, n, parts), q, quotientReference(g, part, parts))
	}
}

// The radix seed sort is the comparison sort's order (strength descending,
// index ascending) however many key bytes vary: none, exactly one (each
// position in turn), several, or all eight, with ties throughout, and for
// zero and one vertex.
func TestSortSeedsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	base := math.Float64bits(1.5)
	withBytes := func(n int, shifts ...int) []float64 {
		s := make([]float64, n)
		for i := range s {
			bitsOf := base
			for _, shift := range shifts {
				bitsOf = bitsOf&^(0xff<<shift) | uint64(rng.Intn(4)*60)<<shift
			}
			s[i] = math.Float64frombits(bitsOf)
		}
		return s
	}
	cases := map[string][]float64{
		"empty":         {},
		"one":           {2.5},
		"all equal":     withBytes(300),
		"several bytes": withBytes(300, 0, 16, 40),
		"eight bytes":   nil,
	}
	for shift := 0; shift < 56; shift += 8 { // byte 7 holds the sign bit: a negative strength never occurs
		cases[fmt.Sprintf("byte %d", shift/8)] = withBytes(300, shift)
	}
	spread := make([]float64, 400)
	for i := range spread {
		spread[i] = [4]float64{0, 1e-300, 1e300, 3}[rng.Intn(4)] * float64(rng.Intn(3))
		if i%5 == 0 {
			spread[i] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
		}
	}
	cases["eight bytes"] = spread
	for name, strength := range cases {
		n := len(strength)
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(strength[b], strength[a]) })
		got := sortSeedsByStrength(strength, make([]int, n), make([]int, n), make([]uint64, n), make([]uint64, n))
		if !slices.Equal(got, want) {
			t.Errorf("%s: radix order %v, stable sort %v", name, got, want)
		}
	}
	var changed uint64
	for _, s := range spread {
		changed |= math.Float64bits(s) ^ math.Float64bits(spread[0])
	}
	for shift := 0; shift < 64; shift += 8 {
		if byte(changed>>shift) == 0 {
			t.Errorf("the eight-byte case leaves byte %d constant", shift/8)
		}
	}
}
