package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// This file retains the pre-optimization reference implementations of the
// partitioner's hot phases — hash-map frontier growth, two-pass contraction,
// map-based small-cluster merging (weighted and unit-weight) — exactly as
// they ran before the arena / flat-frontier rewrite. The property tests
// below pin the optimized paths bit-identical to them: the partitioner sits
// inside evaluations whose outputs are compared byte-for-byte, so "faster"
// is only acceptable when it is also "identical".

// growReference is the historical grow: a fresh hash-map frontier per seed,
// scanned linearly for the heaviest (then lowest-index) candidate.
func growReference(g *Graph, opts PartitionOptions, vw []int) ([]int, []int) {
	g.ensureAggregates()
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
		size := vweight(vw, seed)
		if size >= opts.TargetSize {
			sizes = append(sizes, size)
			continue
		}
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
				if opts.MaxSize != 0 && size+vweight(vw, v) > opts.MaxSize {
					continue
				}
				if w > bestW || (w == bestW && (best == -1 || v < best)) {
					best, bestW = v, w
				}
			}
			if best == -1 {
				if vw != nil {
					break
				}
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
			size += vweight(vw, best)
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

// contractReference is the historical two-pass contraction: one pass to
// number coarse vertices, one to collect constituents and weights, one to
// size the capacity rows, then the gather — each its own traversal, with
// per-level allocations, finishing through the validating FromCSR.
func contractReference(g *Graph, vw []int, match []int32) (*Graph, []int32, []int, error) {
	n := g.N()
	cmap := make([]int32, n)
	nc := 0
	for u := 0; u < n; u++ {
		m := int(match[u])
		if m == -1 || u < m {
			cmap[u] = int32(nc)
			nc++
		} else {
			cmap[u] = cmap[m]
		}
	}
	cvw := make([]int, nc)
	mem1 := make([]int32, nc)
	mem2 := make([]int32, nc)
	for c := range mem1 {
		mem1[c], mem2[c] = -1, -1
	}
	for u := 0; u < n; u++ {
		c := cmap[u]
		if mem1[c] == -1 {
			mem1[c] = int32(u)
		} else {
			mem2[c] = int32(u)
		}
		cvw[c] += vweight(vw, u)
	}
	capPtr := make([]int64, nc+1)
	for c := 0; c < nc; c++ {
		d := g.rowptr[mem1[c]+1] - g.rowptr[mem1[c]]
		if m := mem2[c]; m != -1 {
			d += g.rowptr[m+1] - g.rowptr[m]
		}
		capPtr[c+1] = capPtr[c] + d
	}
	col := make([]int32, capPtr[nc])
	w := make([]float64, capPtr[nc])
	cnt := make([]int32, nc)
	for c := 0; c < nc; c++ {
		base := capPtr[c]
		k := int64(0)
		gather := func(u int32) {
			cols, ws := g.row(int(u))
			for i, cc := range cols {
				tc := cmap[cc]
				if int(tc) == c && cc < u {
					continue
				}
				col[base+k], w[base+k] = tc, ws[i]
				k++
			}
		}
		gather(mem1[c])
		if mem2[c] != -1 {
			gather(mem2[c])
		}
		span := col[base : base+k]
		spanW := w[base : base+k]
		sortPairsStable(span, spanW)
		write := int64(0)
		for i := int64(0); i < k; i++ {
			if write > 0 && span[write-1] == span[i] {
				spanW[write-1] += spanW[i]
			} else {
				span[write], spanW[write] = span[i], spanW[i]
				write++
			}
		}
		cnt[c] = int32(write)
	}
	rowptr := make([]int64, nc+1)
	for c := 0; c < nc; c++ {
		rowptr[c+1] = rowptr[c] + int64(cnt[c])
	}
	fcol := make([]int32, rowptr[nc])
	fw := make([]float64, rowptr[nc])
	for c := 0; c < nc; c++ {
		copy(fcol[rowptr[c]:rowptr[c+1]], col[capPtr[c]:capPtr[c]+int64(cnt[c])])
		copy(fw[rowptr[c]:rowptr[c+1]], w[capPtr[c]:capPtr[c]+int64(cnt[c])])
	}
	coarse, err := (*Arena)(nil).FromCSR(nc, rowptr, fcol, fw)
	if err != nil {
		return nil, nil, nil, err
	}
	return coarse, cmap, cvw, nil
}

// mergeSmallWeightedReference is the historical map-based weighted merge.
func mergeSmallWeightedReference(g *Graph, part []int, sizes []int, opts PartitionOptions) ([]int, []int) {
	n := g.N()
	k := len(sizes)
	head := make([]int32, k)
	tail := make([]int32, k)
	for i := range head {
		head[i], tail[i] = -1, -1
	}
	next := make([]int32, n)
	for v := n - 1; v >= 0; v-- {
		id := part[v]
		next[v] = head[id]
		head[id] = int32(v)
		if tail[id] == -1 {
			tail[id] = int32(v)
		}
	}
	parent := make([]int32, k)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(id int32) int32 {
		for parent[id] != id {
			parent[id] = parent[parent[id]]
			id = parent[id]
		}
		return id
	}
	active := 0
	var queue []int32
	for id := 0; id < k; id++ {
		if sizes[id] > 0 {
			active++
			if sizes[id] < opts.MinSize {
				queue = append(queue, int32(id))
			}
		}
	}
	conn := map[int32]float64{}
	for qi := 0; qi < len(queue); qi++ {
		small := find(queue[qi])
		if sizes[small] == 0 || sizes[small] >= opts.MinSize {
			continue
		}
		if active <= 1 {
			break
		}
		clear(conn)
		for v := head[small]; v != -1; v = next[v] {
			cols, ws := g.row(int(v))
			for i, c := range cols {
				if root := find(int32(part[c])); root != small {
					conn[root] += ws[i]
				}
			}
		}
		target := int32(-1)
		bestW := -1.0
		for id, w := range conn {
			fits := opts.MaxSize == 0 || sizes[id]+sizes[small] <= opts.MaxSize
			if fits && (w > bestW || (w == bestW && (target == -1 || id < target))) {
				target, bestW = id, w
			}
		}
		if target == -1 {
			for id, w := range conn {
				if w > bestW || (w == bestW && (target == -1 || id < target)) {
					target, bestW = id, w
				}
			}
		}
		if target == -1 {
			for id := 0; id < k; id++ {
				root := int32(id)
				if parent[root] != root || root == small || sizes[root] == 0 {
					continue
				}
				if target == -1 || sizes[root] < sizes[target] {
					target = root
				}
			}
		}
		if target == -1 {
			break
		}
		parent[small] = target
		sizes[target] += sizes[small]
		sizes[small] = 0
		if head[target] == -1 {
			head[target], tail[target] = head[small], tail[small]
		} else {
			next[tail[target]] = head[small]
			tail[target] = tail[small]
		}
		active--
		if sizes[target] < opts.MinSize {
			queue = append(queue, target)
		}
	}
	for v := range part {
		part[v] = int(find(int32(part[v])))
	}
	return part, sizes
}

// mergeSmall is the historical unit-weight merge the single-level path ran
// before it shared mergeSmallWeighted: a full-graph scan and a fresh map per
// merge. Same policy — fold every cluster below MinSize into the neighbor it
// communicates with most, relaxing MaxSize when nothing fits.
func mergeSmall(g *Graph, part []int, sizes []int, opts PartitionOptions) ([]int, []int) {
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
// reference on random weighted graphs — unit weights and multilevel-style
// vertex weights, with and without MaxSize.
func TestGrowMatchesHashMapReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		n := 200 + int(seed)*97
		g := randomWeightedGraph(seed, n)
		var vw []int
		if seed%2 == 0 { // alternate: weighted path with capped weights
			rng := rand.New(rand.NewSource(seed * 13))
			vw = make([]int, n)
			for i := range vw {
				vw[i] = 1 + rng.Intn(4)
			}
		}
		for _, opts := range []PartitionOptions{
			{MinSize: 4, TargetSize: 4},
			{MinSize: 2, TargetSize: 6, MaxSize: 8},
		} {
			if err := opts.normalize(n); err != nil {
				t.Fatal(err)
			}
			ar := newPartArena(g)
			gotPart, gotSizes := grow(g, opts, vw, ar)
			wantPart, wantSizes := growReference(g, opts, vw)
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
			ar.Release()
		}
	}
}

// Property: the fused single-traversal contraction produces a coarse graph
// byte-identical (rowptr, columns, weights, vertex map, vertex weights) to
// the retained two-pass implementation, on every partition test graph.
func TestContractFusedMatchesTwoPass(t *testing.T) {
	for _, tc := range goldenGraphs() {
		g := tc.g
		opts := tc.opts
		if err := opts.normalize(g.N()); err != nil {
			t.Fatal(err)
		}
		ar := newPartArena(g)
		var vw []int
		for level := 0; level < 3; level++ {
			match, matched := heavyEdgeMatching(g, vw, opts, ar)
			if matched == 0 {
				break
			}
			fused, cmap, cvw, err := contract(g, vw, match, matched, opts, ar)
			if err != nil {
				t.Fatalf("%s L%d: fused: %v", tc.name, level, err)
			}
			ref, refCmap, refCvw, err := contractReference(g, vw, match)
			if err != nil {
				t.Fatalf("%s L%d: reference: %v", tc.name, level, err)
			}
			if fused.N() != ref.N() {
				t.Fatalf("%s L%d: fused %d coarse vertices, reference %d", tc.name, level, fused.N(), ref.N())
			}
			for v := range refCmap {
				if cmap[v] != refCmap[v] {
					t.Fatalf("%s L%d: cmap[%d] = %d, reference %d", tc.name, level, v, cmap[v], refCmap[v])
				}
			}
			for c := range refCvw {
				if cvw[c] != refCvw[c] {
					t.Fatalf("%s L%d: cvw[%d] = %d, reference %d", tc.name, level, c, cvw[c], refCvw[c])
				}
			}
			for u := 0; u <= ref.N(); u++ {
				if fused.rowptr[u] != ref.rowptr[u] {
					t.Fatalf("%s L%d: rowptr[%d] = %d, reference %d", tc.name, level, u, fused.rowptr[u], ref.rowptr[u])
				}
			}
			for i := range ref.col {
				if fused.col[i] != ref.col[i] || fused.w[i] != ref.w[i] {
					t.Fatalf("%s L%d: entry %d = (%d, %v), reference (%d, %v)",
						tc.name, level, i, fused.col[i], fused.w[i], ref.col[i], ref.w[i])
				}
			}
			g, vw = ref, refCvw // descend on the reference graph
		}
		ar.Release()
	}
}

// Property: the epoch-stamped flat-array weighted merge matches the
// retained map-based merge exactly, starting from real weighted growths.
func TestMergeSmallWeightedMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		n := 300 + int(seed)*61
		g := randomWeightedGraph(seed, n)
		rng := rand.New(rand.NewSource(seed * 7))
		vw := make([]int, n)
		for i := range vw {
			vw[i] = 1 + rng.Intn(4)
		}
		opts := PartitionOptions{MinSize: 6, TargetSize: 6}
		if err := opts.normalize(n); err != nil {
			t.Fatal(err)
		}
		ar := newPartArena(g)
		part, sizes := grow(g, opts, vw, ar)
		refPart := append([]int(nil), part...)
		refSizes := append([]int(nil), sizes...)
		gotPart, gotSizes := mergeSmallWeighted(g, part, sizes, opts, ar)
		wantPart, wantSizes := mergeSmallWeightedReference(g, refPart, refSizes, opts)
		for v := range wantPart {
			if gotPart[v] != wantPart[v] {
				t.Fatalf("seed %d: vertex %d in cluster %d, reference %d", seed, v, gotPart[v], wantPart[v])
			}
		}
		for id := range wantSizes {
			if gotSizes[id] != wantSizes[id] {
				t.Fatalf("seed %d: cluster %d size %d, reference %d", seed, id, gotSizes[id], wantSizes[id])
			}
		}
		ar.Release()
	}
}

// Property: on unit-weight growths — the only input the single-level path
// ever handed mergeSmall — the indexed merge and the retained full-scan merge
// choose the same target. The graphs are sparse enough to be disconnected,
// so the fallback-grown last cluster exercises all three target rules
// (fitting neighbor, MaxSize relaxed, smallest cluster overall).
func TestMergeSmallWeightedMatchesUnitMerge(t *testing.T) {
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
		ar := newPartArena(g)
		part, sizes := grow(g, opts, nil, ar)
		for _, s := range sizes {
			if s < opts.MinSize {
				needMerge++
				break
			}
		}
		wantPart, _ := mergeSmall(g, append([]int(nil), part...), append([]int(nil), sizes...), opts)
		gotPart, _ := mergeSmallWeighted(g, part, sizes, opts, ar)
		want := compact(wantPart, make([]int32, n), make([]int, n))
		got := compact(gotPart, make([]int32, n), make([]int, n))
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("seed %d opts %+v: vertex %d in cluster %d, unit merge %d", seed, opts, v, got[v], want[v])
			}
		}
		ar.Release()
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
