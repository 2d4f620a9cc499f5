// Package graph provides the weighted undirected graphs and the
// size-constrained partitioning algorithm behind the paper's L1 clustering.
//
// The failure-containment clustering of the paper (following Ropars et al.,
// Euro-Par 2011 [24]) partitions the *node-based* communication graph so
// that the weight of edges crossing cluster boundaries — the bytes that must
// be message-logged — is minimized, subject to bounds on cluster size.
// The package also computes the network measures that motivated the
// hierarchical design (§IV-A): Newman modularity and degree distributions,
// the "functional segregation" and "degree distribution" markers of brain
// networks.
//
// A Graph is built once, as compressed-sparse-row (CSR) adjacency — sorted
// neighbor arrays with O(deg) iteration, O(log deg) weight lookup, and
// per-vertex strengths cached at construction — and never changes after.
// CSR keeps the partitioner and the network measures cache-friendly on
// graphs with 10⁴–10⁵ vertices, where the previous map-per-vertex layout
// thrashed.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a weighted undirected graph on vertices 0..N-1. Self-loops are
// permitted (they count toward vertex strength but can never be cut). Edge
// weights are float64 so they can carry byte counts of arbitrary magnitude.
//
// A Graph is immutable: it is built once (FromCSR, Quotient) and no
// method changes it, so concurrent reads are safe. A graph built in an
// Arena lives until that arena's next Reset.
type Graph struct {
	n int

	// CSR adjacency: row u is col/w[rowptr[u]:rowptr[u+1]], columns
	// strictly ascending (duplicates coalesced at construction).
	rowptr   []int64
	col      []int32
	w        []float64
	strength []float64
	total    float64
	nedges   int
}

// FromCSR builds a graph directly from CSR adjacency — the zero-copy entry
// point for callers (like the trace package) that produce adjacency in
// bulk — with the strengths carved from ar, so a graph built on arrays
// carved from the same arena lives entirely in it; through a nil arena the
// graph owns the arrays. The rows must describe a symmetric adjacency with
// strictly ascending, in-range columns; rowptr must have n+1 monotonically
// non-decreasing entries starting at 0. Symmetry itself is trusted, not
// verified.
func (ar *Arena) FromCSR(n int, rowptr []int64, col []int32, w []float64) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if len(rowptr) != n+1 || rowptr[0] != 0 || rowptr[n] != int64(len(col)) || len(col) != len(w) {
		return nil, fmt.Errorf("graph: inconsistent CSR shape (n=%d, rowptr=%d, col=%d, w=%d)",
			n, len(rowptr), len(col), len(w))
	}
	g := &Graph{n: n, rowptr: rowptr, col: col, w: w, strength: ar.Float64s(n)}
	if err := g.fillAggregates(); err != nil {
		return nil, err
	}
	return g, nil
}

// fromEdges builds a graph from an undirected edge list {eu[i], ev[i]} of
// weight ew[i] (in range, as Quotient guarantees): a counting sort places
// both orientations of each edge (a self-loop once) in its rows in list
// order, then coalesceRow merges each row's duplicate columns — stable, so
// repeated edges sum in list order.
func fromEdges(n int, eu, ev []int32, ew []float64) *Graph {
	rowptr := make([]int64, n+1)
	for i := range eu {
		rowptr[eu[i]+1]++
		if eu[i] != ev[i] {
			rowptr[ev[i]+1]++
		}
	}
	for u := 0; u < n; u++ {
		rowptr[u+1] += rowptr[u]
	}
	col := make([]int32, rowptr[n])
	w := make([]float64, rowptr[n])
	fill := append([]int64(nil), rowptr[:n]...)
	for i := range eu {
		u, v := eu[i], ev[i]
		col[fill[u]], w[fill[u]] = v, ew[i]
		fill[u]++
		if u != v {
			col[fill[v]], w[fill[v]] = u, ew[i]
			fill[v]++
		}
	}
	// Coalesce each row in place, then slide it down over the entries the
	// rows before it merged away; rowptr[u+1] is still the old bound when
	// row u+1 is read.
	write := int64(0)
	for u := 0; u < n; u++ {
		lo, hi := rowptr[u], rowptr[u+1]
		k := coalesceRow(col[lo:hi], w[lo:hi])
		copy(col[write:], col[lo:lo+k])
		copy(w[write:], w[lo:lo+k])
		rowptr[u] = write
		write += k
	}
	rowptr[n] = write
	g := &Graph{n: n, rowptr: rowptr, col: col[:write], w: w[:write]}
	_ = g.fillAggregates() // the rows are in range and ascending by construction
	return g
}

// coalesceRow stably sorts one row's (col, w) pairs by column and sums the
// weights of equal columns in place, returning the coalesced length. Stable
// order keeps same-column weights summing in fill order, so the sums are
// deterministic.
func coalesceRow(col []int32, w []float64) int64 {
	sortPairsStable(col, w)
	write := int64(0)
	for i := range col {
		if write > 0 && col[write-1] == col[i] {
			w[write-1] += w[i]
		} else {
			col[write], w[write] = col[i], w[i]
			write++
		}
	}
	return write
}

// sortPairsStable stably sorts the parallel (col, w) arrays by column:
// insertion sort for short rows, library stable sort beyond that.
func sortPairsStable(col []int32, w []float64) {
	n := len(col)
	if n <= 48 {
		for i := 1; i < n; i++ {
			c, wt := col[i], w[i]
			j := i - 1
			for j >= 0 && col[j] > c {
				col[j+1], w[j+1] = col[j], w[j]
				j--
			}
			col[j+1], w[j+1] = c, wt
		}
		return
	}
	sort.Stable(&pairSorter{col: col, w: w})
}

type pairSorter struct {
	col []int32
	w   []float64
}

func (p *pairSorter) Len() int           { return len(p.col) }
func (p *pairSorter) Less(i, j int) bool { return p.col[i] < p.col[j] }
func (p *pairSorter) Swap(i, j int) {
	p.col[i], p.col[j] = p.col[j], p.col[i]
	p.w[i], p.w[j] = p.w[j], p.w[i]
}

// fillAggregates computes the strengths, the total weight and the edge count
// in one pass over the rows, and checks on the same pass that rowptr never
// decreases and that every row's columns are in range and strictly
// ascending; it stops at the first row that fails.
func (g *Graph) fillAggregates() error {
	if g.strength == nil {
		g.strength = make([]float64, g.n)
	}
	g.total = 0
	g.nedges = 0
	for u := 0; u < g.n; u++ {
		lo, hi := g.rowptr[u], g.rowptr[u+1]
		if hi < lo {
			return fmt.Errorf("graph: rowptr decreases at vertex %d", u)
		}
		var s float64
		for i := lo; i < hi; i++ {
			c := g.col[i]
			if c < 0 || int(c) >= g.n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", u, c)
			}
			if i > lo && c <= g.col[i-1] {
				return fmt.Errorf("graph: vertex %d has unsorted or duplicate neighbors", u)
			}
			s += g.w[i]
			if int(c) >= u {
				g.total += g.w[i]
				g.nedges++
			}
		}
		g.strength[u] = s
	}
	return nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// row returns vertex u's adjacency (columns ascending).
func (g *Graph) row(u int) ([]int32, []float64) {
	lo, hi := g.rowptr[u], g.rowptr[u+1]
	return g.col[lo:hi], g.w[lo:hi]
}

// Weight returns the weight of edge {u,v}, 0 if absent — O(log deg).
func (g *Graph) Weight(u, v int) float64 {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0
	}
	cols, ws := g.row(u)
	i := sort.Search(len(cols), func(i int) bool { return cols[i] >= int32(v) })
	if i < len(cols) && cols[i] == int32(v) {
		return ws[i]
	}
	return 0
}

// Neighbors returns the neighbors of u (including u itself if self-looped)
// in ascending order.
func (g *Graph) Neighbors(u int) []int {
	if u < 0 || u >= g.n {
		return nil
	}
	cols, _ := g.row(u)
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = int(c)
	}
	return out
}

// Degree returns the number of distinct neighbors of u, not counting a
// self-loop.
func (g *Graph) Degree(u int) int {
	if u < 0 || u >= g.n {
		return 0
	}
	cols, _ := g.row(u)
	d := len(cols)
	i := sort.Search(len(cols), func(i int) bool { return cols[i] >= int32(u) })
	if i < len(cols) && cols[i] == int32(u) {
		d--
	}
	return d
}

// Strength returns the total weight incident to u. A self-loop counts once.
func (g *Graph) Strength(u int) float64 {
	if u < 0 || u >= g.n {
		return 0
	}
	return g.strength[u]
}

// TotalWeight returns the sum of all edge weights (each undirected edge
// counted once; self-loops counted once).
func (g *Graph) TotalWeight() float64 {
	return g.total
}

// EdgeCount returns the number of distinct undirected edges, self-loops
// included.
func (g *Graph) EdgeCount() int {
	return g.nedges
}

// Quotient collapses the graph along part: vertices with the same part id
// become one vertex; edge weights between parts accumulate, intra-part
// weights become self-loops. part must assign each vertex an id in
// 0..parts-1. This converts a process-level communication graph into the
// node-based graph the paper partitions.
func (g *Graph) Quotient(part []int, parts int) (*Graph, error) {
	if len(part) != g.n {
		return nil, fmt.Errorf("graph: quotient map has %d entries for %d vertices", len(part), g.n)
	}
	if parts < 0 {
		return nil, fmt.Errorf("graph: negative part count %d", parts)
	}
	var eu, ev []int32
	var ew []float64
	for u := 0; u < g.n; u++ {
		pu := part[u]
		if pu < 0 || pu >= parts {
			return nil, fmt.Errorf("graph: vertex %d mapped to part %d out of range 0..%d", u, pu, parts-1)
		}
		cols, ws := g.row(u)
		for i, c := range cols {
			v := int(c)
			if v < u {
				continue // count each undirected edge once
			}
			pv := part[v]
			if pv < 0 || pv >= parts {
				return nil, fmt.Errorf("graph: vertex %d mapped to part %d out of range 0..%d", v, pv, parts-1)
			}
			if ws[i] != 0 {
				eu, ev, ew = append(eu, int32(pu)), append(ev, int32(pv)), append(ew, ws[i])
			}
		}
	}
	return fromEdges(parts, eu, ev, ew), nil
}

// CutWeight returns the total weight of edges whose endpoints lie in
// different parts under the given assignment. Self-loops never contribute.
// This is exactly the volume of communication that a failure-containment
// protocol with clusters = parts must log.
func (g *Graph) CutWeight(part []int) (float64, error) {
	if len(part) != g.n {
		return 0, fmt.Errorf("graph: assignment has %d entries for %d vertices", len(part), g.n)
	}
	var cut float64
	for u := 0; u < g.n; u++ {
		cols, ws := g.row(u)
		for i, c := range cols {
			if int(c) > u && part[u] != part[c] {
				cut += ws[i]
			}
		}
	}
	return cut, nil
}

// Modularity returns the Newman modularity Q of the partition: the fraction
// of weight inside parts minus the expectation of that fraction under a
// degree-preserving random rewiring. High Q is the "functional segregation"
// property the paper borrows from brain-network analysis.
func (g *Graph) Modularity(part []int) (float64, error) {
	if len(part) != g.n {
		return 0, fmt.Errorf("graph: assignment has %d entries for %d vertices", len(part), g.n)
	}
	m2 := 0.0 // total degree = 2m (self-loops count twice here, per Newman)
	for u := 0; u < g.n; u++ {
		cols, ws := g.row(u)
		for i, c := range cols {
			m2 += ws[i]
			if int(c) == u {
				m2 += ws[i]
			}
		}
	}
	if m2 == 0 {
		return 0, nil
	}
	intra := map[int]float64{}    // weight fully inside each part (doubled)
	strength := map[int]float64{} // total strength per part
	for u := 0; u < g.n; u++ {
		cols, ws := g.row(u)
		for i, c := range cols {
			du := ws[i]
			if int(c) == u {
				du = 2 * ws[i]
			}
			strength[part[u]] += du
			if part[u] == part[c] {
				intra[part[u]] += du
			}
		}
	}
	var q float64
	for _, in := range intra {
		q += in / m2
	}
	for _, s := range strength {
		q -= (s / m2) * (s / m2)
	}
	return q, nil
}

// DegreeStats summarizes a graph's degree distribution — the paper's second
// brain-network marker of resilience.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// Hist[d] = number of vertices with degree d, for d in 0..Max.
	Hist []int
}

// DegreeDistribution computes degree statistics over all vertices.
func (g *Graph) DegreeDistribution() DegreeStats {
	st := DegreeStats{Min: 0, Max: 0}
	if g.n == 0 {
		return st
	}
	st.Min = g.n // sentinel above any possible degree
	total := 0
	degs := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		d := g.Degree(u)
		degs[u] = d
		total += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
	}
	st.Mean = float64(total) / float64(g.n)
	st.Hist = make([]int, st.Max+1)
	for _, d := range degs {
		st.Hist[d]++
	}
	return st
}
