package trace

import (
	"fmt"
	"slices"

	"hierclust/internal/graph"
	"hierclust/internal/topology"
)

// rows is the row source the folds below read: rank r's cells are
// col/bytes/msgs[lo:hi] for lo, hi = span(r), columns ascending. A *CSR hands
// out its arrays and span reads rowPtr; a *Stencil has span write the row's
// columns into the caller's four-entry buffer behind col, with values a
// window of the stencil's repeated pair volume. A tagged struct, not an
// interface: span is a direct call and the buffer stays on the stack
// (through an interface or a type parameter — both pointer shapes — it
// escapes, one allocation per fold).
type rows struct {
	n           int
	rowPtr      []int64 // nil: st fills col per row
	col         []int32
	bytes, msgs []int64
	st          *Stencil
	// sym: cell (r,s) is present with bytes b iff (s,r) is, with the same b > 0,
	// and the cells sum within int64. Set only where the source has that by
	// construction ((*Stencil).view, never a *CSR); read only by nodeGraph.
	sym bool
}

func (c *CSR) view() rows {
	return rows{n: c.n, rowPtr: c.rowPtr, col: c.col, bytes: c.bytes, msgs: c.msgs}
}

func (s *Stencil) view(buf *[4]int32) rows {
	return rows{n: s.n, st: s, col: buf[:], bytes: s.bytes[:], msgs: s.msgs[:], sym: true}
}

// span returns rank r's window; a stencil's is valid until the next call.
func (v *rows) span(r int) (lo, hi int64) {
	if v.st != nil {
		return 0, int64(v.st.row(r, (*[4]int32)(v.col)))
	}
	return v.rowPtr[r], v.rowPtr[r+1]
}

// cutBytes returns the bytes crossing cluster boundaries under part
// (part[r] = cluster of rank r), in O(nnz).
func cutBytes(v rows, part []int32) (int64, error) {
	if err := checkPart(part, v.n); err != nil {
		return 0, err
	}
	var cut int64
	for s := 0; s < v.n; s++ {
		ps := part[s]
		for i, hi := v.span(s); i < hi; i++ {
			if part[v.col[i]] != ps {
				cut += v.bytes[i]
			}
		}
	}
	return cut, nil
}

// checkPart reports an assignment that does not cover exactly n ranks.
func checkPart(part []int32, n int) error {
	if len(part) != n {
		return fmt.Errorf("trace: assignment has %d entries for %d ranks", len(part), n)
	}
	return nil
}

// loggedFraction returns cutBytes/total, the paper's message-logging
// overhead metric. An empty trace logs nothing (0).
func loggedFraction(v rows, total int64, part []int32) (float64, error) {
	if total == 0 {
		return 0, nil
	}
	cut, err := cutBytes(v, part)
	if err != nil {
		return 0, err
	}
	return float64(cut) / float64(total), nil
}

// foldPoll is how many node rows each pass of nodeGraph folds between two
// polls of its cancel function.
const foldPoll = 4096

// nodeGraph aggregates the rank rows under a placement into the undirected
// node graph the L1 partitioner consumes: vertex a is p.UsedNode(a), edge
// {a,b} carries the bytes of both directions between the two nodes' ranks, a
// self-loop the intra-node bytes. Cells without bytes are skipped.
//
// Node rows fold one at a time through a dense int64 accumulator indexed by
// destination node; an epoch stamp marks the columns the current row has
// touched, so nothing is cleared between rows and the allocation count is
// fixed. A first pass counts each row's distinct columns to size the
// directed node CSR exactly; the second writes a row's touched columns into
// its span, sorts the span and reads the sums back: as that CSR's values for
// symGraph to transpose and merge or, from a v.sym source — whose node CSR
// under any placement equals its transpose, every sum positive — as weights
// beside the ptr and col the graph then adopts, doubled off the diagonal (the
// int64 mergeRow forms from a row and its equal transpose row, ≤ the total).
//
// Every array, scratch included, is carved from ar; a nil arena allocates
// them, and the graph is then the caller's. Each pass polls cancel (when
// non-nil) every foldPoll node rows and returns graph.ErrCancelled once it
// reports an abort.
func nodeGraph(v rows, p *topology.Placement, ar *graph.Arena, cancel func() bool) (*graph.Graph, error) {
	if p.NumRanks() != v.n {
		return nil, fmt.Errorf("trace: placement has %d ranks, matrix %d", p.NumRanks(), v.n)
	}
	nused := p.NumUsed()
	ptr := ar.Int64s(nused + 1)
	ptr[0] = 0
	stamp := ar.Int32s(nused) // stamp[b] == epoch: column b touched by this row
	clear(stamp)
	acc := ar.Int64s(nused)
	epoch := int32(0)
	nodeOf := func(d int32) int32 { return int32(p.UsedIndex(p.NodeOf(topology.Rank(d)))) }
	for a := 0; a < nused; a++ {
		if a%foldPoll == 0 && cancel != nil && cancel() {
			return nil, graph.ErrCancelled
		}
		epoch++
		count := int64(0)
		for pos, end := p.Span(p.UsedNode(a)); pos < end; pos++ {
			for i, hi := v.span(int(p.RankAt(pos))); i < hi; i++ {
				if v.bytes[i] == 0 {
					continue
				}
				if b := nodeOf(v.col[i]); stamp[b] != epoch {
					stamp[b] = epoch
					count++
				}
			}
		}
		ptr[a+1] = ptr[a] + count
	}
	nnz := int(ptr[nused])
	col := ar.Int32s(nnz)
	var val []int64
	var w []float64
	if v.sym {
		w = ar.Float64s(nnz)
	} else {
		val = ar.Int64s(nnz)
	}
	clear(stamp)
	epoch = 0
	for a := 0; a < nused; a++ {
		if a%foldPoll == 0 && cancel != nil && cancel() {
			return nil, graph.ErrCancelled
		}
		epoch++
		row := col[ptr[a]:ptr[a]:ptr[a+1]]
		for pos, end := p.Span(p.UsedNode(a)); pos < end; pos++ {
			for i, hi := v.span(int(p.RankAt(pos))); i < hi; i++ {
				if v.bytes[i] == 0 {
					continue
				}
				b := nodeOf(v.col[i])
				if stamp[b] != epoch {
					stamp[b] = epoch
					acc[b] = 0
					row = append(row, b)
				}
				acc[b] += v.bytes[i]
			}
		}
		slices.Sort(row)
		for k, b := range row {
			if i := ptr[a] + int64(k); !v.sym {
				val[i] = acc[b]
			} else if int(b) == a {
				w[i] = float64(acc[b])
			} else {
				w[i] = float64(acc[b] + acc[b])
			}
		}
	}
	if v.sym {
		return ar.FromCSR(nused, ptr, col, w)
	}
	return symGraph(nused, ptr, col, val, ar), nil
}

// symGraph converts a directed CSR (row u = col/val[ptr[u]:ptr[u+1]],
// columns ascending; only read) into the undirected graph in O(n + nnz): a
// counting-sort transpose, then each row merged with its transpose row
// straight into the rowptr/col/w arrays the graph adopts, all carved from ar
// (allocated when it is nil, and then the caller's). The path of every *CSR,
// and the oracle for nodeGraph's symmetric read-back.
func symGraph(n int, ptr []int64, col []int32, val []int64, ar *graph.Arena) *graph.Graph {
	// tPtr is shifted by one so that tPtr[d+1] serves as row d's fill
	// cursor and ends up as row d+1's start.
	tPtr := ar.Int64s(n + 2)
	clear(tPtr)
	for _, d := range col {
		tPtr[int(d)+2]++
	}
	for d := 0; d < n; d++ {
		tPtr[d+2] += tPtr[d+1]
	}
	tCol := ar.Int32s(len(col))
	tVal := ar.Int64s(len(col))
	for u := 0; u < n; u++ {
		for i := ptr[u]; i < ptr[u+1]; i++ {
			d := int(col[i])
			pos := tPtr[d+1]
			tPtr[d+1]++
			tCol[pos], tVal[pos] = int32(u), val[i]
		}
	}
	merge := func(u int, outCol []int32, w []float64) int {
		return mergeRow(int32(u), col[ptr[u]:ptr[u+1]], val[ptr[u]:ptr[u+1]],
			tCol[tPtr[u]:tPtr[u+1]], tVal[tPtr[u]:tPtr[u+1]], outCol, w)
	}
	rowptr := ar.Int64s(n + 1)
	rowptr[0] = 0
	for u := 0; u < n; u++ {
		rowptr[u+1] = rowptr[u] + int64(merge(u, nil, nil))
	}
	outCol := ar.Int32s(int(rowptr[n]))
	w := ar.Float64s(int(rowptr[n]))
	for u := 0; u < n; u++ {
		merge(u, outCol[rowptr[u]:rowptr[u+1]], w[rowptr[u]:rowptr[u+1]])
	}
	g, err := ar.FromCSR(n, rowptr, outCol, w)
	if err != nil {
		// The merge yields sorted, in-range, symmetric rows; an error here
		// is a bug in this package, not a runtime condition.
		panic(fmt.Sprintf("trace: internal CSR->graph conversion: %v", err))
	}
	return g
}

// mergeRow merges vertex u's directed row (ac, ab) with its transpose row
// (tc, tb), both ascending: a weight is the int64 sum of both directions,
// converted once; the diagonal, present in both, counts once; sums that are
// not positive drop (Matrix.ToGraph only adds positive-weight edges). It
// returns the number of edges kept and writes them unless col is nil.
func mergeRow(u int32, ac []int32, ab []int64, tc []int32, tb []int64, col []int32, w []float64) int {
	k, a, t := 0, 0, 0
	for a < len(ac) || t < len(tc) {
		var v int32
		var b int64
		switch {
		case t == len(tc) || (a < len(ac) && ac[a] < tc[t]):
			v, b = ac[a], ab[a]
			a++
		case a == len(ac) || tc[t] < ac[a]:
			v, b = tc[t], tb[t]
			t++
		default: // both directions present
			v, b = ac[a], ab[a]
			if v != u {
				b += tb[t]
			}
			a++
			t++
		}
		if b > 0 {
			if col != nil {
				col[k], w[k] = v, float64(b)
			}
			k++
		}
	}
	return k
}
