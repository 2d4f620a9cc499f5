package trace

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"hierclust/internal/graph"
	"hierclust/internal/topology"
)

// The sparse path of the trace package. Real communication matrices are
// extremely sparse — a stencil application on n ranks touches O(n) pairs,
// not O(n²) — so the dense Matrix's n×n arrays are the scaling wall of the
// whole pipeline (100k ranks ≈ 160 GB). A SparseBuilder accumulates per-rank
// hash rows while recording and freezes into an immutable CSR whose memory
// is O(ranks + distinct pairs). Every downstream consumer the clustering
// pipeline needs (totals, cut volume, node aggregation, graph conversion)
// operates directly on the frozen CSR.

// sparseCell is one accumulating (bytes, msgs) pair.
type sparseCell struct {
	bytes int64
	msgs  int64
}

// SparseBuilder accumulates a communication matrix into per-rank hash rows.
// It is not concurrency-safe; wrap it in a SparseRecorder for tracing.
type SparseBuilder struct {
	n          int
	rows       []map[int32]sparseCell
	totalBytes int64
	totalMsgs  int64
}

// NewSparseBuilder returns an empty builder for n ranks.
func NewSparseBuilder(n int) *SparseBuilder {
	if n < 0 {
		n = 0
	}
	return &SparseBuilder{n: n, rows: make([]map[int32]sparseCell, n)}
}

// Ranks returns the number of ranks the builder covers.
func (b *SparseBuilder) Ranks() int { return b.n }

// Add accumulates one message of the given size.
func (b *SparseBuilder) Add(src, dst int, bytes int64) error {
	if src < 0 || src >= b.n || dst < 0 || dst >= b.n {
		return fmt.Errorf("trace: message %d->%d outside %d-rank matrix", src, dst, b.n)
	}
	b.addCell(src, dst, bytes, 1)
	return nil
}

// addCell accumulates into one cell, keeping the running totals consistent
// — the single place the accumulation invariant lives (mirrors
// Matrix.addCell). Bounds are the caller's responsibility.
func (b *SparseBuilder) addCell(src, dst int, bytes, msgs int64) {
	if b.rows[src] == nil {
		b.rows[src] = make(map[int32]sparseCell)
	}
	c := b.rows[src][int32(dst)]
	c.bytes += bytes
	c.msgs += msgs
	b.rows[src][int32(dst)] = c
	b.totalBytes += bytes
	b.totalMsgs += msgs
}

// set overwrites one cell (deserialization helper; totals stay consistent).
func (b *SparseBuilder) set(src, dst int, bytes, msgs int64) {
	if b.rows[src] == nil {
		b.rows[src] = make(map[int32]sparseCell)
	}
	old := b.rows[src][int32(dst)]
	b.totalBytes += bytes - old.bytes
	b.totalMsgs += msgs - old.msgs
	b.rows[src][int32(dst)] = sparseCell{bytes: bytes, msgs: msgs}
}

// Freeze compacts the builder into an immutable CSR. The builder remains
// usable; Freeze may be called again after further Adds.
func (b *SparseBuilder) Freeze() *CSR {
	c := &CSR{
		n:          b.n,
		rowPtr:     make([]int64, b.n+1),
		totalBytes: b.totalBytes,
		totalMsgs:  b.totalMsgs,
	}
	nnz := 0
	for _, row := range b.rows {
		nnz += len(row)
	}
	c.col = make([]int32, 0, nnz)
	c.bytes = make([]int64, 0, nnz)
	c.msgs = make([]int64, 0, nnz)
	var cols []int32
	for s, row := range b.rows {
		cols = cols[:0]
		for d := range row {
			cols = append(cols, d)
		}
		sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
		for _, d := range cols {
			cell := row[d]
			c.col = append(c.col, d)
			c.bytes = append(c.bytes, cell.bytes)
			c.msgs = append(c.msgs, cell.msgs)
		}
		c.rowPtr[s+1] = int64(len(c.col))
	}
	return c
}

// SparseRecorder is a concurrency-safe simmpi.Tracer accumulating into a
// SparseBuilder — the sparse counterpart of Recorder for machines where a
// dense matrix would not fit.
type SparseRecorder struct {
	mu sync.Mutex
	b  *SparseBuilder
}

// NewSparseRecorder returns a sparse recorder for n ranks.
func NewSparseRecorder(n int) *SparseRecorder {
	return &SparseRecorder{b: NewSparseBuilder(n)}
}

// Record implements simmpi.Tracer. Out-of-range ranks are ignored, matching
// Recorder's behavior.
func (r *SparseRecorder) Record(src, dst, bytes int) {
	r.mu.Lock()
	_ = r.b.Add(src, dst, int64(bytes))
	r.mu.Unlock()
}

// Freeze returns the accumulated matrix in CSR form. Callers must not race
// this with an active run.
func (r *SparseRecorder) Freeze() *CSR {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.b.Freeze()
}

// CSR is an immutable communication matrix in compressed-sparse-row form:
// row s occupies col/bytes/msgs[rowPtr[s]:rowPtr[s+1]], columns ascending.
// Memory is O(n + nnz), the property that lets the clustering pipeline
// evaluate 100k+ rank machines.
type CSR struct {
	n      int
	rowPtr []int64
	col    []int32
	bytes  []int64
	msgs   []int64

	totalBytes int64
	totalMsgs  int64
}

var _ Comm = (*CSR)(nil)

// Ranks returns the number of ranks the matrix covers.
func (c *CSR) Ranks() int { return c.n }

// NNZ returns the number of stored (nonzero) directed pairs.
func (c *CSR) NNZ() int { return len(c.col) }

// TotalBytes returns the total traffic volume.
func (c *CSR) TotalBytes() int64 { return c.totalBytes }

// TotalMsgs returns the total message count.
func (c *CSR) TotalMsgs() int64 { return c.totalMsgs }

// At returns the (bytes, msgs) cell for the directed pair (src, dst) in
// O(log deg) via binary search, (0, 0) when absent or out of range.
func (c *CSR) At(src, dst int) (int64, int64) {
	if src < 0 || src >= c.n || dst < 0 || dst >= c.n {
		return 0, 0
	}
	lo, hi := c.rowPtr[src], c.rowPtr[src+1]
	row := c.col[lo:hi]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(dst) })
	if i < len(row) && row[i] == int32(dst) {
		return c.bytes[lo+int64(i)], c.msgs[lo+int64(i)]
	}
	return 0, 0
}

// CutBytes returns the bytes crossing cluster boundaries under part, in
// O(nnz) — the dense equivalent scans n² cells.
func (c *CSR) CutBytes(part []int) (int64, error) {
	if len(part) != c.n {
		return 0, fmt.Errorf("trace: assignment has %d entries for %d ranks", len(part), c.n)
	}
	var cut int64
	for s := 0; s < c.n; s++ {
		ps := part[s]
		for i := c.rowPtr[s]; i < c.rowPtr[s+1]; i++ {
			if part[c.col[i]] != ps {
				cut += c.bytes[i]
			}
		}
	}
	return cut, nil
}

// LoggedFraction returns CutBytes/TotalBytes, the paper's message-logging
// overhead metric. An empty trace logs nothing (0).
func (c *CSR) LoggedFraction(part []int) (float64, error) {
	if c.totalBytes == 0 {
		return 0, nil
	}
	cut, err := c.CutBytes(part)
	if err != nil {
		return 0, err
	}
	return float64(cut) / float64(c.totalBytes), nil
}

// symmetrized merges each row with the matching transpose row, yielding the
// undirected structure (u,v) -> bytes(u,v)+bytes(v,u) with diagonals kept
// once. It is the shared kernel of Symmetrize and ToGraph and runs in
// O(n + nnz).
func (c *CSR) symmetrized() (rowPtr []int64, col []int32, bytes, msgs []int64) {
	// Build the transpose in CSR form with a counting sort.
	tPtr := make([]int64, c.n+1)
	for _, d := range c.col {
		tPtr[d+1]++
	}
	for i := 0; i < c.n; i++ {
		tPtr[i+1] += tPtr[i]
	}
	tCol := make([]int32, len(c.col))
	tIdx := make([]int64, len(c.col)) // index into c.bytes/c.msgs
	fill := make([]int64, c.n)
	for s := 0; s < c.n; s++ {
		for i := c.rowPtr[s]; i < c.rowPtr[s+1]; i++ {
			d := c.col[i]
			pos := tPtr[d] + fill[d]
			tCol[pos] = int32(s)
			tIdx[pos] = i
			fill[d]++
		}
	}
	// Merge row u of the matrix with row u of the transpose; both are
	// sorted by column, so the union is a linear merge.
	rowPtr = make([]int64, c.n+1)
	col = make([]int32, 0, len(c.col))
	bytes = make([]int64, 0, len(c.col))
	msgs = make([]int64, 0, len(c.col))
	for u := 0; u < c.n; u++ {
		a, aEnd := c.rowPtr[u], c.rowPtr[u+1]
		t, tEnd := tPtr[u], tPtr[u+1]
		for a < aEnd || t < tEnd {
			var v int32
			var b, m int64
			switch {
			case t >= tEnd || (a < aEnd && c.col[a] < tCol[t]):
				v, b, m = c.col[a], c.bytes[a], c.msgs[a]
				a++
			case a >= aEnd || tCol[t] < c.col[a]:
				v, b, m = tCol[t], c.bytes[tIdx[t]], c.msgs[tIdx[t]]
				t++
			default: // both directions present
				v = c.col[a]
				if v == int32(u) { // diagonal appears in both; count once
					b, m = c.bytes[a], c.msgs[a]
				} else {
					b = c.bytes[a] + c.bytes[tIdx[t]]
					m = c.msgs[a] + c.msgs[tIdx[t]]
				}
				a++
				t++
			}
			col = append(col, v)
			bytes = append(bytes, b)
			msgs = append(msgs, m)
		}
		rowPtr[u+1] = int64(len(col))
	}
	return rowPtr, col, bytes, msgs
}

// Symmetrize returns the undirected view: entry (u,v) holds the summed
// traffic of both directions (diagonal kept once). The result is a
// symmetric CSR whose totals — like every Comm implementation's — sum all
// stored cells, so off-diagonal traffic is counted once per stored
// direction and CutBytes/TotalBytes stays a fraction in [0,1]; halve
// TotalBytes (excluding the diagonal) to recover the undirected volume.
func (c *CSR) Symmetrize() *CSR {
	rowPtr, col, bytes, msgs := c.symmetrized()
	out := &CSR{n: c.n, rowPtr: rowPtr, col: col, bytes: bytes, msgs: msgs}
	for i := range out.bytes {
		out.totalBytes += out.bytes[i]
		out.totalMsgs += out.msgs[i]
	}
	return out
}

// ToGraph converts the matrix to an undirected weighted graph (summing both
// directions) without materializing a dense intermediate: the symmetrized
// CSR rows are handed to the graph package as finished adjacency. Cells
// with messages but zero bytes are dropped, matching the dense
// Matrix.ToGraph (which only adds positive-weight edges).
func (c *CSR) ToGraph() *graph.Graph {
	symPtr, symCol, symBytes, _ := c.symmetrized()
	rowPtr := make([]int64, c.n+1)
	col := symCol[:0]
	w := make([]float64, 0, len(symCol))
	for u := 0; u < c.n; u++ {
		for i := symPtr[u]; i < symPtr[u+1]; i++ {
			if symBytes[i] > 0 {
				col = append(col, symCol[i])
				w = append(w, float64(symBytes[i]))
			}
		}
		rowPtr[u+1] = int64(len(col))
	}
	g, err := graph.FromCSR(c.n, rowPtr, col, w)
	if err != nil {
		// symmetrized guarantees sorted, in-range, symmetric rows; an error
		// here is a bug in this package, not a runtime condition.
		panic(fmt.Sprintf("trace: internal CSR->graph conversion: %v", err))
	}
	return g
}

// NodeCSR aggregates the rank matrix into a node-based matrix under a
// placement, in CSR form: entry (a,b) sums traffic from ranks on used node
// a to ranks on used node b (indices follow p.UsedNodes() order, matching
// the dense NodeMatrix). Cells without bytes drop, as in NodeMatrix.
//
// Node rows are folded one at a time through a dense accumulator indexed by
// destination node: an epoch stamp marks the columns the current row has
// touched, so nothing is cleared between rows and the build allocates a
// fixed number of arrays whatever the node count. A first pass counts each
// row's distinct columns to size the output exactly; the second writes a
// row's touched columns straight into its output span, sorts that span and
// reads the sums back out of the accumulator.
func (c *CSR) NodeCSR(p *topology.Placement) (*CSR, error) {
	if p.NumRanks() != c.n {
		return nil, fmt.Errorf("trace: placement has %d ranks, matrix %d", p.NumRanks(), c.n)
	}
	used := p.UsedNodes()
	out := &CSR{n: len(used), rowPtr: make([]int64, len(used)+1)}
	stamp := make([]int32, len(used)) // stamp[b] == epoch: column b touched by this row
	epoch := int32(0)
	nodeOfCol := func(i int64) int32 {
		return int32(p.UsedIndex(p.NodeOf(topology.Rank(c.col[i]))))
	}
	for a, node := range used {
		epoch++
		count := int64(0)
		for _, r := range p.RanksOn(node) {
			for i := c.rowPtr[r]; i < c.rowPtr[r+1]; i++ {
				if c.bytes[i] == 0 {
					continue
				}
				if b := nodeOfCol(i); stamp[b] != epoch {
					stamp[b] = epoch
					count++
				}
			}
		}
		out.rowPtr[a+1] = out.rowPtr[a] + count
	}
	nnz := out.rowPtr[len(used)]
	out.col = make([]int32, nnz)
	out.bytes = make([]int64, nnz)
	out.msgs = make([]int64, nnz)
	accBytes := make([]int64, len(used))
	accMsgs := make([]int64, len(used))
	clear(stamp)
	epoch = 0
	for a, node := range used {
		epoch++
		row := out.col[out.rowPtr[a]:out.rowPtr[a]:out.rowPtr[a+1]]
		for _, r := range p.RanksOn(node) {
			for i := c.rowPtr[r]; i < c.rowPtr[r+1]; i++ {
				if c.bytes[i] == 0 {
					continue
				}
				b := nodeOfCol(i)
				if stamp[b] != epoch {
					stamp[b] = epoch
					accBytes[b], accMsgs[b] = 0, 0
					row = append(row, b)
				}
				accBytes[b] += c.bytes[i]
				accMsgs[b] += c.msgs[i]
			}
		}
		slices.Sort(row)
		for k, b := range row {
			i := out.rowPtr[a] + int64(k)
			out.bytes[i], out.msgs[i] = accBytes[b], accMsgs[b]
			out.totalBytes += accBytes[b]
			out.totalMsgs += accMsgs[b]
		}
	}
	return out, nil
}

// NodeGraph aggregates under the placement and converts to the undirected
// node graph in one sparse pass (Comm interface).
func (c *CSR) NodeGraph(p *topology.Placement) (*graph.Graph, error) {
	nc, err := c.NodeCSR(p)
	if err != nil {
		return nil, err
	}
	return nc.ToGraph(), nil
}

// TopPairs returns up to k heaviest sender→receiver pairs, matching the
// dense Matrix.TopPairs ordering.
func (c *CSR) TopPairs(k int) []Pair {
	var pairs []Pair
	for s := 0; s < c.n; s++ {
		for i := c.rowPtr[s]; i < c.rowPtr[s+1]; i++ {
			if c.bytes[i] > 0 {
				pairs = append(pairs, Pair{s, int(c.col[i]), c.bytes[i]})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Bytes != pairs[j].Bytes {
			return pairs[i].Bytes > pairs[j].Bytes
		}
		if pairs[i].Src != pairs[j].Src {
			return pairs[i].Src < pairs[j].Src
		}
		return pairs[i].Dst < pairs[j].Dst
	})
	if len(pairs) > k {
		pairs = pairs[:k]
	}
	return pairs
}

// ToDense expands to a dense Matrix — for tests and small matrices only;
// this is exactly the O(n²) allocation the CSR path exists to avoid.
func (c *CSR) ToDense() *Matrix {
	m := NewMatrix(c.n)
	for s := 0; s < c.n; s++ {
		for i := c.rowPtr[s]; i < c.rowPtr[s+1]; i++ {
			m.setCell(s, int(c.col[i]), c.bytes[i], c.msgs[i])
		}
	}
	return m
}

// ToCSR compacts the dense matrix into CSR form.
func (m *Matrix) ToCSR() *CSR {
	c := &CSR{
		n:          m.N,
		rowPtr:     make([]int64, m.N+1),
		totalBytes: m.totalBytes,
		totalMsgs:  m.totalMsgs,
	}
	nnz := 0
	for s := 0; s < m.N; s++ {
		for d := range m.Bytes[s] {
			if m.Bytes[s][d] != 0 || m.Msgs[s][d] != 0 {
				nnz++
			}
		}
	}
	c.col = make([]int32, 0, nnz)
	c.bytes = make([]int64, 0, nnz)
	c.msgs = make([]int64, 0, nnz)
	for s := 0; s < m.N; s++ {
		for d := range m.Bytes[s] {
			if m.Bytes[s][d] != 0 || m.Msgs[s][d] != 0 {
				c.col = append(c.col, int32(d))
				c.bytes = append(c.bytes, m.Bytes[s][d])
				c.msgs = append(c.msgs, m.Msgs[s][d])
			}
		}
		c.rowPtr[s+1] = int64(len(c.col))
	}
	return c
}
