package trace

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"hierclust/internal/graph"
	"hierclust/internal/topology"
)

// The stored form of a trace. Real communication matrices are extremely
// sparse — a stencil application on n ranks touches O(n) pairs, not O(n²) —
// so a dense n×n array would be the scaling wall of the whole pipeline (100k
// ranks ≈ 160 GB). The one accumulator, sparseBuilder, keeps per-rank hash
// rows while recording (behind Recorder, ReadCSR and the Matrix shim) and
// freezes into an immutable CSR whose memory is O(ranks + distinct pairs).
// Every downstream consumer the clustering pipeline needs (totals, cut
// volume, node aggregation, graph conversion, figures) operates directly on
// the frozen CSR.

// sparseCell is one accumulating (bytes, msgs) pair.
type sparseCell struct {
	bytes int64
	msgs  int64
}

// sparseBuilder accumulates a communication matrix into per-rank hash rows.
// It is not concurrency-safe; Recorder wraps it for tracing.
type sparseBuilder struct {
	n          int
	rows       []map[int32]sparseCell
	totalBytes int64
	totalMsgs  int64
}

// newSparseBuilder returns an empty builder for n ranks.
func newSparseBuilder(n int) *sparseBuilder {
	if n < 0 {
		n = 0
	}
	return &sparseBuilder{n: n, rows: make([]map[int32]sparseCell, n)}
}

// add accumulates one message of the given size.
func (b *sparseBuilder) add(src, dst int, bytes int64) error {
	if src < 0 || src >= b.n || dst < 0 || dst >= b.n {
		return fmt.Errorf("trace: message %d->%d outside %d-rank matrix", src, dst, b.n)
	}
	if err := topology.CheckCount("ranks", b.n); err != nil {
		return err
	}
	b.addCell(src, dst, bytes, 1)
	return nil
}

// addCell accumulates into one cell, keeping the running totals consistent
// — the single place the accumulation invariant lives. Bounds are the
// caller's responsibility.
func (b *sparseBuilder) addCell(src, dst int, bytes, msgs int64) {
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

// set overwrites one cell with non-negative counts (the deserialization
// helper), keeping the totals the sums of the cells. It reports false and
// changes nothing when a total would pass MaxInt64.
func (b *sparseBuilder) set(src, dst int, bytes, msgs int64) bool {
	old := b.rows[src][int32(dst)]
	restBytes, restMsgs := b.totalBytes-old.bytes, b.totalMsgs-old.msgs
	if bytes > math.MaxInt64-restBytes || msgs > math.MaxInt64-restMsgs {
		return false
	}
	if b.rows[src] == nil {
		b.rows[src] = make(map[int32]sparseCell)
	}
	b.rows[src][int32(dst)] = sparseCell{bytes: bytes, msgs: msgs}
	b.totalBytes, b.totalMsgs = restBytes+bytes, restMsgs+msgs
	return true
}

// freeze compacts the builder into an immutable CSR. The builder remains
// usable; freeze may be called again after further adds.
func (b *sparseBuilder) freeze() *CSR {
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

// Recorder is a concurrency-safe simmpi.Tracer accumulating into per-rank
// hash rows: memory follows the distinct pairs seen, not ranks².
type Recorder struct {
	mu sync.Mutex
	b  *sparseBuilder
}

// NewRecorder returns a recorder for n ranks.
func NewRecorder(n int) *Recorder {
	return &Recorder{b: newSparseBuilder(n)}
}

// Record implements simmpi.Tracer. Out-of-range ranks are ignored rather
// than failing mid-run; the matrix dimension is fixed at creation.
func (r *Recorder) Record(src, dst, bytes int) {
	r.mu.Lock()
	_ = r.b.add(src, dst, int64(bytes))
	r.mu.Unlock()
}

// Freeze returns the accumulated matrix in CSR form. Callers must not race
// this with an active run.
func (r *Recorder) Freeze() *CSR {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.b.freeze()
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

// LoggedFraction returns the share of bytes crossing cluster boundaries
// under part (part[r] = cluster of rank r), in O(nnz): the paper's
// message-logging overhead metric, what a hybrid protocol with those
// clusters must log. An empty trace logs nothing (0).
func (c *CSR) LoggedFraction(part []int32) (float64, error) {
	return loggedFraction(c.view(), c.totalBytes, part)
}

// ToGraph converts the matrix to an undirected weighted graph (summing both
// directions), the input of the partitioner. Only positive-weight edges
// are kept, so cells with messages but zero bytes are dropped.
func (c *CSR) ToGraph() *graph.Graph { return symGraph(c.n, c.rowPtr, c.col, c.bytes, nil) }

// NodeGraph aggregates under the placement and converts to the undirected
// node graph in one sparse fold (Comm interface; vertex indices follow
// p.UsedNodes() order).
func (c *CSR) NodeGraph(p *topology.Placement) (*graph.Graph, error) {
	return nodeGraph(context.Background(), c.view(), p, nil)
}

// Pair is one directed rank pair and its byte volume.
type Pair struct {
	Src, Dst int
	Bytes    int64
}

// TopPairs returns up to k heaviest sender→receiver pairs, descending by
// bytes (ties by src, then dst); useful when inspecting a trace's dominant
// pattern.
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
