package trace

import (
	"fmt"
	"math"

	"hierclust/internal/graph"
	"hierclust/internal/topology"
)

// Synthetic communication-matrix generation. The paper's traces come from
// instrumented tsunami runs, which caps the evaluable scale at whatever the
// simulated MPI runtime can execute (§V stops at 1024 ranks). The patterns
// those traces exhibit — nearest-neighbor ghost exchange from a 1-D slab or
// 2-D block domain decomposition — are regular enough to generate directly
// in CSR form, so clustering and reliability evaluation can run at 100k+
// ranks without a trace run.

// SyntheticPattern selects the generated communication structure.
type SyntheticPattern int

const (
	// Stencil1D is a 1-D slab decomposition: rank r exchanges ghost rows
	// with r-1 and r+1 — the tsunami application's pattern.
	Stencil1D SyntheticPattern = iota
	// Stencil2D is a 2-D block decomposition on a Width-wide grid: rank r
	// exchanges with r±1 (same grid row) and r±Width (adjacent rows).
	Stencil2D
)

// SyntheticOptions tunes the generated trace. The zero value produces a
// 1-D stencil with the tsunami run's default volume.
type SyntheticOptions struct {
	// Pattern is the communication structure (default Stencil1D).
	Pattern SyntheticPattern
	// Width is the grid width for Stencil2D; 0 derives a near-square grid.
	// Ignored for Stencil1D.
	Width int
	// Iterations is the number of exchange rounds (default 100, the
	// paper's traced iteration count).
	Iterations int
	// BytesPerMsg is the payload of one neighbor exchange message
	// (default 1536 = 3 ghost rows × 64 columns × 8 bytes, matching the
	// quick-scale tsunami ghost exchange).
	BytesPerMsg int64
}

func (o *SyntheticOptions) normalize(n int) error {
	if o.Iterations <= 0 {
		o.Iterations = 100
	}
	if o.BytesPerMsg <= 0 {
		o.BytesPerMsg = 1536
	}
	if o.Pattern == Stencil2D {
		if o.Width == 0 {
			w := 1
			for (w<<1)*(w<<1) <= n {
				w <<= 1
			}
			o.Width = w
		}
		if o.Width <= 0 || o.Width > n {
			return fmt.Errorf("trace: synthetic grid width %d out of range 1..%d", o.Width, n)
		}
	}
	return nil
}

// Stencil is a synthetic trace in closed form: the pattern's neighbour rule
// plus one pair's volume, O(1) memory at any rank count — what the pipeline
// evaluates for a "synthetic" scenario (Synthetic materializes the same rows
// for callers that need arrays). Immutable, so one Stencil may back any
// number of concurrent evaluations, like a frozen CSR. Symmetric by
// construction — row holds s for r iff r for s, all cells the one positive
// pair volume, totals bounded to int64 by NewStencil: what view's sym promises.
type Stencil struct {
	n     int
	width int // grid width; 0 selects the 1-D rule
	nnz   int
	// One pair's volume, repeated so a row's values are a window of it.
	bytes, msgs [4]int64
}

var _ Comm = (*Stencil)(nil)

// NewStencil validates opts like Synthetic and returns the implicit trace.
func NewStencil(n int, opts SyntheticOptions) (*Stencil, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace: synthetic trace needs at least 1 rank, got %d", n)
	}
	if err := topology.CheckCount("ranks", n); err != nil { // the int32 columns
		return nil, err
	}
	if err := opts.normalize(n); err != nil {
		return nil, err
	}
	s := &Stencil{n: n, nnz: 2 * (n - 1)}
	if opts.Pattern == Stencil2D {
		// r±w exists for n-w ranks each; r-1 and r+1 exist wherever r (or
		// r+1) is not the first column of a grid row.
		w := opts.Width
		s.width, s.nnz = w, 2*max(n-w, 0)+2*(n-(n+w-1)/w)
	}
	iters, pairs := int64(opts.Iterations), int64(max(s.nnz, 1))
	if iters > math.MaxInt64/pairs || opts.BytesPerMsg > math.MaxInt64/(iters*pairs) {
		return nil, fmt.Errorf("trace: synthetic volume %d B × %d iterations × %d pairs overflows int64", opts.BytesPerMsg, iters, s.nnz)
	}
	for i := range s.bytes {
		s.bytes[i] = opts.BytesPerMsg * iters
		s.msgs[i] = iters
	}
	return s, nil
}

// Ranks returns the number of ranks the trace covers.
func (s *Stencil) Ranks() int { return s.n }

// NNZ returns the number of directed pairs, from the closed form.
func (s *Stencil) NNZ() int { return s.nnz }

// TotalBytes returns the total traffic volume.
func (s *Stencil) TotalBytes() int64 { return s.bytes[0] * int64(s.nnz) }

// TotalMsgs returns the total message count.
func (s *Stencil) TotalMsgs() int64 { return s.msgs[0] * int64(s.nnz) }

// row writes rank r's neighbours into buf in ascending order and returns how
// many there are — the one place the neighbour rule is written.
func (s *Stencil) row(r int, buf *[4]int32) int {
	k := 0
	add := func(ok bool, d int) {
		if ok {
			buf[k] = int32(d)
			k++
		}
	}
	if w := s.width; w > 0 {
		c := int(uint32(r) % uint32(w)) // n fits int32; the 32-bit divide is the cheaper one
		add(r-w >= 0, r-w)
		add(c != 0, r-1)
		add(c != w-1 && r+1 < s.n, r+1)
		add(r+w < s.n, r+w)
	} else {
		add(r > 0, r-1)
		add(r+1 < s.n, r+1)
	}
	return k
}

// LoggedFraction returns the cut share of the traffic under part, in closed
// form: each neighbour pair is visited once, forward (r+1 inside a grid row,
// then r+w), and a pair whose ranks' clusters differ logs both directions'
// bytes. loggedFraction over view is its oracle.
func (s *Stencil) LoggedFraction(part []int32) (float64, error) {
	total := s.TotalBytes()
	if total == 0 {
		return 0, nil
	}
	if err := checkPart(part, s.n); err != nil {
		return 0, err
	}
	row := s.width
	if row == 0 {
		row = s.n // the 1-D rule: one grid row of all the ranks
	}
	var cut int64
	for lo := 0; lo < s.n; lo += row {
		g := part[lo:min(lo+row, s.n)]
		for i := 1; i < len(g); i++ {
			if g[i] != g[i-1] {
				cut++
			}
		}
	}
	if w := s.width; w > 0 {
		below := part[w:]
		for r, c := range part[:len(below)] {
			if c != below[r] {
				cut++
			}
		}
	}
	return float64(2*cut*s.bytes[0]) / float64(total), nil
}

// NodeGraph folds the stencil under the placement into the undirected node
// graph, without materializing a rank matrix.
func (s *Stencil) NodeGraph(p *topology.Placement) (*graph.Graph, error) {
	return s.nodeGraph(p, nil, nil)
}

// nodeGraph is the node fold of NodeGraph and NodeGraphInto. On a block
// placement every node row is arithmetic on the node's rank window
// (nodeRow); on any other, and for a placement of another rank count, the
// general fold reads the stencil's rows (and is the closed form's oracle).
// The closed form carves only the graph's arrays from ar — a count pass
// sizes col and w exactly, a fill pass writes them — and polls cancel every
// foldPoll node rows of each pass, as the general fold does.
func (s *Stencil) nodeGraph(p *topology.Placement, ar *graph.Arena, cancel func() bool) (*graph.Graph, error) {
	ppn := p.BlockPPN()
	if ppn == 0 || p.NumRanks() != s.n {
		return nodeGraph(s.view(new([4]int32)), p, ar, cancel)
	}
	nused, q := p.NumUsed(), s.width/ppn
	ptr := ar.Int64s(nused + 1)
	ptr[0] = 0
	var row [7]nodeCell
	for a := 0; a < nused; a++ {
		if a%foldPoll == 0 && cancel != nil && cancel() {
			return nil, graph.ErrCancelled
		}
		ptr[a+1] = ptr[a] + int64(s.nodeRow(a, ppn, q, &row))
	}
	nnz := int(ptr[nused])
	col, w := ar.Int32s(nnz), ar.Float64s(nnz)
	for a := 0; a < nused; a++ {
		if a%foldPoll == 0 && cancel != nil && cancel() {
			return nil, graph.ErrCancelled
		}
		for i, e := range row[:s.nodeRow(a, ppn, q, &row)] {
			// The symmetric read-back's weights: the pairs' bytes, doubled
			// off the diagonal for the transpose row they equal.
			b := e.pairs * s.bytes[0]
			if int(e.node) != a {
				b += b
			}
			col[ptr[a]+int64(i)], w[ptr[a]+int64(i)] = e.node, float64(b)
		}
	}
	return ar.FromCSR(nused, ptr, col, w)
}

// nodeCell is one entry of a node row: a destination node and the number of
// directed rank pairs that lead to it.
type nodeCell struct {
	node  int32
	pairs int64
}

// nodeRow writes node a's row of the fold on a block placement of ppn ranks
// a node into row, nodes ascending, and returns its length; q is w/ppn. Node
// a hosts the rank window [lo, hi). Its pairs are the window shifted by −w
// and +w, which begin rem = w−q·ppn ranks before node a−q and rem ranks
// into node a+q (two nodes each at most); the r∓1 across the window's two
// edges; and the r±1 inside it, both directions of each: hi−lo−1 adjacent
// pairs, less the grid-row edges among them. Seven entries at most.
func (s *Stencil) nodeRow(a, ppn, q int, row *[7]nodeCell) int {
	k := 0
	add := func(b, pairs int) { // b never below the last node added
		if pairs <= 0 {
			return
		}
		if k > 0 && int(row[k-1].node) == b {
			row[k-1].pairs += int64(pairs)
			return
		}
		row[k] = nodeCell{int32(b), int64(pairs)}
		k++
	}
	n, w := s.n, s.width
	lo, hi := a*ppn, min((a+1)*ppn, n)
	inner, left, right := hi-lo-1, lo > 0, hi < n
	var up1, up2, down1, down2 int // pairs into nodes a−q−1, a−q, a+q and a+q+1
	if w > 0 {
		up, down := (a-q)*ppn, (a+q+1)*ppn // the first ranks of nodes a−q and a+q+1
		up1, up2 = min(hi-w, up)-max(lo-w, 0), hi-w-max(up, 0)
		down1, down2 = min(hi+w, down, n)-(lo+w), min(hi+w, n)-down
		// m is lo's column; t is hi−1's, counted from the start of lo's grid
		// row. n fits int32; the 32-bit divides are the cheaper ones.
		m := int(uint32(lo) % uint32(w))
		t, edges := m+hi-lo-1, 0
		if t >= w {
			edges = int(uint32(t) / uint32(w))
		}
		inner -= edges
		left = left && m != 0
		right = right && t+1 != (edges+1)*w
	}
	self := 2 * inner
	if q == 0 { // a−q = a+q = a
		self += max(up2, 0) + max(down1, 0)
		up2, down1 = 0, 0
	}
	add(a-q-1, up1)
	add(a-q, up2)
	if left {
		add(a-1, 1)
	}
	add(a, self)
	if right {
		add(a+1, 1)
	}
	add(a+q, down1)
	add(a+q+1, down2)
	return k
}

// Synthetic generates a deterministic communication matrix for n ranks
// directly in CSR form — O(n) memory and time, no message-passing run
// required. Both directions of every exchange are recorded, mirroring what
// a Recorder would capture from a real stencil run. The arrays are sized
// from the Stencil's pair count and filled by walking its rows.
func Synthetic(n int, opts SyntheticOptions) (*CSR, error) {
	s, err := NewStencil(n, opts)
	if err != nil {
		return nil, err
	}
	c := &CSR{
		n:          n,
		rowPtr:     make([]int64, n+1),
		col:        make([]int32, 0, s.nnz),
		bytes:      make([]int64, s.nnz),
		msgs:       make([]int64, s.nnz),
		totalBytes: s.TotalBytes(),
		totalMsgs:  s.TotalMsgs(),
	}
	for i := range c.bytes {
		c.bytes[i], c.msgs[i] = s.bytes[0], s.msgs[0]
	}
	var buf [4]int32
	for r := 0; r < n; r++ {
		k := s.row(r, &buf)
		c.col = append(c.col, buf[:k]...)
		c.rowPtr[r+1] = int64(len(c.col))
	}
	return c, nil
}
