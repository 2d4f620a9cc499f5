package trace

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"hierclust/internal/graph"
	"hierclust/internal/topology"
)

// refNodeCSR is the map-based node aggregation the dense-accumulator fold
// replaced: a node→index map and a sparseBuilder (hash row per node,
// sort.Slice per row at freeze), messages included. With refToGraph it is
// the retired NodeCSR → symmetrize → ToGraph composition the differential
// tests pin nodeGraph to (the internal/graph/reference_test.go idiom).
func refNodeCSR(c *CSR, p *topology.Placement) *CSR {
	used := p.UsedNodes()
	idx := map[topology.NodeID]int{}
	for i, n := range used {
		idx[n] = i
	}
	b := newSparseBuilder(len(used))
	for s := 0; s < c.n; s++ {
		ns := idx[p.NodeOf(topology.Rank(s))]
		for i := c.rowPtr[s]; i < c.rowPtr[s+1]; i++ {
			if c.bytes[i] == 0 {
				continue
			}
			nd := idx[p.NodeOf(topology.Rank(int(c.col[i])))]
			b.addCell(ns, nd, c.bytes[i], c.msgs[i])
		}
	}
	return b.freeze()
}

// refSymmetrize is the retired (*CSR).Symmetrize, the undirected view
// through a sparseBuilder's hash rows: entry (u,v) holds the summed traffic,
// bytes and messages, of both directions (diagonal kept once), and the
// totals sum every stored cell.
func refSymmetrize(c *CSR) *CSR {
	b := newSparseBuilder(c.n)
	for s := 0; s < c.n; s++ {
		for i := c.rowPtr[s]; i < c.rowPtr[s+1]; i++ {
			d := int(c.col[i])
			b.addCell(s, d, c.bytes[i], c.msgs[i])
			if d != s {
				b.addCell(d, s, c.bytes[i], c.msgs[i])
			}
		}
	}
	return b.freeze()
}

// refToGraph is the symmetrize-then-filter ToGraph that symGraph replaced:
// the symmetrized copy (msgs and all, through refSymmetrize's hash rows),
// then a second rowPtr and a float64 weight array keeping the positive sums.
func refToGraph(t *testing.T, c *CSR) *graph.Graph {
	t.Helper()
	sym := refSymmetrize(c)
	rowPtr := make([]int64, c.n+1)
	var col []int32
	var w []float64
	for u := 0; u < c.n; u++ {
		for i := sym.rowPtr[u]; i < sym.rowPtr[u+1]; i++ {
			if sym.bytes[i] > 0 {
				col = append(col, sym.col[i])
				w = append(w, float64(sym.bytes[i]))
			}
		}
		rowPtr[u+1] = int64(len(col))
	}
	g, err := (*graph.Arena)(nil).FromCSR(c.n, rowPtr, col, w)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// refSynthetic is the append loop Synthetic ran before it walked a Stencil's
// rows: the neighbour rule written a second time, as the oracle.
func refSynthetic(n int, opts SyntheticOptions) *CSR {
	_ = opts.normalize(n)
	bytes, msgs := opts.BytesPerMsg*int64(opts.Iterations), int64(opts.Iterations)
	c := &CSR{n: n, rowPtr: make([]int64, n+1), col: []int32{}, bytes: []int64{}, msgs: []int64{}}
	add := func(d int) {
		c.col = append(c.col, int32(d))
		c.bytes = append(c.bytes, bytes)
		c.msgs = append(c.msgs, msgs)
		c.totalBytes += bytes
		c.totalMsgs += msgs
	}
	for r, w := 0, opts.Width; r < n; r++ {
		if opts.Pattern == Stencil2D {
			if r-w >= 0 {
				add(r - w)
			}
			if r%w != 0 {
				add(r - 1)
			}
			if r%w != w-1 && r+1 < n {
				add(r + 1)
			}
			if r+w < n {
				add(r + w)
			}
		} else {
			if r > 0 {
				add(r - 1)
			}
			if r+1 < n {
				add(r + 1)
			}
		}
		c.rowPtr[r+1] = int64(len(c.col))
	}
	return c
}

// sameGraph compares two FromCSR-built graphs field by field: rowptr, col,
// weights, strengths and totals.
func sameGraph(t testing.TB, what string, got, want *graph.Graph) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: graph differs from reference\n got %+v\nwant %+v", what, got, want)
	}
}

// testPlacement draws a block, round-robin or explicit placement of n
// ranks; the explicit ones leave nodes unused and load the rest unevenly.
func testPlacement(t *testing.T, rng *rand.Rand, n int) *topology.Placement {
	t.Helper()
	mach := &topology.Machine{Name: "t", Nodes: n + 8}
	var p *topology.Placement
	var err error
	switch rng.Intn(3) {
	case 0:
		p, err = topology.Block(mach, n, 1+rng.Intn(7))
	case 1:
		p, err = topology.RoundRobin(mach, n, 1+rng.Intn(n))
	default:
		nodeOf := make([]topology.NodeID, n)
		for r := range nodeOf {
			nodeOf[r] = topology.NodeID(3 * rng.Intn(1+n/4)) // two of three nodes idle
		}
		p, err = topology.NewPlacement(mach, nodeOf)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The one-fold NodeGraph and the symGraph-based ToGraph against the retired
// composition, on asymmetric traces: one-direction cells, self-sends,
// zero-byte cells that carry messages, and node cells that sum to zero.
func TestNodeFoldMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(120)
		b := newSparseBuilder(n)
		for adds := rng.Intn(6 * n); adds > 0; adds-- {
			// One cell in six byte-less, and a few negative cells so a node
			// cell can sum to zero.
			bytes := int64(rng.Intn(6)) * 512
			if rng.Intn(20) == 0 {
				bytes = -512
			}
			_ = b.add(rng.Intn(n), rng.Intn(n), bytes)
		}
		c := b.freeze()
		sameGraph(t, fmt.Sprintf("seed %d ToGraph", seed), c.ToGraph(), refToGraph(t, c))
		p := testPlacement(t, rng, n)
		got, err := c.NodeGraph(p)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, fmt.Sprintf("seed %d NodeGraph", seed), got, refToGraph(t, refNodeCSR(c, p)))
	}
}

// The implicit Stencil against the CSR Synthetic materializes from it, and
// that CSR against the second writing of the neighbour rule: every Comm
// method and NNZ, under block, round-robin and ragged placements.
func TestStencilMatchesSynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 2, 7, 64, 4099} {
		for _, opts := range []SyntheticOptions{
			{Pattern: Stencil1D, Iterations: 7},
			{Pattern: Stencil2D, Width: 1},
			{Pattern: Stencil2D, Width: 3, BytesPerMsg: 96},
			{Pattern: Stencil2D, Width: 4},
			{Pattern: Stencil2D, Width: n},
		} {
			if opts.Width > n {
				continue
			}
			what := fmt.Sprintf("n=%d %+v", n, opts)
			c, err := Synthetic(n, opts)
			if err != nil {
				t.Fatal(what, err)
			}
			if want := refSynthetic(n, opts); !reflect.DeepEqual(c, want) {
				t.Fatalf("%s: Synthetic differs from the reference loop", what)
			}
			s, err := NewStencil(n, opts)
			if err != nil {
				t.Fatal(what, err)
			}
			if s.Ranks() != c.Ranks() || s.NNZ() != c.NNZ() ||
				s.TotalBytes() != c.TotalBytes() || s.TotalMsgs() != c.TotalMsgs() {
				t.Fatalf("%s: stencil %d/%d/%d/%d, CSR %d/%d/%d/%d", what,
					s.Ranks(), s.NNZ(), s.TotalBytes(), s.TotalMsgs(),
					c.Ranks(), c.NNZ(), c.TotalBytes(), c.TotalMsgs())
			}
			for _, parts := range []int{1, 3, n} {
				part := randomPart(rng, n, parts)
				got, err1 := s.LoggedFraction(part)
				want, err2 := c.LoggedFraction(part)
				if err1 != nil || err2 != nil || got != want {
					t.Fatalf("%s: logged fraction %v (%v), CSR %v (%v)", what, got, err1, want, err2)
				}
			}
			ppn := 1 + rng.Intn(5) // ragged last node whenever ppn does not divide n
			mach := &topology.Machine{Name: "t", Nodes: n + 8}
			block, err1 := topology.Block(mach, n, ppn)
			rr, err2 := topology.RoundRobin(mach, n, 1+rng.Intn(n))
			if err1 != nil || err2 != nil {
				t.Fatal(what, err1, err2)
			}
			for _, p := range []*topology.Placement{block, rr} {
				foldsAlike(t, what, s, c, p)
			}
		}
	}
	if _, err := mustStencil(t, 8).NodeGraph(mustBlock(t, 4, 2)); err == nil {
		t.Error("NodeGraph accepted a placement of another rank count")
	}
	if _, err := mustStencil(t, 8).LoggedFraction(make([]int32, 4)); err == nil {
		t.Error("LoggedFraction accepted an assignment of another rank count")
	}
}

func mustStencil(t testing.TB, n int) *Stencil {
	t.Helper()
	s, err := NewStencil(n, SyntheticOptions{Pattern: Stencil2D, Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustBlock(t testing.TB, ranks, ppn int) *topology.Placement {
	t.Helper()
	p, err := topology.Block(&topology.Machine{Name: "t", Nodes: (ranks + ppn - 1) / ppn}, ranks, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// foldsAlike holds the stencil's symmetric read-back against the general
// path (val, transpose, merge) folding the CSR of the same rows: every array
// of the two graphs equal, weights with ==. FromCSR validates order and
// range, not symmetry, so the result is also checked edge by edge.
func foldsAlike(t testing.TB, what string, s *Stencil, c *CSR, p *topology.Placement) {
	t.Helper()
	got, err1 := s.NodeGraph(p)
	want, err2 := c.NodeGraph(p)
	if err1 != nil || err2 != nil {
		t.Fatal(what, err1, err2)
	}
	sameGraph(t, what, got, want)
	for u := 0; u < got.N(); u++ {
		for _, v := range got.Neighbors(u) {
			if w := got.Weight(u, v); w <= 0 || w != got.Weight(v, u) {
				t.Fatalf("%s: weight(%d,%d) = %v, weight(%d,%d) = %v", what, u, v, w, v, u, got.Weight(v, u))
			}
		}
	}
}

// stridedPlacement puts rank r on node (r·stride mod nodes)·gap of a machine
// with idle nodes between and after the used ones; with stride coprime to
// nodes, neighbouring ranks land on far-apart nodes and every node is used.
func stridedPlacement(t testing.TB, n, nodes, stride, gap int) *topology.Placement {
	t.Helper()
	nodeOf := make([]topology.NodeID, n)
	for r := range nodeOf {
		nodeOf[r] = topology.NodeID(r * stride % nodes * gap)
	}
	p, err := topology.NewPlacement(&topology.Machine{Name: "t", Nodes: nodes*gap + 5}, nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The precondition of the symmetric fold, read off the neighbour rule itself:
// d is in r's row iff r is in d's, and all four cells' values are the one
// positive pair volume — for widths that divide n, that do not, 1 and n.
func TestStencilRowsSymmetric(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 1000} {
		for _, opts := range []SyntheticOptions{
			{Pattern: Stencil1D},
			{Pattern: Stencil2D, Width: 1},
			{Pattern: Stencil2D, Width: 2},
			{Pattern: Stencil2D, Width: 3, BytesPerMsg: 96, Iterations: 5},
			{Pattern: Stencil2D, Width: 8},
			{Pattern: Stencil2D, Width: 13},
			{Pattern: Stencil2D, Width: n},
		} {
			if opts.Width > n {
				continue
			}
			s, err := NewStencil(n, opts)
			if err != nil {
				t.Fatal(err)
			}
			var rowR, rowD [4]int32
			if v := s.view(&rowR); !v.sym {
				t.Fatal("a stencil's view does not claim symmetry")
			}
			for r := 0; r < n; r++ {
				for i, d := range rowR[:s.row(r, &rowR)] {
					back := slices.Index(rowD[:s.row(int(d), &rowD)], int32(r))
					if back < 0 {
						t.Fatalf("n=%d %+v: %d is in row %d, %d is not in row %d", n, opts, d, r, r, d)
					}
					if b := s.bytes[i]; b <= 0 || s.bytes[back] != b || s.msgs[i] <= 0 || s.msgs[back] != s.msgs[i] {
						t.Fatalf("n=%d %+v: cells (%d,%d) and (%d,%d) carry %d/%d B, %d/%d msgs", n, opts,
							r, d, d, r, b, s.bytes[back], s.msgs[i], s.msgs[back])
					}
				}
			}
		}
	}
	if (&CSR{}).view().sym {
		t.Error("a CSR's view claims symmetry")
	}
}

// The symmetric read-back against the general path where the node rows are
// least like the rank rows: more ranks per node than ranks, one rank, idle
// nodes between and after the used ones, and round-robin and strided layouts
// whose node count is coprime to the stride and to the grid width.
func TestSymmetricFoldMatchesGeneral(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 1000} {
		for _, opts := range []SyntheticOptions{
			{Pattern: Stencil1D, Iterations: 3},
			{Pattern: Stencil2D, Width: 1},
			{Pattern: Stencil2D, Width: 4, BytesPerMsg: 1 << 40},
			{Pattern: Stencil2D, Width: 6},
			{Pattern: Stencil2D, Width: n},
		} {
			if opts.Width > n {
				continue
			}
			s, err1 := NewStencil(n, opts)
			c, err2 := Synthetic(n, opts)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			mach := &topology.Machine{Name: "t", Nodes: n + 8}
			for _, ppn := range []int{1, 4, n + 3} {
				p, err := topology.Block(mach, n, ppn)
				if err != nil {
					t.Fatal(err)
				}
				foldsAlike(t, fmt.Sprintf("n=%d %+v block ppn=%d", n, opts, ppn), s, c, p)
			}
			for _, nodes := range []int{1, 5, 7, n} {
				if nodes > n {
					continue
				}
				p, err := topology.RoundRobin(mach, n, nodes)
				if err != nil {
					t.Fatal(err)
				}
				foldsAlike(t, fmt.Sprintf("n=%d %+v round-robin over %d", n, opts, nodes), s, c, p)
				foldsAlike(t, fmt.Sprintf("n=%d %+v stride 3 over %d", n, opts, nodes), s, c,
					stridedPlacement(t, n, nodes, 3, 2))
			}
		}
	}
}

// The stencil's closed forms against their oracles on every shape up to 70
// ranks: each width 0..n (0 is the 1-D rule) and 1 to 9 ranks a node, at the
// default pair volume and at the largest one whose total fits int64. The
// node graph on a block placement must equal the general fold over the
// stencil's rows and the fold of Synthetic's CSR; the logged fraction must
// be == to cutBytes over the rows, for random parts of 1 to 5 clusters.
func TestStencilClosedFormsMatchFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for n := 1; n <= 70; n++ {
		for width := 0; width <= n; width++ {
			opts := SyntheticOptions{Width: width}
			if width > 0 {
				opts.Pattern = Stencil2D
			}
			s, err := NewStencil(n, opts)
			if err != nil {
				t.Fatal(err)
			}
			big := opts
			big.Iterations, big.BytesPerMsg = 1, math.MaxInt64/int64(max(s.nnz, 1))
			for _, opts := range []SyntheticOptions{opts, big} {
				s, err1 := NewStencil(n, opts)
				c, err2 := Synthetic(n, opts)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				view := s.view(new([4]int32))
				for parts := 1; parts <= 5; parts++ {
					part := randomPart(rng, n, parts)
					got, err1 := s.LoggedFraction(part)
					want, err2 := loggedFraction(view, s.TotalBytes(), part)
					if err1 != nil || err2 != nil || got != want {
						t.Fatalf("n=%d %+v: logged fraction %v (%v), rows %v (%v)", n, opts, got, err1, want, err2)
					}
				}
				for ppn := 1; ppn <= 9; ppn++ {
					what := fmt.Sprintf("n=%d %+v ppn=%d", n, opts, ppn)
					p := mustBlock(t, n, ppn)
					got, err1 := s.NodeGraph(p)
					rows, err2 := nodeGraph(context.Background(), view, p, nil)
					csr, err3 := c.NodeGraph(p)
					if err1 != nil || err2 != nil || err3 != nil {
						t.Fatal(what, err1, err2, err3)
					}
					sameGraph(t, what+" vs the stencil's rows", got, rows)
					sameGraph(t, what+" vs the CSR", got, csr)
				}
			}
		}
	}
}

// A pair volume or a total past int64 is an error, not a trace whose
// TotalBytes wraps to 0 (and whose LoggedFraction then reads 0): the bound is
// also what keeps every sum of the symmetric fold positive.
func TestStencilVolumeOverflowRejected(t *testing.T) {
	for _, opts := range []SyntheticOptions{
		{Pattern: Stencil2D, Iterations: 1 << 31, BytesPerMsg: 1 << 32}, // pair volume -2^63
		{Pattern: Stencil2D, Iterations: 1 << 30, BytesPerMsg: 1 << 31}, // pair volume 2^61, total wraps to 0
		{Iterations: math.MaxInt64/2046 + 1, BytesPerMsg: 1},            // message count alone
	} {
		_, err := NewStencil(1024, opts)
		if err == nil || !strings.Contains(err.Error(), "overflows int64") {
			t.Errorf("NewStencil(1024, %+v): %v", opts, err)
		}
		if _, err := Synthetic(1024, opts); err == nil {
			t.Errorf("Synthetic(1024, %+v) accepted", opts)
		}
	}
	// Two ranks, two pairs: the largest total that fits is MaxInt64 - 1.
	half := int64(math.MaxInt64 / 2)
	s, err := NewStencil(2, SyntheticOptions{Iterations: 1, BytesPerMsg: half})
	if err != nil || s.TotalBytes() != math.MaxInt64-1 {
		t.Errorf("largest fitting volume: %v", err)
	}
	if _, err := NewStencil(2, SyntheticOptions{Iterations: 1, BytesPerMsg: half + 1}); err == nil {
		t.Error("one byte past the largest fitting volume accepted")
	}
	// One rank has no pairs; its pair volume must still fit.
	if _, err := NewStencil(1, SyntheticOptions{Iterations: 1 << 31, BytesPerMsg: 1 << 32}); err == nil {
		t.Error("one rank: overflowing pair volume accepted")
	}
	// At the bound the doubled off-diagonal sum is the total itself.
	c, err := Synthetic(2, SyntheticOptions{Iterations: 1, BytesPerMsg: half})
	if err != nil {
		t.Fatal(err)
	}
	foldsAlike(t, "largest fitting volume", s, c, mustBlock(t, 2, 1))
}

// A rank count past int32 is an error before anything is allocated, not a
// trace with negative columns.
func TestRanksPastInt32Rejected(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits")
	}
	n := math.MaxInt32
	n++
	const want = "topology: 2147483648 ranks exceed the int32 id range"
	if _, err := NewStencil(n, SyntheticOptions{}); err == nil || err.Error() != want {
		t.Errorf("NewStencil: %v", err)
	}
	if _, err := Synthetic(n, SyntheticOptions{Pattern: Stencil2D}); err == nil || err.Error() != want {
		t.Errorf("Synthetic: %v", err)
	}
	b := &sparseBuilder{n: n} // not newSparseBuilder: that sizes n row headers
	if err := b.add(0, n-1, 8); err == nil || err.Error() != want {
		t.Errorf("sparseBuilder.add: %v", err)
	}
	if s, err := NewStencil(math.MaxInt32, SyntheticOptions{}); err != nil || s.NNZ() != 2*(math.MaxInt32-1) {
		t.Errorf("NewStencil at the int32 limit: %v", err)
	}
}

// Synthetic sizes its arrays from the stencil's closed-form pair count: no
// spare capacity, and an allocation count that ignores the rank count.
func TestSyntheticSizedExactly(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 17, 100} {
		for _, opts := range []SyntheticOptions{
			{Pattern: Stencil1D},
			{Pattern: Stencil2D},
			{Pattern: Stencil2D, Width: 1},
			{Pattern: Stencil2D, Width: 3},
			{Pattern: Stencil2D, Width: n},
		} {
			if opts.Width > n {
				continue
			}
			c, err := Synthetic(n, opts)
			if err != nil {
				t.Fatal(err)
			}
			if cap(c.col) != len(c.col) || cap(c.bytes) != len(c.bytes) || cap(c.msgs) != len(c.msgs) {
				t.Errorf("n=%d %+v: nnz %d but capacity %d/%d/%d", n, opts,
					len(c.col), cap(c.col), cap(c.bytes), cap(c.msgs))
			}
			var bytes, msgs int64
			for i := range c.col {
				bytes += c.bytes[i]
				msgs += c.msgs[i]
			}
			if bytes != c.TotalBytes() || msgs != c.TotalMsgs() {
				t.Errorf("n=%d %+v: totals %d/%d, cells sum to %d/%d", n, opts,
					c.TotalBytes(), c.TotalMsgs(), bytes, msgs)
			}
		}
	}
}

// NodeGraph's allocation counts at any size. A CSR: five arrays for the
// directed node CSR and its scratch, three for the transpose, three for the
// merged adjacency, the Graph and its strengths. A Stencil on a block
// placement: the graph's three arrays, the Graph and its strengths; on any
// other (the symmetric read-back) stamp and acc besides.
const (
	csrFoldAllocs     = 13
	stencilFoldAllocs = 5
	symFoldAllocs     = 7
)

// A reintroduced per-rank or per-node allocation adds at least 768 objects
// between the two sizes and fails here.
func TestTraceAllocsIndependentOfRanks(t *testing.T) {
	for _, ranks := range []int{1024, 4096} {
		opts := SyntheticOptions{Pattern: Stencil2D, Width: 4}
		c, err := Synthetic(ranks, opts)
		if err != nil {
			t.Fatal(err)
		}
		p := mustBlock(t, ranks, 4)
		synth := testing.AllocsPerRun(3, func() {
			if _, err := Synthetic(ranks, opts); err != nil {
				t.Fatal(err)
			}
		})
		if synth > 10 {
			t.Errorf("%d ranks: Synthetic %v allocs, want <= 10", ranks, synth)
		}
		rr, err := topology.RoundRobin(&topology.Machine{Name: "t", Nodes: ranks / 4}, ranks, ranks/4)
		if err != nil {
			t.Fatal(err)
		}
		for _, fold := range []struct {
			m    Comm
			p    *topology.Placement
			want float64
		}{{c, p, csrFoldAllocs}, {mustStencil(t, ranks), p, stencilFoldAllocs}, {mustStencil(t, ranks), rr, symFoldAllocs}} {
			got := testing.AllocsPerRun(3, func() {
				if _, err := fold.m.NodeGraph(fold.p); err != nil {
					t.Fatal(err)
				}
			})
			if got != fold.want {
				t.Errorf("%d ranks: %T.NodeGraph (block ppn %d) %v allocs, want %v", ranks, fold.m, fold.p.BlockPPN(), got, fold.want)
			}
		}
	}
}

// The implicit source costs one small object however many ranks it covers,
// its logged fraction allocates nothing, and its node fold at the hcbench
// eval-128k shape allocates the same objects as at 1,024 ranks and under 1.05
// times the arrays the returned graph keeps: the closed form carves those
// arrays and no scratch. The general path, folding
// the CSR of the same rows, stays under three times (the directed node CSR
// and its transpose are each as large as the merged adjacency).
func TestStencilAllocationBound(t *testing.T) {
	if got := testing.AllocsPerRun(3, func() { mustStencil(t, 1<<20) }); got > 1 || unsafe.Sizeof(Stencil{}) >= 256 {
		t.Errorf("NewStencil at 2^20 ranks: %v allocs of %d B; want <= 1, < 256", got, unsafe.Sizeof(Stencil{}))
	}

	const ranks, ppn = 131072, 4
	s, p := mustStencil(t, ranks), mustBlock(t, ranks, ppn)
	part := make([]int32, ranks)
	for r := range part {
		part[r] = int32(r / 16)
	}
	if got := testing.AllocsPerRun(3, func() {
		if _, err := s.LoggedFraction(part); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Stencil.LoggedFraction: %v allocs, want 0", got)
	}

	g, err := s.NodeGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	own := int64(16*g.N() + 8) // rowptr and strengths
	for u := 0; u < g.N(); u++ {
		own += 12 * int64(len(g.Neighbors(u))) // an int32 column and a float64 weight
	}
	c, err := Synthetic(ranks, SyntheticOptions{Pattern: Stencil2D, Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, fold := range []struct {
		m      Comm
		allocs int64
		limit  float64
	}{{s, stencilFoldAllocs, 1.05}, {c, csrFoldAllocs, 3.0}} {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fold.m.NodeGraph(p); err != nil {
					b.Fatal(err)
				}
			}
		})
		ratio := float64(res.AllocedBytesPerOp()) / float64(own)
		t.Logf("%T.NodeGraph allocates %d B/op in %d objects for a graph of %d B (%.2f×)",
			fold.m, res.AllocedBytesPerOp(), res.AllocsPerOp(), own, ratio)
		if res.AllocsPerOp() != fold.allocs || ratio > fold.limit {
			t.Errorf("%T.NodeGraph: %d allocs (want %d), %.2f× the graph's arrays (limit %.1f×)",
				fold.m, res.AllocsPerOp(), fold.allocs, ratio, fold.limit)
		}
	}
}
