package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hierclust/internal/topology"
)

// randomMatrices builds the same random traffic into a dense Matrix and a
// SparseBuilder, returning the cells and the frozen CSR.
func randomMatrices(t *testing.T, seed int64, n, adds int) (*Matrix, *CSR) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dense := NewMatrix(n)
	sparse := NewSparseBuilder(n)
	for i := 0; i < adds; i++ {
		s, d := rng.Intn(n), rng.Intn(n)
		b := int64(rng.Intn(10_000) + 1)
		if err := dense.Add(s, d, b); err != nil {
			t.Fatal(err)
		}
		if err := sparse.Add(s, d, b); err != nil {
			t.Fatal(err)
		}
	}
	return dense, sparse.Freeze()
}

func randomPart(rng *rand.Rand, n, parts int) []int32 {
	part := make([]int32, n)
	for i := range part {
		part[i] = rng.Int31n(int32(parts))
	}
	return part
}

// Property: the CSR folds agree with the definitions read off the dense
// cells — totals, cut bytes, logged fraction, and the undirected graph's
// weights (both directions summed, the diagonal once).
func TestCSRDenseEquivalenceProperty(t *testing.T) {
	f := func(seed int64, nRaw, addsRaw uint8) bool {
		n := int(nRaw%30) + 2
		adds := int(addsRaw) + 1
		dense, csr := randomMatrices(t, seed, n, adds)
		if dense.TotalBytes() != csr.TotalBytes() || dense.TotalMsgs() != csr.TotalMsgs() {
			t.Logf("totals: dense %d/%d, csr %d/%d", dense.TotalBytes(), dense.TotalMsgs(), csr.TotalBytes(), csr.TotalMsgs())
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		part := randomPart(rng, n, 3)
		var dc int64
		for s := 0; s < n; s++ {
			for d, b := range dense.Bytes[s] {
				if part[s] != part[d] {
					dc += b
				}
			}
		}
		sc, err := csr.CutBytes(part)
		if err != nil || dc != sc {
			t.Logf("cut: cells %d, csr %d (%v)", dc, sc, err)
			return false
		}
		sl, _ := csr.LoggedFraction(part)
		if dl := float64(dc) / float64(dense.TotalBytes()); dl != sl {
			t.Logf("logged: cells %g csr %g", dl, sl)
			return false
		}
		sg := csr.ToGraph()
		for u := 0; u < n; u++ {
			for v := u; v < n; v++ {
				w := float64(dense.Bytes[u][v])
				if v != u {
					w += float64(dense.Bytes[v][u])
				}
				if sg.Weight(u, v) != w {
					t.Logf("graph weight (%d,%d): cells %g csr %g", u, v, w, sg.Weight(u, v))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: round-tripping through the conversions preserves every cell.
func TestCSRConversionRoundTrip(t *testing.T) {
	dense, csr := randomMatrices(t, 42, 17, 300)
	back := csr.ToDense()
	for s := 0; s < dense.N; s++ {
		for d := 0; d < dense.N; d++ {
			if back.Bytes[s][d] != dense.Bytes[s][d] || back.Msgs[s][d] != dense.Msgs[s][d] {
				t.Fatalf("cell (%d,%d) mismatch after round trip", s, d)
			}
			cb, cm := csr.At(s, d)
			if cb != dense.Bytes[s][d] || cm != dense.Msgs[s][d] {
				t.Fatalf("At(%d,%d) = %d/%d, want %d/%d", s, d, cb, cm, dense.Bytes[s][d], dense.Msgs[s][d])
			}
		}
	}
	viaDense := dense.ToCSR()
	if viaDense.NNZ() != csr.NNZ() || viaDense.TotalBytes() != csr.TotalBytes() {
		t.Fatalf("ToCSR: nnz %d/%d bytes %d/%d", viaDense.NNZ(), csr.NNZ(), viaDense.TotalBytes(), csr.TotalBytes())
	}
}

// A hand-built Matrix is a Comm by conversion: its answers and its WriteTo
// bytes are its ToCSR()'s, and ToCSR().ToDense() gives back every cell and
// both totals — zero-byte messages included.
func TestMatrixIsCommByConversion(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := NewMatrix(n)
		for adds := rng.Intn(5 * n); adds > 0; adds-- {
			_ = m.Add(rng.Intn(n), rng.Intn(n), int64(rng.Intn(4))*int64(rng.Intn(10_000)))
		}
		c := m.ToCSR()
		if m.Ranks() != c.Ranks() || m.TotalBytes() != c.TotalBytes() || m.TotalMsgs() != c.TotalMsgs() {
			t.Fatalf("seed %d: ranks/totals %d/%d/%d, ToCSR %d/%d/%d", seed,
				m.Ranks(), m.TotalBytes(), m.TotalMsgs(), c.Ranks(), c.TotalBytes(), c.TotalMsgs())
		}
		part := randomPart(rng, n, 4)
		ml, err1 := m.LoggedFraction(part)
		cl, err2 := c.LoggedFraction(part)
		if err1 != nil || err2 != nil || ml != cl {
			t.Fatalf("seed %d: LoggedFraction %g (%v), ToCSR %g (%v)", seed, ml, err1, cl, err2)
		}
		p := testPlacement(t, rng, n)
		mg, err1 := m.NodeGraph(p)
		cg, err2 := c.NodeGraph(p)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		sameGraph(t, fmt.Sprintf("seed %d NodeGraph", seed), mg, cg)
		var mb, cb bytes.Buffer
		if _, err := m.WriteTo(&mb); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WriteTo(&cb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mb.Bytes(), cb.Bytes()) {
			t.Fatalf("seed %d: WriteTo bytes differ from ToCSR().WriteTo", seed)
		}
		back := c.ToDense()
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("seed %d: ToCSR().ToDense() is not the identity on cells and totals", seed)
		}
	}
}

// NodeGraph against node sums read off the dense cells: edge {a,b} carries
// both directions between the two nodes' ranks, a self-loop the intra-node
// bytes.
func TestCSRNodeGraphMatchesDense(t *testing.T) {
	const ranks, ppn = 32, 4
	mach := &topology.Machine{Name: "t", Nodes: ranks / ppn}
	p, err := topology.Block(mach, ranks, ppn)
	if err != nil {
		t.Fatal(err)
	}
	dense, csr := randomMatrices(t, 7, ranks, 400)
	var sums [ranks / ppn][ranks / ppn]int64
	for s := 0; s < ranks; s++ {
		for d, b := range dense.Bytes[s] {
			sums[s/ppn][d/ppn] += b
		}
	}
	sg, err := csr.NodeGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if sg.N() != len(sums) {
		t.Fatalf("node graph has %d vertices, want %d", sg.N(), len(sums))
	}
	for u := range sums {
		for v := range sums {
			want := float64(sums[u][v])
			if v != u {
				want += float64(sums[v][u])
			}
			if sg.Weight(u, v) != want {
				t.Fatalf("node weight (%d,%d): cells %g csr %g", u, v, want, sg.Weight(u, v))
			}
		}
	}
}

// Hand values for the oracle the graph differentials lean on (refToGraph).
func TestCSRSymmetrize(t *testing.T) {
	b := NewSparseBuilder(4)
	_ = b.Add(0, 1, 10)
	_ = b.Add(1, 0, 5)
	_ = b.Add(2, 3, 7)
	_ = b.Add(1, 1, 3) // self-loop
	sym := refSymmetrize(b.Freeze())
	check := func(s, d int, want int64) {
		t.Helper()
		got, _ := sym.At(s, d)
		if got != want {
			t.Errorf("sym(%d,%d) = %d, want %d", s, d, got, want)
		}
	}
	check(0, 1, 15)
	check(1, 0, 15)
	check(2, 3, 7)
	check(3, 2, 7)
	check(1, 1, 3)
	// Totals sum every stored cell (both directions), keeping
	// CutBytes/TotalBytes a true fraction.
	if sym.TotalBytes() != 15+15+7+7+3 {
		t.Errorf("sym total = %d, want 47", sym.TotalBytes())
	}
	lf, err := sym.LoggedFraction([]int32{0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if lf < 0 || lf > 1 {
		t.Errorf("symmetrized LoggedFraction = %g outside [0,1]", lf)
	}
}

// Zero-byte messages (empty-payload syncs): a hand-built Matrix and a
// recording keep the cell and its message count, and the graph and node
// conversions drop it (only positive-weight edges exist).
func TestZeroByteMessageEquivalence(t *testing.T) {
	dense := NewMatrix(6)
	rec := NewRecorder(6)
	for _, m := range [][2]int{{0, 1}, {2, 3}, {2, 3}} {
		if err := dense.Add(m[0], m[1], 0); err != nil {
			t.Fatal(err)
		}
		rec.Record(m[0], m[1], 0)
	}
	_ = dense.Add(4, 5, 100)
	rec.Record(4, 5, 100)
	mach := &topology.Machine{Name: "t", Nodes: 3}
	p, err := topology.Block(mach, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, csr := range map[string]*CSR{"ToCSR": dense.ToCSR(), "Recorder": rec.Freeze()} {
		if csr.NNZ() != 3 || csr.TotalMsgs() != 4 || csr.TotalBytes() != 100 {
			t.Errorf("%s: nnz %d, %d msgs, %d bytes; want 3, 4, 100", name, csr.NNZ(), csr.TotalMsgs(), csr.TotalBytes())
		}
		if _, ms := csr.At(2, 3); ms != 2 {
			t.Errorf("%s: zero-byte cell (2,3) has %d msgs, want 2", name, ms)
		}
		if g := csr.ToGraph(); g.EdgeCount() != 1 || g.Weight(4, 5) != 100 {
			t.Errorf("%s: graph has %d edges, weight(4,5) = %g; want the one 100-byte edge", name, g.EdgeCount(), g.Weight(4, 5))
		}
		ng, err := csr.NodeGraph(p)
		if err != nil {
			t.Fatal(err)
		}
		if ng.EdgeCount() != 1 || ng.Weight(2, 2) != 100 {
			t.Errorf("%s: node graph has %d edges, weight(2,2) = %g; want the one intra-node loop", name, ng.EdgeCount(), ng.Weight(2, 2))
		}
	}
}

// A Matrix and the CSR recorded from the same traffic write the same bytes,
// and ReadCSR reproduces every cell.
func TestCSRSerializeRoundTrip(t *testing.T) {
	dense, csr := randomMatrices(t, 11, 13, 150)
	var denseBuf, csrBuf bytes.Buffer
	if _, err := dense.WriteTo(&denseBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := csr.WriteTo(&csrBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(denseBuf.Bytes(), csrBuf.Bytes()) {
		t.Fatal("Matrix.WriteTo and CSR.WriteTo bytes differ for the same traffic")
	}
	back, err := ReadCSR(&csrBuf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalBytes() != dense.TotalBytes() || back.TotalMsgs() != dense.TotalMsgs() || back.NNZ() != csr.NNZ() {
		t.Fatalf("read back %d bytes / %d msgs / %d pairs, want %d / %d / %d",
			back.TotalBytes(), back.TotalMsgs(), back.NNZ(), dense.TotalBytes(), dense.TotalMsgs(), csr.NNZ())
	}
	for s := 0; s < dense.N; s++ {
		for d := 0; d < dense.N; d++ {
			if b, m := back.At(s, d); b != dense.Bytes[s][d] || m != dense.Msgs[s][d] {
				t.Fatalf("cell (%d,%d) mismatch after round trip", s, d)
			}
		}
	}
}

func TestSyntheticStencil1D(t *testing.T) {
	const n, iters = 16, 10
	var perMsg int64 = 100
	c, err := Synthetic(n, SyntheticOptions{Iterations: iters, BytesPerMsg: perMsg})
	if err != nil {
		t.Fatal(err)
	}
	// 2(n-1) directed neighbor pairs, each carrying iters messages.
	wantPairs := 2 * (n - 1)
	if c.NNZ() != wantPairs {
		t.Errorf("nnz = %d, want %d", c.NNZ(), wantPairs)
	}
	if c.TotalMsgs() != int64(wantPairs)*iters {
		t.Errorf("total msgs = %d, want %d", c.TotalMsgs(), int64(wantPairs)*iters)
	}
	if c.TotalBytes() != int64(wantPairs)*iters*perMsg {
		t.Errorf("total bytes = %d, want %d", c.TotalBytes(), int64(wantPairs)*iters*perMsg)
	}
	for r := 0; r < n; r++ {
		for d := 0; d < n; d++ {
			b, _ := c.At(r, d)
			adjacent := d == r-1 || d == r+1
			if adjacent && b != perMsg*iters {
				t.Errorf("pair (%d,%d) = %d bytes, want %d", r, d, b, perMsg*iters)
			}
			if !adjacent && b != 0 {
				t.Errorf("non-neighbor pair (%d,%d) carries %d bytes", r, d, b)
			}
		}
	}
}

func TestSyntheticStencil2D(t *testing.T) {
	const n, w = 24, 6 // 4 rows x 6 cols
	c, err := Synthetic(n, SyntheticOptions{Pattern: Stencil2D, Width: w, Iterations: 1, BytesPerMsg: 1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		row, col := r/w, r%w
		for d := 0; d < n; d++ {
			b, _ := c.At(r, d)
			dr, dc := d/w, d%w
			vertical := dc == col && (dr == row-1 || dr == row+1)
			horizontal := dr == row && (dc == col-1 || dc == col+1)
			if (vertical || horizontal) != (b > 0) {
				t.Errorf("pair (%d,%d): bytes=%d, vertical=%v horizontal=%v", r, d, b, vertical, horizontal)
			}
		}
	}
	// Symmetric pattern: every directed edge has its reverse.
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			sb, _ := c.At(s, d)
			db, _ := c.At(d, s)
			if sb != db {
				t.Errorf("asymmetric synthetic pair (%d,%d): %d vs %d", s, d, sb, db)
			}
		}
	}
}

func TestSyntheticErrors(t *testing.T) {
	if _, err := Synthetic(0, SyntheticOptions{}); err == nil {
		t.Error("accepted 0 ranks")
	}
	if _, err := Synthetic(4, SyntheticOptions{Pattern: Stencil2D, Width: 9}); err == nil {
		t.Error("accepted width > ranks")
	}
}

// Running totals must survive every in-package mutation path.
func TestRunningTotalsConsistency(t *testing.T) {
	dense, _ := randomMatrices(t, 99, 10, 100)
	recount := func(m *Matrix) (int64, int64) {
		var b, ms int64
		for s := 0; s < m.N; s++ {
			for d := 0; d < m.N; d++ {
				b += m.Bytes[s][d]
				ms += m.Msgs[s][d]
			}
		}
		return b, ms
	}
	check := func(label string, m *Matrix) {
		t.Helper()
		b, ms := recount(m)
		if m.TotalBytes() != b || m.TotalMsgs() != ms {
			t.Errorf("%s: running totals %d/%d, recount %d/%d", label, m.TotalBytes(), m.TotalMsgs(), b, ms)
		}
	}
	check("add", dense)
	csr := dense.ToCSR()
	check("todense", csr.ToDense())
	sub, err := csr.Submatrix(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	check("submatrix", sub.ToDense())
	var buf bytes.Buffer
	if _, err := dense.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("serialize", back.ToDense())
}
