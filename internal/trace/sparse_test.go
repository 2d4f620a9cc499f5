package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"hierclust/internal/topology"
)

// randomMatrices builds the same random traffic into a dense Matrix and a
// SparseBuilder, returning both views.
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

func randomPart(rng *rand.Rand, n, parts int) []int {
	part := make([]int, n)
	for i := range part {
		part[i] = rng.Intn(parts)
	}
	return part
}

// Property: the dense and CSR paths agree on every metric the clustering
// pipeline consumes — totals, cut bytes, logged fraction — and on the
// derived graphs (cut weight, modularity, total weight).
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
		dc, err1 := dense.CutBytes(part)
		sc, err2 := csr.CutBytes(part)
		if err1 != nil || err2 != nil || dc != sc {
			t.Logf("cut: dense %d (%v), csr %d (%v)", dc, err1, sc, err2)
			return false
		}
		dl, _ := dense.LoggedFraction(part)
		sl, _ := csr.LoggedFraction(part)
		if dl != sl {
			t.Logf("logged: dense %g csr %g", dl, sl)
			return false
		}
		dg, sg := dense.ToGraph(), csr.ToGraph()
		if dg.TotalWeight() != sg.TotalWeight() || dg.EdgeCount() != sg.EdgeCount() {
			t.Logf("graphs: weight %g/%g edges %d/%d", dg.TotalWeight(), sg.TotalWeight(), dg.EdgeCount(), sg.EdgeCount())
			return false
		}
		dcw, _ := dg.CutWeight(part)
		scw, _ := sg.CutWeight(part)
		if dcw != scw {
			t.Logf("graph cut: %g vs %g", dcw, scw)
			return false
		}
		dm, _ := dg.Modularity(part)
		sm, _ := sg.Modularity(part)
		diff := dm - sm
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9 {
			t.Logf("modularity: %g vs %g", dm, sm)
			return false
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

func TestCSRNodeGraphMatchesDense(t *testing.T) {
	mach := &topology.Machine{Name: "t", Nodes: 8}
	p, err := topology.Block(mach, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	dense, csr := randomMatrices(t, 7, 32, 400)
	dg, err := dense.NodeGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := csr.NodeGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if dg.N() != sg.N() {
		t.Fatalf("node graphs differ in size: %d vs %d", dg.N(), sg.N())
	}
	for u := 0; u < dg.N(); u++ {
		for v := 0; v < dg.N(); v++ {
			if dg.Weight(u, v) != sg.Weight(u, v) {
				t.Fatalf("node weight (%d,%d): dense %g csr %g", u, v, dg.Weight(u, v), sg.Weight(u, v))
			}
		}
	}
}

func TestCSRSymmetrize(t *testing.T) {
	b := NewSparseBuilder(4)
	_ = b.Add(0, 1, 10)
	_ = b.Add(1, 0, 5)
	_ = b.Add(2, 3, 7)
	_ = b.Add(1, 1, 3) // self-loop
	sym := b.Freeze().Symmetrize()
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
	lf, err := sym.LoggedFraction([]int{0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if lf < 0 || lf > 1 {
		t.Errorf("symmetrized LoggedFraction = %g outside [0,1]", lf)
	}
}

// Zero-byte messages (empty-payload syncs) must behave identically on both
// paths: the cell records the message, and graph/node conversions drop it
// exactly like the dense implementations do.
func TestZeroByteMessageEquivalence(t *testing.T) {
	dense := NewMatrix(6)
	sparse := NewSparseBuilder(6)
	for _, m := range [][2]int{{0, 1}, {2, 3}, {2, 3}} {
		if err := dense.Add(m[0], m[1], 0); err != nil {
			t.Fatal(err)
		}
		if err := sparse.Add(m[0], m[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	_ = dense.Add(4, 5, 100)
	_ = sparse.Add(4, 5, 100)
	csr := sparse.Freeze()
	if dense.TotalMsgs() != csr.TotalMsgs() || dense.TotalBytes() != csr.TotalBytes() {
		t.Fatalf("totals: %d/%d vs %d/%d", dense.TotalBytes(), dense.TotalMsgs(), csr.TotalBytes(), csr.TotalMsgs())
	}
	dg, sg := dense.ToGraph(), csr.ToGraph()
	if dg.EdgeCount() != sg.EdgeCount() || len(dg.Components()) != len(sg.Components()) {
		t.Errorf("graphs diverge on zero-byte cells: edges %d/%d components %d/%d",
			dg.EdgeCount(), sg.EdgeCount(), len(dg.Components()), len(sg.Components()))
	}
	mach := &topology.Machine{Name: "t", Nodes: 3}
	p, err := topology.Block(mach, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := dense.NodeGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := csr.NodeGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if dn.EdgeCount() != sn.EdgeCount() || dn.TotalWeight() != sn.TotalWeight() {
		t.Errorf("node aggregation diverges: %d edges/%g vs %d/%g",
			dn.EdgeCount(), dn.TotalWeight(), sn.EdgeCount(), sn.TotalWeight())
	}
}

func TestSparseRecorderMatchesRecorder(t *testing.T) {
	dense := NewRecorder(8)
	sparse := NewSparseRecorder(8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		s, d, b := rng.Intn(8), rng.Intn(8), rng.Intn(1000)+1
		dense.Record(s, d, b)
		sparse.Record(s, d, b)
	}
	dense.Record(9, 0, 10) // out of range: both must ignore
	sparse.Record(9, 0, 10)
	m, c := dense.Matrix(), sparse.Freeze()
	if m.TotalBytes() != c.TotalBytes() || m.TotalMsgs() != c.TotalMsgs() {
		t.Fatalf("recorder totals differ: %d/%d vs %d/%d", m.TotalBytes(), m.TotalMsgs(), c.TotalBytes(), c.TotalMsgs())
	}
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if cb, cm := c.At(s, d); cb != m.Bytes[s][d] || cm != m.Msgs[s][d] {
				t.Fatalf("cell (%d,%d): %d/%d vs %d/%d", s, d, cb, cm, m.Bytes[s][d], m.Msgs[s][d])
			}
		}
	}
}

func TestCSRSerializeRoundTrip(t *testing.T) {
	dense, csr := randomMatrices(t, 11, 13, 150)
	var denseBuf, csrBuf bytes.Buffer
	if _, err := dense.WriteTo(&denseBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := csr.WriteTo(&csrBuf); err != nil {
		t.Fatal(err)
	}
	// CSR written bytes must be readable by both readers.
	fromCSRBytes, err := ReadMatrix(bytes.NewReader(csrBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sparseFromDense, err := ReadCSR(bytes.NewReader(denseBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if fromCSRBytes.TotalBytes() != dense.TotalBytes() || sparseFromDense.TotalBytes() != dense.TotalBytes() {
		t.Fatalf("serialized totals differ: %d / %d / %d",
			fromCSRBytes.TotalBytes(), sparseFromDense.TotalBytes(), dense.TotalBytes())
	}
	for s := 0; s < dense.N; s++ {
		for d := 0; d < dense.N; d++ {
			if fromCSRBytes.Bytes[s][d] != dense.Bytes[s][d] {
				t.Fatalf("dense reader cell (%d,%d) mismatch", s, d)
			}
			if b, m := sparseFromDense.At(s, d); b != dense.Bytes[s][d] || m != dense.Msgs[s][d] {
				t.Fatalf("sparse reader cell (%d,%d) mismatch", s, d)
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
	sub, err := dense.Submatrix(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	check("submatrix", sub)
	mach := &topology.Machine{Name: "t", Nodes: 5}
	p, err := topology.Block(mach, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := dense.NodeMatrix(p)
	if err != nil {
		t.Fatal(err)
	}
	check("nodematrix", nm)
	var buf bytes.Buffer
	if _, err := dense.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("serialize", back)
}
