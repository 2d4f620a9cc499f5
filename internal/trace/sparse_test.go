package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hierclust/internal/topology"
)

// randomMatrices records the same random traffic into the dense oracle and
// a Recorder, returning the cells and the frozen CSR.
func randomMatrices(t *testing.T, seed int64, n, adds int) (*denseRef, *CSR) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dense := newDenseRef(n)
	rec := NewRecorder(n)
	for i := 0; i < adds; i++ {
		s, d := rng.Intn(n), rng.Intn(n)
		b := rng.Intn(10_000) + 1
		dense.add(s, d, int64(b))
		rec.Record(s, d, b)
	}
	return dense, rec.Freeze()
}

func randomPart(rng *rand.Rand, n, parts int) []int32 {
	part := make([]int32, n)
	for i := range part {
		part[i] = rng.Int31n(int32(parts))
	}
	return part
}

// Property: the CSR folds agree with the definitions read off the dense
// cells — totals, logged fraction (the cut bytes over the total), and the undirected graph's
// weights (both directions summed, the diagonal once).
func TestCSRDenseEquivalenceProperty(t *testing.T) {
	f := func(seed int64, nRaw, addsRaw uint8) bool {
		n := int(nRaw%30) + 2
		adds := int(addsRaw) + 1
		dense, csr := randomMatrices(t, seed, n, adds)
		db, dm := dense.totals()
		if db != csr.TotalBytes() || dm != csr.TotalMsgs() {
			t.Logf("totals: dense %d/%d, csr %d/%d", db, dm, csr.TotalBytes(), csr.TotalMsgs())
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		part := randomPart(rng, n, 3)
		var dc int64
		for s := 0; s < n; s++ {
			for d, b := range dense.bytes[s] {
				if part[s] != part[d] {
					dc += b
				}
			}
		}
		sl, err := csr.LoggedFraction(part)
		if dl := float64(dc) / float64(db); err != nil || dl != sl {
			t.Logf("logged: cells %g csr %g (%v)", dl, sl, err)
			return false
		}
		sg := csr.ToGraph()
		for u := 0; u < n; u++ {
			for v := u; v < n; v++ {
				w := float64(dense.bytes[u][v])
				if v != u {
					w += float64(dense.bytes[v][u])
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

// Property: the recorded CSR holds every cell the dense oracle accumulated,
// read back through At and through the oracle's expansion.
func TestCSRConversionRoundTrip(t *testing.T) {
	dense, csr := randomMatrices(t, 42, 17, 300)
	if back := denseOf(csr); !reflect.DeepEqual(back, dense) {
		t.Fatal("cells differ after expanding the CSR")
	}
	for s := 0; s < dense.n; s++ {
		for d := 0; d < dense.n; d++ {
			cb, cm := csr.At(s, d)
			if cb != dense.bytes[s][d] || cm != dense.msgs[s][d] {
				t.Fatalf("At(%d,%d) = %d/%d, want %d/%d", s, d, cb, cm, dense.bytes[s][d], dense.msgs[s][d])
			}
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
		for d, b := range dense.bytes[s] {
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
	rec := NewRecorder(4)
	rec.Record(0, 1, 10)
	rec.Record(1, 0, 5)
	rec.Record(2, 3, 7)
	rec.Record(1, 1, 3) // self-loop
	sym := refSymmetrize(rec.Freeze())
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

// Zero-byte messages (empty-payload syncs): a recording and its file round
// trip keep the cell and its message count, and the graph and node
// conversions drop it (only positive-weight edges exist).
func TestZeroByteMessageEquivalence(t *testing.T) {
	rec := NewRecorder(6)
	for _, m := range [][2]int{{0, 1}, {2, 3}, {2, 3}} {
		rec.Record(m[0], m[1], 0)
	}
	rec.Record(4, 5, 100)
	mach := &topology.Machine{Name: "t", Nodes: 3}
	p, err := topology.Block(mach, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rec.Freeze().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, csr := range map[string]*CSR{"Recorder": rec.Freeze(), "ReadCSR": read} {
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

// A recorded CSR written and read back reproduces every dense cell.
func TestCSRSerializeRoundTrip(t *testing.T) {
	dense, csr := randomMatrices(t, 11, 13, 150)
	var buf bytes.Buffer
	if _, err := csr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	db, dm := dense.totals()
	if back.TotalBytes() != db || back.TotalMsgs() != dm || back.NNZ() != csr.NNZ() {
		t.Fatalf("read back %d bytes / %d msgs / %d pairs, want %d / %d / %d",
			back.TotalBytes(), back.TotalMsgs(), back.NNZ(), db, dm, csr.NNZ())
	}
	if !reflect.DeepEqual(denseOf(back), dense) {
		t.Fatal("cells differ after the round trip")
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

// Running totals must survive every in-package construction path: the
// recording, the zoom and the file reader.
func TestRunningTotalsConsistency(t *testing.T) {
	_, csr := randomMatrices(t, 99, 10, 100)
	check := func(label string, c *CSR) {
		t.Helper()
		b, ms := denseOf(c).totals()
		if c.TotalBytes() != b || c.TotalMsgs() != ms {
			t.Errorf("%s: running totals %d/%d, recount %d/%d", label, c.TotalBytes(), c.TotalMsgs(), b, ms)
		}
	}
	check("record", csr)
	sub, err := csr.Submatrix(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	check("submatrix", sub)
	var buf bytes.Buffer
	if _, err := csr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("serialize", back)
}
