package trace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"hierclust/internal/simmpi"
	"hierclust/internal/topology"
)

// stencilRecorder records the rank±1 neighbor exchange, the tsunami pattern.
func stencilRecorder(n, perMsg int) *Recorder {
	rec := NewRecorder(n)
	for r := 0; r+1 < n; r++ {
		rec.Record(r, r+1, perMsg)
		rec.Record(r+1, r, perMsg)
	}
	return rec
}

func stencilTrace(n, perMsg int) *CSR { return stencilRecorder(n, perMsg).Freeze() }

// The deprecated Matrix shim accumulates as a Recorder does — totals, cells
// read from its freeze, range errors — without a rank-squared grid.
func TestAddAndTotals(t *testing.T) {
	m := NewMatrix(3)
	if err := m.Add(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(2, 0, 7); err != nil {
		t.Fatal(err)
	}
	if m.TotalBytes() != 22 {
		t.Errorf("TotalBytes = %d, want 22", m.TotalBytes())
	}
	if m.TotalMsgs() != 3 {
		t.Errorf("TotalMsgs = %d, want 3", m.TotalMsgs())
	}
	if b, ms := m.b.freeze().At(0, 1); b != 15 || ms != 2 {
		t.Errorf("cell (0,1) = %d bytes / %d msgs", b, ms)
	}
	if err := m.Add(3, 0, 1); err == nil {
		t.Error("Add accepted out-of-range src")
	}
	if err := m.Add(0, -1, 1); err == nil {
		t.Error("Add accepted negative dst")
	}
	// 8,192 ranks: one row header each, not the 1 GB cell grid.
	if got := allocated(func() { NewMatrix(8192) }); got > 1<<20 {
		t.Errorf("NewMatrix(8192) allocated %d bytes, want under 1 MB", got)
	}
}

// The shim is a Comm by freezing: a Recorder fed the same messages answers
// every question alike, zero-byte messages included, and freezes to the
// same CSR.
func TestMatrixIsCommByConversion(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m, rec := NewMatrix(n), NewRecorder(n)
		for adds := rng.Intn(5 * n); adds > 0; adds-- {
			s, d, b := rng.Intn(n), rng.Intn(n), rng.Intn(4)*rng.Intn(10_000)
			_ = m.Add(s, d, int64(b))
			rec.Record(s, d, b)
		}
		c := rec.Freeze()
		if m.Ranks() != c.Ranks() || m.TotalBytes() != c.TotalBytes() || m.TotalMsgs() != c.TotalMsgs() {
			t.Fatalf("seed %d: ranks/totals %d/%d/%d, recording %d/%d/%d", seed,
				m.Ranks(), m.TotalBytes(), m.TotalMsgs(), c.Ranks(), c.TotalBytes(), c.TotalMsgs())
		}
		part := randomPart(rng, n, 4)
		ml, err1 := m.LoggedFraction(part)
		cl, err2 := c.LoggedFraction(part)
		if err1 != nil || err2 != nil || ml != cl {
			t.Fatalf("seed %d: LoggedFraction %g (%v), recording %g (%v)", seed, ml, err1, cl, err2)
		}
		p := testPlacement(t, rng, n)
		mg, err1 := m.NodeGraph(p)
		cg, err2 := c.NodeGraph(p)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		sameGraph(t, fmt.Sprintf("seed %d NodeGraph", seed), mg, cg)
		if !reflect.DeepEqual(m.b.freeze(), c) {
			t.Fatalf("seed %d: the shim's freeze differs from the recording", seed)
		}
	}
}

func TestCutBytesAndLoggedFraction(t *testing.T) {
	// 8-rank stencil, clusters of 4: one crossing pair (3<->4) of 7 total.
	m := stencilTrace(8, 100)
	part := []int32{0, 0, 0, 0, 1, 1, 1, 1}
	frac, err := m.LoggedFraction(part)
	if err != nil {
		t.Fatal(err)
	}
	want := 200.0 / 1400.0 // the crossing pair, both directions
	if math.Abs(frac-want) > 1e-12 {
		t.Errorf("logged fraction = %g, want %g", frac, want)
	}
	if _, err := m.LoggedFraction([]int32{0}); err == nil {
		t.Error("LoggedFraction accepted short assignment")
	}
}

func TestLoggedFractionMatchesPaperSweetSpot(t *testing.T) {
	// The paper's Fig. 3a sweet spot: 1024 ranks, clusters of 32
	// => 31 crossing pairs of 1023 ≈ 3.0% of stencil traffic logged.
	m := stencilTrace(1024, 1000)
	part := make([]int32, 1024)
	for r := range part {
		part[r] = int32(r / 32)
	}
	frac, err := m.LoggedFraction(part)
	if err != nil {
		t.Fatal(err)
	}
	want := 31.0 / 1023.0
	if math.Abs(frac-want) > 1e-12 {
		t.Errorf("logged = %g, want %g", frac, want)
	}
}

func TestEmptyMatrixLoggedFraction(t *testing.T) {
	m := NewRecorder(4).Freeze()
	frac, err := m.LoggedFraction([]int32{0, 1, 2, 3})
	if err != nil || frac != 0 {
		t.Errorf("empty matrix logged = %g, %v; want 0, nil", frac, err)
	}
}

func TestToGraphSymmetric(t *testing.T) {
	rec := NewRecorder(3)
	rec.Record(0, 1, 10)
	rec.Record(1, 0, 4)
	rec.Record(2, 2, 5) // self traffic
	g := rec.Freeze().ToGraph()
	if g.Weight(0, 1) != 14 {
		t.Errorf("graph weight(0,1) = %g, want 14", g.Weight(0, 1))
	}
	if g.Weight(2, 2) != 5 {
		t.Errorf("graph self-loop = %g, want 5", g.Weight(2, 2))
	}
}

func TestNodeGraph(t *testing.T) {
	mach := &topology.Machine{Name: "t", Nodes: 2}
	p, err := topology.Block(mach, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := stencilTrace(4, 10) // ranks 0,1 on node 0; 2,3 on node 1
	g, err := m.NodeGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 {
		t.Fatalf("node graph size = %d, want 2", g.N())
	}
	if g.Weight(0, 0) != 20 { // 0<->1 both directions
		t.Errorf("intra-node 0 = %g, want 20", g.Weight(0, 0))
	}
	if g.Weight(0, 1) != 20 || g.Weight(1, 0) != 20 { // 1->2 plus 2->1
		t.Errorf("inter-node = %g/%g, want 20/20", g.Weight(0, 1), g.Weight(1, 0))
	}
	bad, _ := topology.Block(mach, 2, 1)
	if _, err := m.NodeGraph(bad); err == nil {
		t.Error("NodeGraph accepted mismatched placement")
	}
}

func TestRecorderWithSimmpi(t *testing.T) {
	rec := NewRecorder(4)
	err := simmpi.Run(4, simmpi.Options{Tracer: rec}, func(p *simmpi.Proc) error {
		c := p.Comm()
		const n = 4
		if err := c.Send((p.Rank()+1)%n, 1, make([]byte, 64)); err != nil {
			return err
		}
		_, err := c.Recv((p.Rank()-1+n)%n, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	c := rec.Freeze()
	if c.TotalMsgs() != 4 {
		t.Errorf("TotalMsgs = %d, want 4", c.TotalMsgs())
	}
	if b, _ := c.At(0, 1); b != 64 {
		t.Errorf("0->1 bytes = %d, want 64", b)
	}
	// ignores out-of-range gracefully
	rec.Record(99, 0, 1)
	if rec.Freeze().TotalMsgs() != 4 {
		t.Error("out-of-range record was accumulated")
	}
}

// allocated returns the bytes f allocates (runtime.MemStats.TotalAlloc
// delta; nothing else runs while a test does).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A recorder's memory follows the pairs it has seen: at 8,192 ranks the
// dense cell grid it replaced was 1 GB before the first message.
func TestRecorderAllocationFollowsPairs(t *testing.T) {
	var c *CSR
	got := allocated(func() {
		rec := NewRecorder(8192)
		for i := 0; i < 10_000; i++ {
			rec.Record(i%8192, (i*7+1)%8192, 1024)
		}
		c = rec.Freeze()
	})
	if c.TotalMsgs() != 10_000 {
		t.Fatalf("recorded %d messages, want 10000", c.TotalMsgs())
	}
	if got > 8<<20 {
		t.Errorf("NewRecorder(8192) + 10,000 Records allocated %d bytes, want under 8 MB", got)
	}
}

// The grid CSV writes every cell, 0 where nothing is stored.
func TestCSV(t *testing.T) {
	rec := NewRecorder(2)
	rec.Record(0, 1, 3)
	got := rec.Freeze().GridCSV()
	want := "0,3\n0,0\n"
	if got != want {
		t.Errorf("GridCSV = %q, want %q", got, want)
	}
}

func TestTopPairs(t *testing.T) {
	rec := NewRecorder(4)
	rec.Record(0, 1, 100)
	rec.Record(2, 3, 300)
	rec.Record(1, 0, 200)
	c := rec.Freeze()
	top := c.TopPairs(2)
	if len(top) != 2 || top[0].Bytes != 300 || top[1].Bytes != 200 {
		t.Errorf("TopPairs = %+v", top)
	}
	all := c.TopPairs(100)
	if len(all) != 3 {
		t.Errorf("TopPairs(100) returned %d entries", len(all))
	}
}

func TestASCIIHeatmap(t *testing.T) {
	m := stencilTrace(8, 1000)
	art := m.ASCIIHeatmap(8)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 9 { // header + 8 rows
		t.Fatalf("heatmap has %d lines, want 9:\n%s", len(lines), art)
	}
	// The ±1 diagonals must be the only non-space cells.
	for r, line := range lines[1:] {
		for c := 0; c < 8; c++ {
			isDiag := c == r-1 || c == r+1
			filled := line[c] != ' '
			if isDiag != filled {
				t.Errorf("cell (%d,%d) filled=%v, want %v\n%s", r, c, filled, isDiag, art)
			}
		}
	}
}

func TestASCIIHeatmapDownsamples(t *testing.T) {
	m := stencilTrace(256, 10)
	art := m.ASCIIHeatmap(64)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 65 {
		t.Errorf("downsampled heatmap has %d lines, want 65", len(lines))
	}
	empty := NewRecorder(4).Freeze()
	if got := empty.ASCIIHeatmap(0); !strings.Contains(got, "4 x 4") {
		t.Errorf("empty heatmap header missing: %q", got)
	}
}

func TestPGM(t *testing.T) {
	m := stencilTrace(4, 100)
	pgm := m.PGM(0)
	if !strings.HasPrefix(pgm, "P2\n4 4\n255\n") {
		t.Errorf("PGM header wrong: %q", pgm[:20])
	}
	lines := strings.Split(strings.TrimRight(pgm, "\n"), "\n")
	if len(lines) != 3+4 {
		t.Errorf("PGM has %d lines, want 7", len(lines))
	}
}

func TestSubmatrix(t *testing.T) {
	c := stencilTrace(10, 5)
	sub, err := c.Submatrix(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Ranks() != 4 {
		t.Fatalf("sub.Ranks() = %d, want 4", sub.Ranks())
	}
	if b, _ := sub.At(0, 1); b != 5 { // was (2,3)
		t.Errorf("sub(0,1) = %d, want 5", b)
	}
	if _, err := c.Submatrix(5, 5); err == nil {
		t.Error("Submatrix accepted empty range")
	}
	if _, err := c.Submatrix(-1, 3); err == nil {
		t.Error("Submatrix accepted negative lo")
	}
	if _, err := c.Submatrix(0, 99); err == nil {
		t.Error("Submatrix accepted hi > N")
	}
}

// Property: LoggedFraction is within [0,1] and monotone under merging
// clusters (merging two clusters can only reduce the cut).
func TestLoggedFractionMergeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 4
		rec := NewRecorder(n)
		rng := seed
		next := func() int64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := rng >> 33
			if v < 0 {
				v = -v
			}
			return v
		}
		for i := 0; i < 3*n; i++ {
			s := int(next()) % n
			d := int(next()) % n
			rec.Record(s, d, int(next()%1000+1))
		}
		m := rec.Freeze()
		part := make([]int32, n)
		for i := range part {
			part[i] = int32(next() % 4)
		}
		f1, err := m.LoggedFraction(part)
		if err != nil || f1 < 0 || f1 > 1 {
			return false
		}
		merged := make([]int32, n)
		for i, p := range part {
			if p == 3 {
				p = 2 // merge clusters 2 and 3
			}
			merged[i] = p
		}
		f2, err := m.LoggedFraction(merged)
		if err != nil {
			return false
		}
		return f2 <= f1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
