package trace

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func randomSparse(seed int64, n, pairs int) *CSR {
	rng := rand.New(rand.NewSource(seed))
	rec := NewRecorder(n)
	for i := 0; i < pairs; i++ {
		rec.Record(rng.Intn(n), rng.Intn(n), rng.Intn(1_000_000)+1)
	}
	return rec.Freeze()
}

// At full resolution (no downsampling) every pixel is its cell's log-scaled
// byte count — row = receiver, column = sender, any traffic at least 1 —
// and PGM's default bound is that rendering.
func TestCSRPGMMatchesDenseAtFullResolution(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c := randomSparse(seed, 40, 120)
		m := denseOf(c)
		var peak int64
		for _, row := range m.bytes {
			for _, b := range row {
				peak = max(peak, b)
			}
		}
		var want strings.Builder
		want.WriteString("P2\n40 40\n255\n")
		for r := 0; r < 40; r++ {
			for col := 0; col < 40; col++ {
				v := 0
				if b := m.bytes[col][r]; b > 0 {
					v = max(1, int(math.Log1p(float64(b))/math.Log1p(float64(peak))*255))
				}
				if col > 0 {
					want.WriteByte(' ')
				}
				fmt.Fprint(&want, v)
			}
			want.WriteByte('\n')
		}
		if got := c.PGM(40); got != want.String() {
			t.Fatalf("seed %d: PGM diverges from the cells:\ncells:\n%.200s\nPGM:\n%.200s", seed, want.String(), got)
		}
		if c.PGM(0) != want.String() {
			t.Fatalf("seed %d: PGM(0) is not the full-resolution rendering", seed)
		}
	}
}

// Downsampling must bound the pixel grid and keep the PGM well-formed, with
// intensity only where the matrix has traffic.
func TestCSRPGMDownsample(t *testing.T) {
	c, err := Synthetic(4096, SyntheticOptions{Pattern: Stencil2D, Width: 16})
	if err != nil {
		t.Fatal(err)
	}
	pgm := c.PGM(64)
	if !strings.HasPrefix(pgm, "P2\n64 64\n255\n") {
		t.Fatalf("downsampled header = %q", pgm[:20])
	}
	rows := strings.Split(strings.TrimSuffix(pgm, "\n"), "\n")
	if len(rows) != 3+64 {
		t.Fatalf("PGM has %d lines, want %d", len(rows), 3+64)
	}
	for i, row := range rows[3:] {
		if cells := strings.Fields(row); len(cells) != 64 {
			t.Fatalf("PGM row %d has %d cells, want 64", i, len(cells))
		}
	}
	// The stencil diagonal must survive pooling: every pixel row on the
	// main diagonal has traffic.
	for r := 0; r < 64; r++ {
		cells := strings.Fields(rows[3+r])
		if cells[r] == "0" {
			t.Fatalf("diagonal pixel (%d,%d) empty; pooling lost the stencil structure", r, r)
		}
	}
}

// Submatrix must agree with the zoomed window of the dense cells, cell for
// cell.
func TestCSRSubmatrixMatchesDense(t *testing.T) {
	c := randomSparse(9, 60, 200)
	m := denseOf(c)
	zoom, err := c.Submatrix(8, 40)
	if err != nil {
		t.Fatal(err)
	}
	if zoom.Ranks() != 32 {
		t.Fatalf("zoom ranks = %d, want 32", zoom.Ranks())
	}
	for s := 0; s < 32; s++ {
		for d := 0; d < 32; d++ {
			b, ms := zoom.At(s, d)
			if b != m.bytes[s+8][d+8] || ms != m.msgs[s+8][d+8] {
				t.Fatalf("zoom cell (%d,%d) = %d/%d, want %d/%d", s, d, b, ms, m.bytes[s+8][d+8], m.msgs[s+8][d+8])
			}
		}
	}
	if _, err := c.Submatrix(40, 8); err == nil {
		t.Error("accepted inverted bounds")
	}
	if _, err := c.Submatrix(0, 61); err == nil {
		t.Error("accepted out-of-range bound")
	}
}

// The sparse CSV lists exactly the stored pairs with a header line.
func TestCSRCSV(t *testing.T) {
	rec := NewRecorder(4)
	rec.Record(0, 1, 100)
	rec.Record(2, 3, 50)
	rec.Record(2, 3, 25)
	got := rec.Freeze().CSV()
	want := "src,dst,bytes,msgs\n0,1,100,1\n2,3,75,2\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
