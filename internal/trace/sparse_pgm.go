package trace

import (
	"fmt"
	"math"
	"strings"
)

// Figure-artifact rendering. These renderers walk only the stored pairs,
// downsampling into a bounded pixel grid, so hcrun can dump fig5a/fig5b-style
// heatmaps at any rank count the sparse pipeline evaluates; the dense grid
// views (Matrix.CSV, Matrix.ASCIIHeatmap) are for traced scales.

// PGM renders the matrix as an ASCII portable graymap of at most
// maxDim×maxDim pixels (0 = 1024). When the matrix is larger than the pixel
// grid, each pixel covers a factor×factor rank block and takes the block's
// maximum byte count — the same max-pooling and log intensity scale as
// Matrix.ASCIIHeatmap, and the same axes (column = sender, row = receiver).
// Memory and time are O(pixels + nnz) regardless of rank count.
func (c *CSR) PGM(maxDim int) string {
	if maxDim <= 0 {
		maxDim = 1024
	}
	dim := c.n
	factor := 1
	for dim > maxDim {
		factor *= 2
		dim = (c.n + factor - 1) / factor
	}
	cells := make([]int64, dim*dim)
	var peak int64
	for s := 0; s < c.n; s++ {
		cs := s / factor
		for i := c.rowPtr[s]; i < c.rowPtr[s+1]; i++ {
			b := c.bytes[i]
			if b == 0 {
				continue
			}
			cd := int(c.col[i]) / factor
			if cell := &cells[cd*dim+cs]; b > *cell { // row=receiver, col=sender
				*cell = b
			}
			if b > peak {
				peak = b
			}
		}
	}
	if peak == 0 {
		peak = 1
	}
	logPeak := math.Log1p(float64(peak))
	var sb strings.Builder
	fmt.Fprintf(&sb, "P2\n%d %d\n255\n", dim, dim)
	for r := 0; r < dim; r++ {
		for col := 0; col < dim; col++ {
			b := cells[r*dim+col]
			v := 0
			if b > 0 {
				v = int(math.Log1p(float64(b)) / logPeak * 255)
				if v == 0 {
					v = 1
				}
			}
			if col > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Submatrix returns the traffic among ranks [lo, hi), re-indexed from 0 —
// the zoom operation of Figure 5b — touching only the stored pairs.
func (c *CSR) Submatrix(lo, hi int) (*CSR, error) {
	if lo < 0 || hi > c.n || lo >= hi {
		return nil, fmt.Errorf("trace: submatrix [%d,%d) of %d ranks", lo, hi, c.n)
	}
	out := &CSR{n: hi - lo, rowPtr: make([]int64, hi-lo+1)}
	for s := lo; s < hi; s++ {
		for i := c.rowPtr[s]; i < c.rowPtr[s+1]; i++ {
			d := int(c.col[i])
			if d < lo || d >= hi {
				continue
			}
			out.col = append(out.col, int32(d-lo))
			out.bytes = append(out.bytes, c.bytes[i])
			out.msgs = append(out.msgs, c.msgs[i])
			out.totalBytes += c.bytes[i]
			out.totalMsgs += c.msgs[i]
		}
		out.rowPtr[s-lo+1] = int64(len(out.col))
	}
	return out, nil
}

// CSV renders the stored pairs as "src,dst,bytes,msgs" triplet lines —
// O(nnz) output where the dense CSV's n² grid would be unwritable at
// synthetic scales. Rows come out in (src, dst) order.
func (c *CSR) CSV() string {
	var sb strings.Builder
	sb.WriteString("src,dst,bytes,msgs\n")
	for s := 0; s < c.n; s++ {
		for i := c.rowPtr[s]; i < c.rowPtr[s+1]; i++ {
			fmt.Fprintf(&sb, "%d,%d,%d,%d\n", s, c.col[i], c.bytes[i], c.msgs[i])
		}
	}
	return sb.String()
}
