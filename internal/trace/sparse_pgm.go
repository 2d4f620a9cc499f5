package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Figure-artifact rendering: the log-scale communication heatmaps of the
// paper's Figures 5a/5b, their full-resolution plotting inputs, and the
// zoom. ASCIIHeatmap and PGM walk only the stored pairs, max-pooling into a
// bounded pixel grid, so hcrun can draw them at any rank count the sparse
// pipeline evaluates; GridCSV writes all n² cells and is for traced scales.

// asciiShades orders glyphs from empty to densest.
var asciiShades = []byte(" .:-=+*#%@")

// maxPool downsamples the byte counts into a dim×dim pixel grid, dim ≤
// maxDim: the resolution halves until it fits, so each pixel covers a
// factor×factor rank block and keeps the block's largest byte count. Pixel
// (r, col) is cells[r*dim+col], row = receiver and column = sender (Fig.
// 5a's axes, origin at top-left); a pixel no positive count reaches stays 0.
// peak is the largest count, 1 when none is positive (the log scale's
// denominator). Memory and time are O(pixels + nnz) at any rank count.
func (c *CSR) maxPool(maxDim int) (cells []int64, dim, factor int, peak int64) {
	dim, factor = c.n, 1
	for dim > maxDim {
		factor *= 2
		dim = (c.n + factor - 1) / factor
	}
	cells = make([]int64, dim*dim)
	for s := 0; s < c.n; s++ {
		cs := s / factor
		for i := c.rowPtr[s]; i < c.rowPtr[s+1]; i++ {
			b := c.bytes[i]
			if cell := &cells[int(c.col[i])/factor*dim+cs]; b > *cell {
				*cell = b
			}
			peak = max(peak, b)
		}
	}
	return cells, dim, factor, max(peak, 1)
}

// ASCIIHeatmap renders the matrix for human inspection in at most
// maxDim×maxDim glyphs (0 = 64), max-pooled, one glyph per pixel bucketed
// logarithmically in bytes (the paper's 0.1..1e8 color bar), under a
// header line naming the ranks, the pooling factor and the peak.
func (c *CSR) ASCIIHeatmap(maxDim int) string {
	if maxDim <= 0 {
		maxDim = 64
	}
	cells, dim, factor, peak := c.maxPool(maxDim)
	logPeak := math.Log1p(float64(peak))
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d x %d ranks (cell = %d ranks), peak %d bytes\n", c.n, c.n, factor, peak)
	for r := 0; r < dim; r++ {
		for _, b := range cells[r*dim : (r+1)*dim] {
			idx := 0
			if b > 0 {
				level := math.Log1p(float64(b)) / logPeak
				idx = min(1+int(level*float64(len(asciiShades)-2)+0.5), len(asciiShades)-1)
			}
			sb.WriteByte(asciiShades[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// PGM renders the matrix as an ASCII portable graymap of at most
// maxDim×maxDim pixels (0 = 1024), max-pooled like ASCIIHeatmap, each
// pixel's intensity log-scaled to 255 with any traffic at least 1 —
// directly viewable or convertible, for regenerating Fig. 5a/5b plots.
func (c *CSR) PGM(maxDim int) string {
	if maxDim <= 0 {
		maxDim = 1024
	}
	cells, dim, _, peak := c.maxPool(maxDim)
	logPeak := math.Log1p(float64(peak))
	var sb strings.Builder
	fmt.Fprintf(&sb, "P2\n%d %d\n255\n", dim, dim)
	for r := 0; r < dim; r++ {
		for col, b := range cells[r*dim : (r+1)*dim] {
			v := 0
			if b > 0 {
				v = max(1, int(math.Log1p(float64(b))/logPeak*255))
			}
			if col > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.Itoa(v))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// GridCSV renders the byte counts as the dense n×n grid, one
// comma-separated line per sender and 0 for every pair never stored — the
// plotting input of Figs. 5a/5b. It writes n² cells: CSV is the form for
// synthetic scales.
func (c *CSR) GridCSV() string {
	var sb strings.Builder
	for s := 0; s < c.n; s++ {
		i := c.rowPtr[s]
		for d := 0; d < c.n; d++ {
			if d > 0 {
				sb.WriteByte(',')
			}
			var b int64
			if i < c.rowPtr[s+1] && int(c.col[i]) == d {
				b = c.bytes[i]
				i++
			}
			sb.WriteString(strconv.FormatInt(b, 10))
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
// O(nnz) output where GridCSV's n² grid would be unwritable at synthetic
// scales. Rows come out in (src, dst) order.
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
