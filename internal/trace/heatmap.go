package trace

import (
	"fmt"
	"math"
	"strings"
)

// Heatmap renders the byte matrix for human inspection, reproducing the
// log-scale communication heatmaps of the paper's Figures 5a/5b. Intensity
// buckets are logarithmic in bytes, matching the paper's 0.1..1e8 color bar.

// asciiShades orders glyphs from empty to densest.
var asciiShades = []byte(" .:-=+*#%@")

// ASCIIHeatmap renders at most maxDim rows/columns (downsampling by max
// when the matrix is larger), one glyph per cell, log-bucketed by bytes.
// Row = receiver, column = sender, origin at top-left, matching Fig. 5a's
// axes (sender on x, receiver on y).
func (m *Matrix) ASCIIHeatmap(maxDim int) string {
	if maxDim <= 0 {
		maxDim = 64
	}
	dim := m.N
	factor := 1
	for dim > maxDim {
		factor *= 2
		dim = (m.N + factor - 1) / factor
	}
	// Downsample by taking the max byte count in each factor×factor block.
	cells := make([][]int64, dim)
	var peak int64
	for i := range cells {
		cells[i] = make([]int64, dim)
	}
	for s := 0; s < m.N; s++ {
		for d, b := range m.Bytes[s] {
			if b == 0 {
				continue
			}
			cs, cd := s/factor, d/factor
			if b > cells[cd][cs] {
				cells[cd][cs] = b // row=receiver, col=sender
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
	fmt.Fprintf(&sb, "%d x %d ranks (cell = %d ranks), peak %d bytes\n", m.N, m.N, factor, peak)
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			b := cells[r][c]
			if b == 0 {
				sb.WriteByte(asciiShades[0])
				continue
			}
			level := math.Log1p(float64(b)) / logPeak
			idx := 1 + int(level*float64(len(asciiShades)-2)+0.5)
			if idx >= len(asciiShades) {
				idx = len(asciiShades) - 1
			}
			sb.WriteByte(asciiShades[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// PGM renders the full matrix as an ASCII PGM (portable graymap) image, one
// pixel per (sender, receiver) cell with log-scaled intensity — directly
// viewable or convertible, for regenerating Fig. 5a/5b plots.
func (m *Matrix) PGM() string { return m.ToCSR().PGM(m.N) }
