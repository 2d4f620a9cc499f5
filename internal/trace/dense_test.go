package trace

import (
	"fmt"
	"math"
	"strings"
)

// denseRef is the n×n cell grid this package once stored as its dense
// Matrix, kept as the oracle the CSR is held against: its folds read cells,
// and its renderers are the retired dense ASCIIHeatmap, PGM and grid CSV,
// written over every cell rather than the stored pairs.
type denseRef struct {
	n           int
	bytes, msgs [][]int64
}

func newDenseRef(n int) *denseRef {
	m := &denseRef{n: n, bytes: make([][]int64, n), msgs: make([][]int64, n)}
	for i := range m.bytes {
		m.bytes[i], m.msgs[i] = make([]int64, n), make([]int64, n)
	}
	return m
}

// denseOf expands c's stored pairs into cells.
func denseOf(c *CSR) *denseRef {
	m := newDenseRef(c.n)
	for s := 0; s < c.n; s++ {
		for i := c.rowPtr[s]; i < c.rowPtr[s+1]; i++ {
			m.bytes[s][c.col[i]], m.msgs[s][c.col[i]] = c.bytes[i], c.msgs[i]
		}
	}
	return m
}

// add accumulates one message of the given size.
func (m *denseRef) add(s, d int, bytes int64) {
	m.bytes[s][d] += bytes
	m.msgs[s][d]++
}

// totals recounts every cell.
func (m *denseRef) totals() (bytes, msgs int64) {
	for s := range m.bytes {
		for d := range m.bytes[s] {
			bytes += m.bytes[s][d]
			msgs += m.msgs[s][d]
		}
	}
	return bytes, msgs
}

// pool downsamples by the max byte count of each factor×factor block,
// halving until the grid fits maxDim: cells[receiver][sender].
func (m *denseRef) pool(maxDim int) (cells [][]int64, factor int, peak int64) {
	dim, factor := m.n, 1
	for dim > maxDim {
		factor *= 2
		dim = (m.n + factor - 1) / factor
	}
	cells = make([][]int64, dim)
	for i := range cells {
		cells[i] = make([]int64, dim)
	}
	for s := 0; s < m.n; s++ {
		for d, b := range m.bytes[s] {
			if b == 0 {
				continue
			}
			cs, cd := s/factor, d/factor
			if b > cells[cd][cs] {
				cells[cd][cs] = b
			}
			if b > peak {
				peak = b
			}
		}
	}
	if peak == 0 {
		peak = 1
	}
	return cells, factor, peak
}

func (m *denseRef) asciiHeatmap(maxDim int) string {
	if maxDim <= 0 {
		maxDim = 64
	}
	cells, factor, peak := m.pool(maxDim)
	logPeak := math.Log1p(float64(peak))
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d x %d ranks (cell = %d ranks), peak %d bytes\n", m.n, m.n, factor, peak)
	for _, row := range cells {
		for _, b := range row {
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

func (m *denseRef) pgm(maxDim int) string {
	if maxDim <= 0 {
		maxDim = 1024
	}
	cells, _, peak := m.pool(maxDim)
	logPeak := math.Log1p(float64(peak))
	var sb strings.Builder
	fmt.Fprintf(&sb, "P2\n%d %d\n255\n", len(cells), len(cells))
	for _, row := range cells {
		for c, b := range row {
			v := 0
			if b > 0 {
				v = int(math.Log1p(float64(b)) / logPeak * 255)
				if v == 0 {
					v = 1
				}
			}
			if c > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (m *denseRef) gridCSV() string {
	var sb strings.Builder
	for s := 0; s < m.n; s++ {
		for d := 0; d < m.n; d++ {
			if d > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", m.bytes[s][d])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
