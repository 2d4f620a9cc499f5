package erasure

import "fmt"

// matrix is a dense matrix over GF(2^8), rows × cols.
type matrix struct {
	rows, cols int
	data       []byte // row-major
}

func newMatrix(rows, cols int) *matrix {
	return &matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

func (m *matrix) at(r, c int) byte     { return m.data[r*m.cols+c] }
func (m *matrix) set(r, c int, v byte) { m.data[r*m.cols+c] = v }
func (m *matrix) row(r int) []byte     { return m.data[r*m.cols : (r+1)*m.cols] }
func (m *matrix) swapRows(a, b int) {
	ra, rb := m.row(a), m.row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// vandermonde returns the rows×cols matrix with entry (r,c) = r^c, whose
// square submatrices built from distinct evaluation points are invertible —
// the classical Reed–Solomon construction.
func vandermonde(rows, cols int) *matrix {
	m := newMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.set(r, c, gfPow(byte(r), c))
		}
	}
	return m
}

// mul returns m × other.
func (m *matrix) mul(other *matrix) (*matrix, error) {
	if m.cols != other.rows {
		return nil, fmt.Errorf("erasure: matrix dims %dx%d × %dx%d", m.rows, m.cols, other.rows, other.cols)
	}
	out := newMatrix(m.rows, other.cols)
	for r := 0; r < m.rows; r++ {
		for k := 0; k < m.cols; k++ {
			a := m.at(r, k)
			if a == 0 {
				continue
			}
			logA := int(gfLog[a])
			orow := other.row(k)
			outRow := out.row(r)
			for c, b := range orow {
				if b != 0 {
					outRow[c] ^= gfExp[logA+int(gfLog[b])]
				}
			}
		}
	}
	return out, nil
}

// invertInto overwrites inv with the inverse of m, both n×n, by Gauss–Jordan
// elimination, or fails if m is singular. It reduces m itself to the
// identity on the way.
func (m *matrix) invertInto(inv *matrix) error {
	n := m.rows
	clear(inv.data)
	for i := 0; i < n; i++ {
		inv.set(i, i, 1)
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if m.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return fmt.Errorf("erasure: singular matrix at column %d", col)
		}
		if pivot != col {
			m.swapRows(pivot, col)
			inv.swapRows(pivot, col)
		}
		p := m.at(col, col)
		if p != 1 {
			pi := gfInv(p)
			scaleRow(m.row(col), pi)
			scaleRow(inv.row(col), pi)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m.at(r, col)
			if f == 0 {
				continue
			}
			addScaledRow(m.row(col), m.row(r), f)
			addScaledRow(inv.row(col), inv.row(r), f)
		}
	}
	return nil
}

func scaleRow(row []byte, c byte) {
	for i, v := range row {
		row[i] = gfMul(v, c)
	}
}

// addScaledRow computes dst ^= c*src.
func addScaledRow(src, dst []byte, c byte) {
	mulSlice(c, src, dst)
}

// subMatrix extracts the rows listed in rowIdx.
func (m *matrix) subMatrix(rowIdx []int) *matrix {
	out := newMatrix(len(rowIdx), m.cols)
	for i, r := range rowIdx {
		copy(out.row(i), m.row(r))
	}
	return out
}
