//go:build amd64 && !purego

package erasure

// useVec reports whether this CPU and OS run the GFNI + AVX2 kernel of
// gfni_amd64.s. It is a variable so that the package's differential tests
// can run the table kernel on the same inputs; nothing else writes it.
var useVec = cpuHasGFNI()

// vecChunk is the column width of one pass of encodeVec: a source chunk and
// the four parity chunks it updates stay in L1 while all k sources go by.
const vecChunk = 4 << 10

func cpuHasGFNI() bool

//go:noescape
func gfniMul(c byte, src, dst *byte, n int, xor bool)

//go:noescape
func gfniMul4(c0, c1, c2, c3 byte, src, d0, d1, d2, d3 *byte, n int, xor bool)

// vecMul computes dst[i] = c·src[i] (dst[i] ^= c·src[i] when xor) over the
// whole 32-byte blocks of src and returns how many bytes that was; the
// caller's table loop does the rest. len(dst) must be at least len(src).
func vecMul(c byte, src, dst []byte, xor bool) int {
	n := len(src) &^ 31
	if !useVec || n == 0 {
		return 0
	}
	_ = dst[n-1]
	gfniMul(c, &src[0], &dst[0], n, xor)
	return n
}

// encodeVec is RS.Encode on the vector kernel, and reports whether it ran.
// It walks the shards in vecChunk columns; within a column every four
// parity rows share one load of each source block (gfniMul4), and the
// m mod 4 rows left over take the one-row form. The bytes past the last
// whole 32-byte block go through mulSlice's 8-bit table.
func (r *RS) encodeVec(data, parity [][]byte) bool {
	if !useVec || r.m == 0 {
		return false
	}
	size := len(data[0])
	whole := size &^ 31
	rows := r.m &^ 3
	for lo := 0; lo < whole; lo += vecChunk {
		n := min(vecChunk, whole-lo)
		for p := 0; p < rows; p += 4 {
			c0, c1, c2, c3 := r.enc.row(r.k+p), r.enc.row(r.k+p+1), r.enc.row(r.k+p+2), r.enc.row(r.k+p+3)
			for d, src := range data {
				gfniMul4(c0[d], c1[d], c2[d], c3[d], &src[lo],
					&parity[p][lo], &parity[p+1][lo], &parity[p+2][lo], &parity[p+3][lo], n, d > 0)
			}
		}
		for p := rows; p < r.m; p++ {
			c := r.enc.row(r.k + p)
			for d, src := range data {
				gfniMul(c[d], &src[lo], &parity[p][lo], n, d > 0)
			}
		}
	}
	if whole < size {
		for p, out := range parity {
			clear(out[whole:])
			for d, c := range r.enc.row(r.k + p) {
				mulSlice(c, data[d][whole:], out[whole:])
			}
		}
	}
	return true
}
