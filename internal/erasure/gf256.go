// Package erasure implements the erasure codes the paper layers under its
// multi-level checkpointing: bit-wise XOR parity and Reed–Solomon coding
// over GF(2^8), plus the group encoder that runs them in parallel across an
// encoding cluster (the L2 clusters of the hierarchical scheme).
//
// The Reed–Solomon code is systematic: an encoding group of k checkpoint
// blocks produces m parity blocks such that any k of the k+m blocks
// reconstruct the originals. Encoding cost per member grows linearly with k
// (k² per RS(k,k) group), which is the empirical law behind the paper's
// Figure 3b and Table II encode times (51 s, 102 s, 204 s per GB at
// k = 8, 16, 32).
//
// The field is GF(2^8) modulo x^8+x^4+x^3+x+1, the polynomial the GFNI
// instructions hard-wire, so one multiply kernel has two tiers that agree
// byte for byte: hand-written GFNI + AVX2 assembly (gfni_amd64.s) where the
// CPU has it, and the table kernel of tables.go everywhere else and under
// `-tags purego`. See the header of tables.go for which runs when.
package erasure

import "fmt"

// gf256 uses the AES polynomial x^8+x^4+x^3+x+1 (0x11b) with generator 3.
const gfPoly = 0x11b

var (
	gfExp [512]byte // gfExp[i] = 3^i, doubled to skip mod 255 in mul
	gfLog [256]byte // gfLog[gfExp[i]] = i
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		// x *= 3 in GF(2^8): (x<<1 mod poly) ^ x
		x2 := x << 1
		if x2&0x100 != 0 {
			x2 ^= gfPoly
		}
		x = (x2 ^ x) & 0xff
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	initMulTable()
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv returns a/b. Division by zero panics: it indicates a broken decode
// matrix, which is a programming error, not an input error.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("erasure: GF(256) division by zero")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a.
func gfInv(a byte) byte {
	if a == 0 {
		panic("erasure: GF(256) inverse of zero")
	}
	return gfExp[255-int(gfLog[a])]
}

// gfPow returns a^n.
func gfPow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	l := (int(gfLog[a]) * n) % 255
	if l < 0 {
		l += 255
	}
	return gfExp[l]
}

// mulSlice computes dst[i] ^= c*src[i] for all i; the inner loop of every
// Reed–Solomon encode and decode. dst and src must have equal length.
// c == 1 takes the 64-bit-word XOR fast path; other coefficients use the
// precomputed 256-entry row of gfMulTable.
func mulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("erasure: mulSlice length mismatch %d != %d", len(src), len(dst)))
	}
	switch c {
	case 0:
		return
	case 1:
		xorWords(src, dst)
	default:
		// Byte-wise via the 8-bit table: mulSlice serves the small-row
		// matrix algebra; the bulk coding paths go through encodeVec
		// and encodeRow.
		tbl := mulRow(c)
		for i, s := range src {
			dst[i] ^= tbl[s]
		}
	}
}

// xorSlice computes dst[i] ^= src[i], 8 bytes at a time.
func xorSlice(src, dst []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("erasure: xorSlice length mismatch %d != %d", len(src), len(dst)))
	}
	xorWords(src, dst)
}
