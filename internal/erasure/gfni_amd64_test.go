//go:build amd64 && !purego

package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// withTableKernel runs f with the vector kernel off, so that the same
// process computes the same inputs on the portable path — the differential
// oracle. Sequential tests only: useVec is a plain package variable.
func withTableKernel(f func()) {
	defer func(v bool) { useVec = v }(useVec)
	useVec = false
	f()
}

// TestGFNIProductsExhaustive checks every one of the 256 × 256 products of
// both assembly entry points, in assign and in accumulate form, against the
// bitwise reference: src holds every byte value once, and row j of the
// four-row form takes coefficient c+64j, so each row sees all 256.
func TestGFNIProductsExhaustive(t *testing.T) {
	if !useVec {
		t.Skip("no GFNI + AVX2 on this host")
	}
	var src, seed [256]byte
	for i := range src {
		src[i] = byte(i)
		seed[i] = byte(i*7 + 3)
	}
	for c := 0; c < 256; c++ {
		for _, xor := range []bool{false, true} {
			var want [4][256]byte
			for j := range want {
				for x := range want[j] {
					want[j][x] = naiveMul(byte(c+64*j), byte(x))
					if xor {
						want[j][x] ^= seed[x]
					}
				}
			}
			got := [4][256]byte{seed, seed, seed, seed}
			gfniMul(byte(c), &src[0], &got[0][0], len(src), xor)
			if got[0] != want[0] {
				t.Fatalf("gfniMul(c=%d, xor=%v) differs from naiveMul", c, xor)
			}
			got[0] = seed
			gfniMul4(byte(c), byte(c+64), byte(c+128), byte(c+192), &src[0],
				&got[0][0], &got[1][0], &got[2][0], &got[3][0], len(src), xor)
			if got != want {
				t.Fatalf("gfniMul4(c=%d+64j, xor=%v) differs from naiveMul", c, xor)
			}
		}
	}
}

// TestGFNIDistributive checks c·(a⊕b) = c·a ⊕ c·b on whole blocks for every
// coefficient: the left side is one assign, the right side an assign
// followed by an accumulate, on each entry point.
func TestGFNIDistributive(t *testing.T) {
	if !useVec {
		t.Skip("no GFNI + AVX2 on this host")
	}
	const n = 4096 + 32
	rng := rand.New(rand.NewSource(21))
	a, b, sum := make([]byte, n), make([]byte, n), make([]byte, n)
	rng.Read(a)
	rng.Read(b)
	for i := range sum {
		sum[i] = a[i] ^ b[i]
	}
	var left, right [4][]byte
	for j := range left {
		left[j], right[j] = make([]byte, n), make([]byte, n)
	}
	for c := 0; c < 256; c++ {
		gfniMul(byte(c), &sum[0], &left[0][0], n, false)
		gfniMul(byte(c), &a[0], &right[0][0], n, false)
		gfniMul(byte(c), &b[0], &right[0][0], n, true)
		if !bytes.Equal(left[0], right[0]) {
			t.Fatalf("gfniMul: %d·(a^b) != %d·a ^ %d·b", c, c, c)
		}
		c0, c1, c2, c3 := byte(c), byte(c+64), byte(c+128), byte(c+192)
		gfniMul4(c0, c1, c2, c3, &sum[0], &left[0][0], &left[1][0], &left[2][0], &left[3][0], n, false)
		gfniMul4(c0, c1, c2, c3, &a[0], &right[0][0], &right[1][0], &right[2][0], &right[3][0], n, false)
		gfniMul4(c0, c1, c2, c3, &b[0], &right[0][0], &right[1][0], &right[2][0], &right[3][0], n, true)
		for j := range left {
			if !bytes.Equal(left[j], right[j]) {
				t.Fatalf("gfniMul4 row %d: c·(a^b) != c·a ^ c·b at c=%d", j, c+64*j)
			}
		}
	}
}
