package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// naiveMul is an independent GF(256) reference multiply: Russian-peasant
// carryless multiplication reduced by the AES polynomial, sharing no code
// or tables with the kernels under test.
func naiveMul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b // 0x11b mod x^8
		}
		b >>= 1
	}
	return p
}

// kernelSizes covers the word-loop boundaries: empty, sub-word, word-exact,
// word+tail, the 16-byte unroll boundary, and larger odd lengths.
var kernelSizes = []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100, 1023, 4096, 4097}

func TestGFMulTableMatchesNaive(t *testing.T) {
	for c := 0; c < 256; c++ {
		for x := 0; x < 256; x++ {
			if got, want := gfMulTable[c][x], naiveMul(byte(c), byte(x)); got != want {
				t.Fatalf("gfMulTable[%d][%d] = %d, want %d", c, x, got, want)
			}
		}
	}
}

func TestMulRow16MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 16; trial++ {
		c := byte(rng.Intn(256))
		t16 := mulRow16(c)
		for probe := 0; probe < 4096; probe++ {
			x := uint16(rng.Intn(65536))
			want := uint16(naiveMul(c, byte(x))) | uint16(naiveMul(c, byte(x>>8)))<<8
			if t16[x] != want {
				t.Fatalf("mulRow16(%d)[%#x] = %#x, want %#x", c, x, t16[x], want)
			}
		}
	}
}

// TestMulSliceMatchesNaive is the satellite property test: the table-driven
// mulSlice must match the naive reference byte for byte over random
// coefficients and lengths, including odd, non-word-aligned sizes.
func TestMulSliceMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, size := range kernelSizes {
		for trial := 0; trial < 8; trial++ {
			c := byte(rng.Intn(256))
			src := make([]byte, size)
			dst := make([]byte, size)
			rng.Read(src)
			rng.Read(dst)
			want := make([]byte, size)
			for i := range want {
				want[i] = dst[i] ^ naiveMul(c, src[i])
			}
			mulSlice(c, src, dst)
			if !bytes.Equal(dst, want) {
				t.Fatalf("mulSlice(c=%d, len=%d) mismatch", c, size)
			}
		}
	}
}

// eachKernel runs f on the kernel this build selects and, where that is the
// vector kernel, on the table kernel as well.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	t.Run(Kernel(), f)
	if useVec {
		t.Run("table", func(t *testing.T) { withTableKernel(func() { f(t) }) })
	}
}

func TestMulTabKernelsMatchNaive(t *testing.T) { eachKernel(t, testMulTabKernelsMatchNaive) }

func testMulTabKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, size := range kernelSizes {
		for trial := 0; trial < 8; trial++ {
			c := byte(2 + rng.Intn(254)) // kernels only run for c > 1
			src := make([]byte, size)
			dst := make([]byte, size)
			rng.Read(src)
			rng.Read(dst)

			want := make([]byte, size)
			for i := range want {
				want[i] = naiveMul(c, src[i])
			}
			wantXor := make([]byte, size)
			for i := range wantXor {
				wantXor[i] = dst[i] ^ want[i]
			}

			// Both the 16-bit (encode) and 8-bit (decode) plan kernels
			// must match the reference.
			for name, plan := range map[string][]rowPlan{
				"makePlan":  makePlan([]byte{c}),
				"makePlan8": makePlan8([]byte{c}),
			} {
				got := make([]byte, size)
				mulTabAssign(&plan[0], src, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("mulTabAssign(%s, c=%d, len=%d) mismatch", name, c, size)
				}
				gotXor := append([]byte(nil), dst...)
				mulTabXor(&plan[0], src, gotXor)
				if !bytes.Equal(gotXor, wantXor) {
					t.Fatalf("mulTabXor(%s, c=%d, len=%d) mismatch", name, c, size)
				}
			}
		}
	}
}

func TestXorWordsOddSizes(t *testing.T) { eachKernel(t, testXorWordsOddSizes) }

func testXorWordsOddSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, size := range kernelSizes {
		src := make([]byte, size)
		dst := make([]byte, size)
		rng.Read(src)
		rng.Read(dst)
		want := make([]byte, size)
		for i := range want {
			want[i] = src[i] ^ dst[i]
		}
		xorSlice(src, dst)
		if !bytes.Equal(dst, want) {
			t.Fatalf("xorSlice(len=%d) mismatch", size)
		}
	}
}

// TestEncodeRowMatchesNaive exercises the full row kernel — zero, one, and
// table coefficients mixed — against a byte-wise reference.
func TestEncodeRowMatchesNaive(t *testing.T) { eachKernel(t, testEncodeRowMatchesNaive) }

func testEncodeRowMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, size := range kernelSizes {
		for trial := 0; trial < 8; trial++ {
			k := 1 + rng.Intn(6)
			coeffs := make([]byte, k)
			for i := range coeffs {
				// Bias towards the special cases 0 and 1.
				switch rng.Intn(4) {
				case 0:
					coeffs[i] = 0
				case 1:
					coeffs[i] = 1
				default:
					coeffs[i] = byte(rng.Intn(256))
				}
			}
			shards := make([][]byte, k)
			for i := range shards {
				shards[i] = make([]byte, size)
				rng.Read(shards[i])
			}
			want := make([]byte, size)
			for i := 0; i < size; i++ {
				var acc byte
				for d := 0; d < k; d++ {
					acc ^= naiveMul(coeffs[d], shards[d][i])
				}
				want[i] = acc
			}
			for name, plan := range map[string][]rowPlan{
				"makePlan":  makePlan(coeffs),
				"makePlan8": makePlan8(coeffs),
			} {
				out := make([]byte, size)
				rng.Read(out) // must be overwritten, not accumulated into
				encodeRow(plan, shards, out)
				if !bytes.Equal(out, want) {
					t.Fatalf("encodeRow(%s, k=%d, len=%d, coeffs=%v) mismatch", name, k, size, coeffs)
				}
			}
		}
	}
}

// ---------- NewRS limits and m=0 regression ----------

func TestNewRSFieldLimit(t *testing.T) {
	if _, err := NewRS(128, 128); err != nil {
		t.Errorf("NewRS(128,128) (k+m=256, the field limit) rejected: %v", err)
	}
	if _, err := NewRS(128, 129); err == nil {
		t.Error("NewRS(128,129) (k+m=257) accepted")
	}
	if _, err := NewRS(255, 2); err == nil {
		t.Error("NewRS(255,2) accepted")
	}
}

func TestRSZeroParityRoundTrip(t *testing.T) {
	rs, err := NewRS(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	data := randShards(rng, 4, 33)
	orig := make([][]byte, 4)
	for i := range data {
		orig[i] = append([]byte(nil), data[i]...)
	}
	if err := rs.Encode(data, [][]byte{}); err != nil {
		t.Fatalf("m=0 Encode: %v", err)
	}
	ok, err := rs.Verify(data, [][]byte{})
	if err != nil || !ok {
		t.Fatalf("m=0 Verify = %v, %v; want true", ok, err)
	}
	shards := make([][]byte, 4)
	copy(shards, data)
	if err := rs.Reconstruct(shards); err != nil {
		t.Fatalf("m=0 Reconstruct with all present: %v", err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], orig[i]) {
			t.Errorf("m=0 round trip corrupted shard %d", i)
		}
	}
}

// ---------- streaming group encode ----------

func TestEncodeIntoMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ge, err := NewGroupEncoder(4, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(rng, 4, 100_001) // odd size: every kernel tail runs
	want, err := ge.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	parity := [][]byte{make([]byte, 100_001), make([]byte, 100_001)}
	got, err := ge.EncodeInto(data, parity)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Parity {
		if !bytes.Equal(got.Parity[i], want.Parity[i]) {
			t.Fatalf("EncodeInto parity %d differs from Encode", i)
		}
	}
	if &parity[0][0] != &got.Parity[0][0] {
		t.Error("EncodeInto did not use the caller's buffers")
	}
}

func TestEncodeIntoValidation(t *testing.T) {
	ge, _ := NewGroupEncoder(2, 1, 0, 0)
	data := [][]byte{make([]byte, 8), make([]byte, 8)}
	if _, err := ge.EncodeInto(data, [][]byte{}); err == nil {
		t.Error("EncodeInto accepted wrong parity count")
	}
	if _, err := ge.EncodeInto(data, [][]byte{make([]byte, 7)}); err == nil {
		t.Error("EncodeInto accepted short parity buffer")
	}
}
