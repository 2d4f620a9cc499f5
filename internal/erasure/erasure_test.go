package erasure

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// ---------- GF(256) field axioms ----------

func TestGFTablesConsistent(t *testing.T) {
	// exp and log must be mutual inverses over the nonzero field.
	seen := map[byte]bool{}
	for i := 0; i < 255; i++ {
		v := gfExp[i]
		if seen[v] {
			t.Fatalf("gfExp not a permutation: %d repeats", v)
		}
		seen[v] = true
		if gfLog[v] != byte(i) {
			t.Fatalf("gfLog[gfExp[%d]] = %d, want %d", i, gfLog[v], i)
		}
	}
	if seen[0] {
		t.Fatal("gfExp generated zero")
	}
}

func TestGFMulProperties(t *testing.T) {
	f := func(a, b, c byte) bool {
		// commutativity, associativity, distributivity over XOR (field add)
		if gfMul(a, b) != gfMul(b, a) {
			return false
		}
		if gfMul(a, gfMul(b, c)) != gfMul(gfMul(a, b), c) {
			return false
		}
		return gfMul(a, b^c) == gfMul(a, b)^gfMul(a, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestGFIdentityAndInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		b := byte(a)
		if gfMul(b, 1) != b {
			t.Fatalf("%d * 1 != %d", a, a)
		}
		if gfMul(b, gfInv(b)) != 1 {
			t.Fatalf("%d * inv(%d) != 1", a, a)
		}
		if gfDiv(b, b) != 1 {
			t.Fatalf("%d / %d != 1", a, a)
		}
	}
	if gfMul(0, 77) != 0 || gfMul(77, 0) != 0 {
		t.Error("multiplication by zero broken")
	}
}

func TestGFDivMulRoundTrip(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return gfMul(gfDiv(a, b), b) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestGFPow(t *testing.T) {
	if gfPow(5, 0) != 1 {
		t.Error("a^0 != 1")
	}
	if gfPow(0, 3) != 0 {
		t.Error("0^3 != 0")
	}
	for a := 1; a < 256; a++ {
		want := byte(1)
		for n := 0; n < 6; n++ {
			if gfPow(byte(a), n) != want {
				t.Fatalf("gfPow(%d,%d) = %d, want %d", a, n, gfPow(byte(a), n), want)
			}
			want = gfMul(want, byte(a))
		}
	}
}

func TestGFPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("gfDiv by zero", func() { gfDiv(3, 0) })
	mustPanic("gfInv of zero", func() { gfInv(0) })
	mustPanic("mulSlice mismatch", func() { mulSlice(1, make([]byte, 2), make([]byte, 3)) })
	mustPanic("xorSlice mismatch", func() { xorSlice(make([]byte, 2), make([]byte, 3)) })
}

// ---------- matrix algebra ----------

// invert returns the inverse of m, which it leaves as it was, or an error
// if m is singular or non-square.
func (m *matrix) invert() (*matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("cannot invert %dx%d matrix", m.rows, m.cols)
	}
	work := newMatrix(m.rows, m.cols)
	copy(work.data, m.data)
	inv := newMatrix(m.rows, m.cols)
	if err := work.invertInto(inv); err != nil {
		return nil, err
	}
	return inv, nil
}

// identity returns the n×n identity matrix.
func identity(n int) *matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.set(i, i, 1)
	}
	return m
}

func TestMatrixInvertIdentity(t *testing.T) {
	id := identity(5)
	inv, err := id.invert()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inv.data, id.data) {
		t.Error("identity inverse != identity")
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		m := newMatrix(n, n)
		for {
			for i := range m.data {
				m.data[i] = byte(rng.Intn(256))
			}
			if _, err := m.invert(); err == nil {
				break
			}
		}
		inv, err := m.invert()
		if err != nil {
			t.Fatal(err)
		}
		prod, err := m.mul(inv)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(prod.data, identity(n).data) {
			t.Fatalf("m * m^-1 != I for n=%d", n)
		}
	}
}

func TestMatrixSingular(t *testing.T) {
	m := newMatrix(2, 2) // zero matrix
	if _, err := m.invert(); err == nil {
		t.Error("inverted a singular matrix")
	}
	rect := newMatrix(2, 3)
	if _, err := rect.invert(); err == nil {
		t.Error("inverted a non-square matrix")
	}
	a := newMatrix(2, 2)
	b := newMatrix(3, 2)
	if _, err := a.mul(b); err == nil {
		t.Error("multiplied mismatched matrices")
	}
}

func TestVandermondeSubmatricesInvertible(t *testing.T) {
	v := vandermonde(8, 4)
	// any 4 distinct rows must be invertible
	rows := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {0, 2, 5, 7}, {1, 3, 4, 6}}
	for _, rs := range rows {
		if _, err := v.subMatrix(rs).invert(); err != nil {
			t.Errorf("vandermonde rows %v not invertible: %v", rs, err)
		}
	}
}

// ---------- Reed–Solomon ----------

func randShards(rng *rand.Rand, k, size int) [][]byte {
	d := make([][]byte, k)
	for i := range d {
		d[i] = make([]byte, size)
		rng.Read(d[i])
	}
	return d
}

func TestRSEncodeDecodeAllErasurePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const k, m, size = 4, 2, 256
	rs, err := NewRS(k, m)
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(rng, k, size)
	parity := make([][]byte, m)
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	if err := rs.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	ok, err := rs.Verify(data, parity)
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v; want true", ok, err)
	}

	// Every way of losing exactly m=2 of the 6 shards must reconstruct.
	all := append(append([][]byte{}, data...), parity...)
	for a := 0; a < k+m; a++ {
		for b := a + 1; b < k+m; b++ {
			shards := make([][]byte, k+m)
			for i := range shards {
				if i != a && i != b {
					shards[i] = append([]byte(nil), all[i]...)
				}
			}
			if err := rs.Reconstruct(shards); err != nil {
				t.Fatalf("Reconstruct losing {%d,%d}: %v", a, b, err)
			}
			for i := range shards {
				if !bytes.Equal(shards[i], all[i]) {
					t.Fatalf("shard %d wrong after losing {%d,%d}", i, a, b)
				}
			}
		}
	}
}

func TestRSTooManyErasures(t *testing.T) {
	rs, _ := NewRS(3, 2)
	data := randShards(rand.New(rand.NewSource(2)), 3, 64)
	parity := [][]byte{make([]byte, 64), make([]byte, 64)}
	if err := rs.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	shards := [][]byte{data[0], nil, nil, nil, parity[1]} // 2 survive < k=3
	if err := rs.Reconstruct(shards); !errors.Is(err, ErrTooManyErasures) {
		t.Errorf("err = %v, want ErrTooManyErasures", err)
	}
}

func TestRSNoErasures(t *testing.T) {
	rs, _ := NewRS(2, 1)
	data := randShards(rand.New(rand.NewSource(3)), 2, 16)
	parity := [][]byte{make([]byte, 16)}
	_ = rs.Encode(data, parity)
	shards := [][]byte{data[0], data[1], parity[0]}
	if err := rs.Reconstruct(shards); err != nil {
		t.Errorf("Reconstruct with nothing missing: %v", err)
	}
}

func TestRSVerifyDetectsCorruption(t *testing.T) {
	rs, _ := NewRS(4, 2)
	data := randShards(rand.New(rand.NewSource(4)), 4, 128)
	parity := [][]byte{make([]byte, 128), make([]byte, 128)}
	_ = rs.Encode(data, parity)
	data[2][17] ^= 0xff
	ok, err := rs.Verify(data, parity)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Verify accepted corrupted data")
	}
}

func TestRSParameterValidation(t *testing.T) {
	if _, err := NewRS(0, 1); err == nil {
		t.Error("NewRS accepted k=0")
	}
	if _, err := NewRS(4, -1); err == nil {
		t.Error("NewRS accepted m<0")
	}
	if _, err := NewRS(200, 100); err == nil {
		t.Error("NewRS accepted k+m>256")
	}
	rs, _ := NewRS(2, 1)
	if err := rs.Encode([][]byte{{1}}, [][]byte{{0}}); err == nil {
		t.Error("Encode accepted wrong shard count")
	}
	if err := rs.Encode([][]byte{{1}, {2, 3}}, [][]byte{{0}}); err == nil {
		t.Error("Encode accepted ragged shards")
	}
	if err := rs.Reconstruct(make([][]byte, 2)); err == nil {
		t.Error("Reconstruct accepted wrong shard count")
	}
	if err := rs.Reconstruct([][]byte{{1}, {2, 3}, nil}); err == nil {
		t.Error("Reconstruct accepted ragged shards")
	}
}

func TestRSZeroParity(t *testing.T) {
	// m=0 groups are legal degenerate baselines: no protection at all.
	rs, err := NewRS(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(rand.New(rand.NewSource(5)), 3, 8)
	if err := rs.Encode(data, [][]byte{}); err != nil {
		t.Fatal(err)
	}
	shards := [][]byte{data[0], data[1], nil}
	if err := rs.Reconstruct(shards); !errors.Is(err, ErrTooManyErasures) {
		t.Errorf("m=0 reconstruct of erasure: err = %v, want ErrTooManyErasures", err)
	}
}

// Property: random (k, m, erasure pattern with <= m losses) always round-trips.
func TestRSRoundTripProperty(t *testing.T) {
	f := func(seed int64, kRaw, mRaw uint8, sizeRaw uint16) bool {
		k := int(kRaw%8) + 1
		m := int(mRaw%4) + 1
		size := int(sizeRaw%512) + 1
		rng := rand.New(rand.NewSource(seed))
		rs, err := NewRS(k, m)
		if err != nil {
			return false
		}
		data := randShards(rng, k, size)
		parity := make([][]byte, m)
		for i := range parity {
			parity[i] = make([]byte, size)
		}
		if err := rs.Encode(data, parity); err != nil {
			return false
		}
		all := append(append([][]byte{}, data...), parity...)
		shards := make([][]byte, k+m)
		for i := range shards {
			shards[i] = append([]byte(nil), all[i]...)
		}
		// erase up to m random shards
		nerase := rng.Intn(m + 1)
		for e := 0; e < nerase; e++ {
			shards[rng.Intn(k+m)] = nil
		}
		if err := rs.Reconstruct(shards); err != nil {
			return false
		}
		for i := range shards {
			if !bytes.Equal(shards[i], all[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// ---------- XOR ----------

func TestXORRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, err := NewXOR(4)
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(rng, 4, 100)
	parity := make([]byte, 100)
	if err := x.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	// The code is its own decoder: a lost shard is the XOR of the other k.
	all := append(append([][]byte(nil), data...), parity)
	for lost := range all {
		survivors := append(append([][]byte(nil), all[:lost]...), all[lost+1:]...)
		got := make([]byte, 100)
		if err := x.Encode(survivors, got); err != nil {
			t.Fatalf("lost %d: %v", lost, err)
		}
		if !bytes.Equal(got, all[lost]) {
			t.Fatalf("lost %d: wrong reconstruction", lost)
		}
	}
}

func TestXORValidation(t *testing.T) {
	if _, err := NewXOR(0); err == nil {
		t.Error("NewXOR accepted k=0")
	}
	x, _ := NewXOR(2)
	if err := x.Encode([][]byte{{1}}, []byte{0}); err == nil {
		t.Error("Encode accepted wrong count")
	}
	if err := x.Encode([][]byte{{1}, {2, 3}}, []byte{0}); err == nil {
		t.Error("Encode accepted ragged shards")
	}
}

// ---------- group encoder & model ----------

func TestGroupEncoderMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const k, m, size = 4, 2, 200_000
	ge, err := NewGroupEncoder(k, m, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(rng, k, size)
	res, err := ge.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := NewRS(k, m)
	want := [][]byte{make([]byte, size), make([]byte, size)}
	_ = rs.Encode(data, want)
	for i := range want {
		if !bytes.Equal(res.Parity[i], want[i]) {
			t.Fatalf("group encoder parity %d != RS parity", i)
		}
	}
}

func TestGroupEncoderReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ge, _ := NewGroupEncoder(4, 1, 0, 0)
	data := randShards(rng, 4, 10_000)
	res, err := ge.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]byte{data[0], nil, data[2], data[3], res.Parity[0]}
	if err := (*RS)(ge).Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if len(shards[1]) != 10_000 {
		t.Error("reconstructed shard has wrong size")
	}
}

func TestGroupEncoderValidation(t *testing.T) {
	if _, err := NewGroupEncoder(0, 1, 0, 0); err == nil {
		t.Error("accepted k=0")
	}
	ge, _ := NewGroupEncoder(2, 1, 0, 0)
	if _, err := ge.Encode([][]byte{{1}}); err == nil {
		t.Error("accepted wrong shard count")
	}
	if _, err := ge.Encode([][]byte{{1}, {2, 3}}); err == nil {
		t.Error("accepted ragged shards")
	}
}

func TestModelEncodeSeconds(t *testing.T) {
	// The model must reproduce the paper's Table II encode column exactly.
	cases := []struct {
		k    int
		want float64
	}{
		{32, 204}, {16, 102}, {8, 51},
	}
	for _, c := range cases {
		got := ModelEncodeSeconds(c.k, 1e9)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("ModelEncodeSeconds(%d, 1GB) = %g, want %g", c.k, got, c.want)
		}
	}
	// k=4 ⇒ 25.5s, the paper rounds to 25s.
	if got := ModelEncodeSeconds(4, 1e9); math.Abs(got-25.5) > 1e-9 {
		t.Errorf("ModelEncodeSeconds(4, 1GB) = %g, want 25.5", got)
	}
	// linearity in bytes
	if got := ModelEncodeSeconds(8, 5e8); math.Abs(got-25.5) > 1e-9 {
		t.Errorf("ModelEncodeSeconds(8, 0.5GB) = %g, want 25.5", got)
	}
}
