package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// referenceReconstruct is a full reconstruct written from the definition,
// byte by byte through gfMul with no table plans: every missing data shard
// is its decode-matrix row times the first k survivors, every missing
// parity shard its encoding-matrix row times the data.
func referenceReconstruct(t *testing.T, r *RS, shards [][]byte) {
	t.Helper()
	var present []int
	size := 0
	for i, s := range shards {
		if s != nil {
			present = append(present, i)
			size = len(s)
		}
	}
	rows := present[:r.k]
	dec, err := r.enc.subMatrix(rows).invert()
	if err != nil {
		t.Fatal(err)
	}
	var missing []int
	for d := 0; d < r.k; d++ {
		if shards[d] == nil {
			missing = append(missing, d)
		}
	}
	for _, d := range missing {
		out := make([]byte, size)
		for j, src := range rows {
			for x := range out {
				out[x] ^= gfMul(dec.at(d, j), shards[src][x])
			}
		}
		shards[d] = out
	}
	for p := r.k; p < r.k+r.m; p++ {
		if shards[p] != nil {
			continue
		}
		out := make([]byte, size)
		for d := 0; d < r.k; d++ {
			for x := range out {
				out[x] ^= gfMul(r.enc.at(p, d), shards[d][x])
			}
		}
		shards[p] = out
	}
}

// TestReconstructMatchesReference holds RS.Reconstruct, now running on
// Decode, byte-identical to the reference for every erasure pattern
// TestRSEncodeDecodeAllErasurePatterns walks, at a word-unaligned size.
func TestReconstructMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const k, m, size = 4, 2, 261
	rs, err := NewRS(k, m)
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(rng, k, size)
	parity := randShards(rng, m, size)
	if err := rs.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	all := append(append([][]byte{}, data...), parity...)
	for a := 0; a < k+m; a++ {
		for b := a + 1; b < k+m; b++ {
			got := append([][]byte(nil), all...)
			want := append([][]byte(nil), all...)
			got[a], got[b], want[a], want[b] = nil, nil, nil, nil
			if err := rs.Reconstruct(got); err != nil {
				t.Fatalf("Reconstruct losing {%d,%d}: %v", a, b, err)
			}
			referenceReconstruct(t, rs, want)
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("shard %d differs from the reference after losing {%d,%d}", i, a, b)
				}
			}
		}
	}
}

// TestDecodeRebuildsOnlyWanted drives the primitive directly: parity-heavy
// survivor sets, a subset of the lost shards wanted, one output shorter than
// the shards, and survivors left untouched.
func TestDecodeRebuildsOnlyWanted(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const k, size = 5, 1003
	rs, err := NewRS(k, k)
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(rng, k, size)
	parity := randShards(rng, k, size)
	if err := rs.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	rows := []int{3, 1, k + 4, k + 0, k + 2} // any order
	survivors := [][]byte{data[3], data[1], parity[4], parity[0], parity[2]}
	before := make([][]byte, k)
	for i, s := range survivors {
		before[i] = append([]byte(nil), s...)
	}
	out := [][]byte{make([]byte, size), make([]byte, 77), {}}
	if err := rs.Decode(rows, survivors, []int{4, 0, 2}, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0], data[4]) || !bytes.Equal(out[1], data[0][:77]) {
		t.Error("decoded shards differ from the originals")
	}
	for i := range survivors {
		if !bytes.Equal(survivors[i], before[i]) {
			t.Errorf("Decode wrote survivor %d", i)
		}
	}
	// A wanted shard that is itself a survivor decodes to a copy.
	one := [][]byte{make([]byte, size)}
	if err := rs.Decode(rows, survivors, []int{3}, one); err != nil || !bytes.Equal(one[0], data[3]) {
		t.Errorf("decoding a surviving shard: err %v", err)
	}
}

func TestDecodeValidation(t *testing.T) {
	rs, _ := NewRS(2, 2)
	s := [][]byte{make([]byte, 8), make([]byte, 8)}
	buf := [][]byte{make([]byte, 8)}
	for name, err := range map[string]error{
		"too few rows":       rs.Decode([]int{0}, s[:1], []int{1}, buf),
		"row out of range":   rs.Decode([]int{0, 4}, s, []int{1}, buf),
		"ragged survivors":   rs.Decode([]int{0, 2}, [][]byte{s[0], make([]byte, 7)}, []int{1}, buf),
		"duplicate rows":     rs.Decode([]int{2, 2}, s, []int{1}, buf),
		"parity row wanted":  rs.Decode([]int{0, 2}, s, []int{2}, buf),
		"buffer count":       rs.Decode([]int{0, 2}, s, []int{1}, nil),
		"buffer too long":    rs.Decode([]int{0, 2}, s, []int{1}, [][]byte{make([]byte, 9)}),
		"survivor count off": rs.Decode([]int{0, 2}, s[:1], []int{1}, buf),
	} {
		if err == nil {
			t.Errorf("Decode accepted %s", name)
		}
	}
	if err := rs.Decode([]int{0, 2}, s, nil, nil); err != nil {
		t.Errorf("Decode with nothing wanted: %v", err)
	}
}
