package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// codecRun is everything the coding paths compute for one input: the
// parity of RS.Encode and of GroupEncoder.EncodeInto, the outputs of a
// Decode with short buffers, and all shards after a Reconstruct.
type codecRun struct {
	encode, into, decoded, rebuilt [][]byte
}

// unaligned returns n slices of the given size, each starting 1..31 bytes
// into its own backing array so that no shard is 32-byte aligned, filled
// from rng when fill is set and with a fixed non-zero pattern otherwise
// (outputs must be overwritten, not accumulated into).
func unaligned(rng *rand.Rand, n, size int, fill bool) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		off := 1 + rng.Intn(31)
		buf := make([]byte, off+size)
		if fill {
			rng.Read(buf)
		} else {
			for j := range buf {
				buf[j] = 0xa5
			}
		}
		out[i] = buf[off:]
	}
	return out
}

// runCodec drives every coding path of a fresh RS(k, m) over shards drawn
// from seed. Called twice with one seed it sees the same inputs, the same
// offsets and the same erasures, so two kernels can be compared.
func runCodec(t *testing.T, seed int64, k, m, size int) codecRun {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := unaligned(rng, k, size, true)
	var run codecRun

	// A codec of its own, not the shared one: its parity plans are those
	// of the kernel this run multiplies with.
	rs, err := newRS(k, m)
	if err != nil {
		t.Fatal(err)
	}
	run.encode = unaligned(rng, m, size, false)
	if err := rs.Encode(data, run.encode); err != nil {
		t.Fatal(err)
	}
	ge := (*GroupEncoder)(rs)
	run.into = unaligned(rng, m, size, false)
	if _, err := ge.EncodeInto(data, run.into); err != nil {
		t.Fatal(err)
	}

	// Lose up to m shards, data first so that Decode has work.
	all := append(append([][]byte{}, data...), run.encode...)
	lost := rng.Perm(k)[:min(m, k, 1+rng.Intn(m+1))]
	var rows, want []int
	var survivors [][]byte
	for i := range all {
		if !slices.Contains(lost, i) && len(rows) < k {
			rows = append(rows, i)
			survivors = append(survivors, all[i])
		}
	}
	for _, d := range lost {
		want = append(want, d)
		short := size
		if size > 0 {
			short = rng.Intn(size + 1)
		}
		run.decoded = append(run.decoded, unaligned(rng, 1, short, false)[0])
	}
	if err := rs.Decode(rows, survivors, want, run.decoded); err != nil {
		t.Fatal(err)
	}

	run.rebuilt = append([][]byte(nil), all...)
	for _, d := range lost {
		run.rebuilt[d] = nil
	}
	if m > len(lost) {
		run.rebuilt[k+rng.Intn(m)] = nil // a parity row to rebuild too
	}
	if err := rs.Reconstruct(run.rebuilt); err != nil {
		t.Fatal(err)
	}
	for _, d := range lost {
		if !bytes.Equal(run.rebuilt[d], data[d]) {
			t.Fatalf("Reconstruct returned wrong bytes for data shard %d", d)
		}
	}
	return run
}

// TestKernelsByteIdentical is the differential between the kernel this
// build selects and the table kernel, on identical inputs: parity-row
// counts on both sides of the four-row form (0, 1, 3, 4, 5, 16), lengths
// on both sides of the 32-byte block and the 4 KiB column chunk, and every
// shard and output starting off alignment. On the portable build both
// sides are the table kernel and the test pins determinism only.
func TestKernelsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sizes := []int{0, 1, 31, 32, 33, 63, 4095, 4096, 4097, 128<<10 + 7}
	for _, m := range []int{0, 1, 3, 4, 5, 16} {
		for _, size := range sizes {
			k := 1 + rng.Intn(9)
			seed := rng.Int63()
			t.Run(fmt.Sprintf("k=%d/m=%d/size=%d", k, m, size), func(t *testing.T) {
				got := runCodec(t, seed, k, m, size)
				var want codecRun
				withTableKernel(func() { want = runCodec(t, seed, k, m, size) })
				for _, c := range []struct {
					name      string
					got, want [][]byte
				}{
					{"Encode", got.encode, want.encode},
					{"EncodeInto", got.into, want.into},
					{"Decode", got.decoded, want.decoded},
					{"Reconstruct", got.rebuilt, want.rebuilt},
				} {
					if len(c.got) != len(c.want) {
						t.Fatalf("%s: %d outputs, table kernel %d", c.name, len(c.got), len(c.want))
					}
					for i := range c.got {
						if !bytes.Equal(c.got[i], c.want[i]) {
							t.Errorf("%s: output %d differs from the table kernel", c.name, i)
						}
					}
				}
			})
		}
	}
}
