package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hierclust/internal/racedetect"
	"hierclust/internal/storage"
	"hierclust/internal/topology"
)

// failAndRepair loses node n and replaces it with an empty one.
func failAndRepair(t testing.TB, cl *storage.Cluster, n topology.NodeID) {
	t.Helper()
	if err := cl.FailNode(n); err != nil {
		t.Fatal(err)
	}
	if err := cl.RepairNode(n); err != nil {
		t.Fatal(err)
	}
}

// TestL3CorruptParityIsErased is the regression for unchecked parity: one
// flipped byte in one stored parity shard plus the loss of another member's
// node must still restore through L3, from the healthy parity shards.
func TestL3CorruptParityIsErased(t *testing.T) {
	p, cl, mgr := rig(t, 4, 1, 4)
	data := blobs(p, 40, 200)
	if _, err := mgr.Checkpoint(0, L3Encoded, data); err != nil {
		t.Fatal(err)
	}
	st, _ := cl.Local(p.NodeOf(0))
	bad, _, err := st.Get(keyL3(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	bad[len(bad)/2] ^= 0x01
	if _, err := st.Put(keyL3(0, 0, 0), bad); err != nil {
		t.Fatal(err)
	}
	failAndRepair(t, cl, p.NodeOf(1))
	restored, err := mgr.Restore(0, []topology.Rank{1})
	if err != nil {
		t.Fatalf("restore with one corrupt parity shard: %v", err)
	}
	if restored[0].Level != L3Encoded {
		t.Errorf("restored from %v, want L3-encoded", restored[0].Level)
	}
	if !bytes.Equal(restored[0].Data, data[1]) {
		t.Error("group decode returned wrong data")
	}
}

// TestL3RoundTripProperty checkpoints random group shapes with ragged blob
// lengths (one of them empty), loses up to ⌊k/2⌋ members of every group and
// holds each restore to the saved bytes at L3; one more loss is
// unrecoverable.
func TestL3RoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(15) // 2..16
		ppn := 1 + rng.Intn(2)
		t.Run(fmt.Sprintf("k=%d/ppn=%d", k, ppn), func(t *testing.T) {
			p, cl, mgr := rig(t, k, ppn, k)
			data := map[topology.Rank][]byte{}
			for r := 0; r < p.NumRanks(); r++ {
				b := make([]byte, rng.Intn(3000))
				rng.Read(b)
				data[topology.Rank(r)] = b
			}
			data[topology.Rank(rng.Intn(p.NumRanks()))] = []byte{}
			if _, err := mgr.Checkpoint(7, L3Encoded, data); err != nil {
				t.Fatal(err)
			}
			nodes := rng.Perm(k)
			lose := 1 + rng.Intn(k/2)
			var lost []topology.Rank
			for _, n := range nodes[:lose] {
				failAndRepair(t, cl, topology.NodeID(n))
				lost = append(lost, p.RanksOn(topology.NodeID(n))...)
			}
			// Survivors ride along: they come back from their own SSDs.
			all := append(append([]topology.Rank(nil), lost...), p.RanksOn(topology.NodeID(nodes[k-1]))...)
			restored, err := mgr.Restore(7, all)
			if err != nil {
				t.Fatalf("%d of %d nodes lost: %v", lose, k, err)
			}
			for i, re := range restored {
				want := L3Encoded
				if i >= len(lost) {
					want = L1Local
				}
				if re.Rank != all[i] || re.Level != want {
					t.Errorf("restored[%d] = rank %d from %v, want rank %d from %v", i, re.Rank, re.Level, all[i], want)
				}
				if !bytes.Equal(re.Data, data[re.Rank]) {
					t.Errorf("rank %d data mismatch", re.Rank)
				}
			}
			for _, n := range nodes[lose : k/2+1] {
				failAndRepair(t, cl, topology.NodeID(n))
			}
			if _, err := mgr.Restore(7, lost[:1]); !Unrecoverable(err) {
				t.Errorf("%d of %d nodes lost: err = %v, want unrecoverable", k/2+1, k, err)
			}
		})
	}
}

// TestNoAliasingWithStores mutates checkpointed inputs and restored outputs
// after the calls that saw them; later restores must not notice, on the
// local, RS and XOR paths alike. Stored blobs are cap-clipped parts of
// per-node and per-group slabs: no view reaches past its own bytes, and
// replacing one member's L1 copy or failing its node leaves its slab
// neighbours' restores intact.
func TestNoAliasingWithStores(t *testing.T) {
	cases := []struct {
		name  string
		put   bool // also overwrite rank 0's L1 copy, which shares node 0's slab with rank 1
		ranks []topology.Rank
	}{
		{"fail", false, []topology.Rank{4, 0, 5, 1}}, // ranks 4,5 decode; ranks 0,1 stay local
		{"fail+put", true, []topology.Rank{5, 1}},    // rank 0's group {0,2,4,6} is now short two
	}
	for _, level := range []Level{L3Encoded, L3XOR} {
		t.Run(level.String(), func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					p, cl, mgr := rig(t, 4, 2, 4)
					data := blobs(p, 42, 400)
					want := map[topology.Rank][]byte{}
					for r, b := range data {
						want[r] = append([]byte(nil), b...)
					}
					if _, err := mgr.Checkpoint(0, level, data); err != nil {
						t.Fatal(err)
					}
					for n := range 4 {
						st, _ := cl.Local(topology.NodeID(n))
						for _, key := range st.Keys() {
							if v, _, err := st.View(key); err != nil || cap(v) != len(v) {
								t.Errorf("node %d %v: view len %d cap %d, %v", n, key, len(v), cap(v), err)
							}
						}
					}
					for _, b := range data {
						for i := range b {
							b[i] ^= 0xa5
						}
					}
					if tc.put {
						st, _ := cl.Local(p.NodeOf(0))
						if _, err := st.Put(keyL1(0, 0), bytes.Repeat([]byte{0x5a}, 2*len(want[0]))); err != nil {
							t.Fatal(err)
						}
					}
					failAndRepair(t, cl, 2)
					for round := 0; round < 2; round++ {
						restored, err := mgr.Restore(0, tc.ranks)
						if err != nil {
							t.Fatal(err)
						}
						for _, re := range restored {
							if !bytes.Equal(re.Data, want[re.Rank]) {
								t.Fatalf("round %d: rank %d (%v) data mismatch", round, re.Rank, re.Level)
							}
							for i := range re.Data {
								re.Data[i] = 0xff
							}
						}
					}
				})
			}
		})
	}
}

// TestL3CycleAllocationBound holds the data plane to its budget: one L3
// checkpoint plus a one-node restore allocates the L1 copies, the stored
// parity and the restored blobs — at most 2.2× the payload. The blobs are
// equal-sized, so none needs a zero-extended copy to become a shard.
func TestL3CycleAllocationBound(t *testing.T) {
	const nodes, ppn, k, blob = 16, 2, 8, 64 << 10
	p, _, first := rig(t, nodes, ppn, k)
	groups := first.Groups()
	rng := rand.New(rand.NewSource(43))
	data := map[topology.Rank][]byte{}
	for r := 0; r < p.NumRanks(); r++ {
		data[topology.Rank(r)] = make([]byte, blob)
		rng.Read(data[topology.Rank(r)])
	}
	const payload = nodes * ppn * blob
	lost := p.RanksOn(5)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cl := storage.NewCluster(p.Machine())
			mgr, err := New(cl, p, groups)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mgr.Checkpoint(1, L3Encoded, data); err != nil {
				b.Fatal(err)
			}
			failAndRepair(b, cl, 5)
			if restored, err := mgr.Restore(1, lost); err != nil || restored[0].Level != L3Encoded {
				b.Fatalf("restore: %v", err)
			}
		}
	})
	ratio := float64(res.AllocedBytesPerOp()) / payload
	t.Logf("cycle allocates %d B/op for a %d B payload (%.2f×)", res.AllocedBytesPerOp(), payload, ratio)
	if ratio > 2.2 {
		t.Errorf("cycle allocates %.2f× its payload, limit 2.2×", ratio)
	}
}

// TestL3CycleAllocationCount holds the same cycle to an object count that
// grows with nodes and groups, not with ranks or store keys. Per node: its
// store's map and first map group, and its L1 slab. Per group: its parity
// slab, its shard header and its encode result. The rest — the cluster and
// manager, the RS codec for k = 8, the round's metadata maps and CRC slab,
// and the decode of the one damaged group — is about 80 objects.
func TestL3CycleAllocationCount(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const nodes, ppn, k, blob = 16, 2, 8, 4 << 10
	p, _, first := rig(t, nodes, ppn, k)
	groups := first.Groups()
	data := map[topology.Rank][]byte{}
	for r := 0; r < p.NumRanks(); r++ {
		data[topology.Rank(r)] = bytes.Repeat([]byte{byte(r)}, blob) // equal: no zero-extended shard
	}
	lost := p.RanksOn(5)
	got := testing.AllocsPerRun(20, func() {
		cl := storage.NewCluster(p.Machine())
		mgr, err := New(cl, p, groups)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Checkpoint(1, L3Encoded, data); err != nil {
			t.Fatal(err)
		}
		failAndRepair(t, cl, 5)
		if restored, err := mgr.Restore(1, lost); err != nil || restored[0].Level != L3Encoded {
			t.Fatalf("restore: %v", err)
		}
	})
	const perNode, perGroup, fixed = 3, 3, 100
	bound := float64(perNode*nodes + perGroup*len(groups) + fixed)
	t.Logf("cycle allocates %v objects for %d nodes and %d groups (bound %v)", got, nodes, len(groups), bound)
	if got > bound {
		t.Errorf("cycle allocates %v objects, bound %v", got, bound)
	}
}

// TestKeysAllocateNothingAtAnyVersion pins what keeps a cycle's allocation
// count independent of its version number and of its key count: a store
// key is a value, built without allocating whether its numbers are small
// or past the 255 above which boxing an int for fmt allocates, and it
// still renders as the fmt form did.
func TestKeysAllocateNothingAtAnyVersion(t *testing.T) {
	var sink storage.Key
	for _, v := range []int{1, 255, 256, 70_000} {
		if got, want := keyL3(7, 300, v).String(), fmt.Sprintf("l3p/%d/%d/%d", 7, 300, v); got != want {
			t.Errorf("keyL3(7, 300, %d) = %q, want %q", v, got, want)
		}
		if got, want := keyL1(300, v).String(), fmt.Sprintf("l1/%d/%d", 300, v); got != want {
			t.Errorf("keyL1(300, %d) = %q, want %q", v, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { sink = keyL3(7, 300, v) }); n != 0 {
			t.Errorf("keyL3 at version %d: %v allocations, want 0", v, n)
		}
	}
	_ = sink
}
