package checkpoint

import (
	"bytes"
	"errors"
	"testing"

	"hierclust/internal/storage"
	"hierclust/internal/topology"
)

// FuzzRestoreCorrupted stores one version at every level but the PFS — the
// local blobs, partner copies, Reed–Solomon parity and XOR parity of two
// 4-member groups on 4 nodes — then lets the fuzzer choose which of those
// levels are written, which nodes fail, and which stored shards get a byte
// flipped or are cut short. Restoring every rank, alone and all together,
// must give back exactly the bytes checkpointed or an error wrapping
// ErrUnrecoverable: a damaged shard may cost a level, never a wrong byte.
//
// The input reads: levels (bit 0 partner, bit 1 RS, bit 2 XOR), failed
// nodes (bits 0–3), then 3-byte edits (stored key, byte offset, mask): a
// zero mask truncates the shard at the offset, any other XORs it into the
// byte there.
func FuzzRestoreCorrupted(f *testing.F) {
	// Every level intact, then damaged shards beside one and two lost nodes.
	f.Add([]byte{0b111, 0b0000})
	f.Add([]byte{0b010, 0b0010, 0, 17, 0x01})
	f.Add([]byte{0b100, 0b0001, 5, 3, 0x80})
	f.Add([]byte{0b011, 0b0011, 2, 0, 0, 9, 40, 0xff})
	f.Add([]byte{0b111, 0b0101, 1, 2, 3, 4, 5, 6, 7, 8, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 || len(in) > 2+3*32 {
			return
		}
		const nodes, ppn, k = 4, 2, 4
		p, cl, mgr := rig(t, nodes, ppn, k)
		data := blobs(p, 3, 64)
		if _, err := mgr.Checkpoint(0, L1Local, data); err != nil {
			t.Fatal(err)
		}
		for bit, level := range []Level{L2Partner, L3Encoded, L3XOR} {
			if in[0]&(1<<bit) != 0 {
				if _, err := mgr.Checkpoint(0, level, data); err != nil {
					t.Fatal(err)
				}
			}
		}

		type stored struct {
			node topology.NodeID
			key  storage.Key
		}
		var shards []stored
		for n := range nodes {
			st, err := cl.Local(topology.NodeID(n))
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range st.Keys() {
				shards = append(shards, stored{topology.NodeID(n), key})
			}
		}
		for edit := in[2:]; len(edit) >= 3; edit = edit[3:] {
			sh := shards[int(edit[0])%len(shards)]
			st, err := cl.Local(sh.node)
			if err != nil {
				t.Fatal(err)
			}
			blob, _, err := st.Get(sh.key)
			if err != nil {
				t.Fatal(err)
			}
			if len(blob) == 0 {
				continue
			}
			if off := int(edit[1]) % len(blob); edit[2] == 0 {
				blob = blob[:off]
			} else {
				blob[off] ^= edit[2]
			}
			if _, err := st.Put(sh.key, blob); err != nil {
				t.Fatal(err)
			}
		}
		for n := range nodes {
			if in[1]&(1<<n) != 0 {
				failAndRepair(t, cl, topology.NodeID(n))
			}
		}

		all := make([]topology.Rank, p.NumRanks())
		for r := range all {
			all[r] = topology.Rank(r)
			check(t, mgr, data, all[r:r+1])
		}
		check(t, mgr, data, all)
	})
}

// check restores ranks and holds the outcome to data: every rank's bytes,
// or an error that wraps ErrUnrecoverable.
func check(t *testing.T, mgr *Manager, data map[topology.Rank][]byte, ranks []topology.Rank) {
	t.Helper()
	restored, err := mgr.Restore(0, ranks)
	if err != nil {
		if !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("restore of %v: %v, which does not wrap ErrUnrecoverable", ranks, err)
		}
		return
	}
	for _, res := range restored {
		if !bytes.Equal(res.Data, data[res.Rank]) {
			t.Fatalf("rank %d restored from %v with wrong bytes", res.Rank, res.Level)
		}
	}
}
