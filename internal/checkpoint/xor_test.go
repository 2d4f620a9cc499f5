package checkpoint

import (
	"bytes"
	"testing"

	"hierclust/internal/storage"
	"hierclust/internal/topology"
)

func TestL3XORSurvivesSingleNodeFailure(t *testing.T) {
	// Transversal groups of 4 across 4 nodes with XOR parity: losing any
	// one node other than the parity holder is recoverable.
	p, cl, mgr := rig(t, 4, 2, 4)
	data := blobs(p, 20, 300)
	res, err := mgr.Checkpoint(0, L3XOR, data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != L3XOR {
		t.Errorf("result level = %v", res.Level)
	}
	// Node 2 hosts ranks 4,5; parity lives on node of group[0] (node 0).
	_ = cl.FailNode(2)
	_ = cl.RepairNode(2)
	restored, err := mgr.Restore(0, []topology.Rank{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, re := range restored {
		if re.Level != L3XOR {
			t.Errorf("rank %d restored from %v, want L3-xor", re.Rank, re.Level)
		}
		if !bytes.Equal(re.Data, data[re.Rank]) {
			t.Errorf("rank %d data mismatch", re.Rank)
		}
	}
}

func TestL3XORTwoNodeFailureUnrecoverable(t *testing.T) {
	// XOR tolerates one loss per group: two lost members are fatal —
	// the trade-off against RS(k,k) that makes XOR cheap.
	p, cl, mgr := rig(t, 4, 1, 4)
	data := blobs(p, 21, 100)
	if _, err := mgr.Checkpoint(0, L3XOR, data); err != nil {
		t.Fatal(err)
	}
	_ = cl.FailNode(1)
	_ = cl.FailNode(2)
	_ = cl.RepairNode(1)
	_ = cl.RepairNode(2)
	if _, err := mgr.Restore(0, []topology.Rank{1, 2}); !Unrecoverable(err) {
		t.Errorf("two XOR losses: err = %v, want unrecoverable", err)
	}
}

func TestL3XORParityNodeLoss(t *testing.T) {
	// Losing the parity-holding node loses parity AND that member's local
	// checkpoint; the member itself cannot be rebuilt (parity gone), but
	// the other members restore locally.
	p, cl, mgr := rig(t, 4, 1, 4)
	data := blobs(p, 22, 100)
	if _, err := mgr.Checkpoint(0, L3XOR, data); err != nil {
		t.Fatal(err)
	}
	_ = cl.FailNode(0) // parity holder for the single group {0,1,2,3}
	_ = cl.RepairNode(0)
	if _, err := mgr.Restore(0, []topology.Rank{0}); !Unrecoverable(err) {
		t.Errorf("parity-node loss should be unrecoverable for its member, got %v", err)
	}
	got, err := mgr.Restore(0, []topology.Rank{1, 2, 3})
	if err != nil {
		t.Fatalf("surviving members should restore locally: %v", err)
	}
	for _, re := range got {
		if re.Level != L1Local {
			t.Errorf("rank %d from %v, want L1", re.Rank, re.Level)
		}
	}
}

func TestL3XORFasterThanRS(t *testing.T) {
	// The reason XOR exists: its encode computes and stores one parity
	// shard per group where RS(k,k) computes and stores k on the same data.
	// Parity bytes are the deterministic form of that cost; the wall-clock
	// ratio is the erasure benchmarks' to report.
	const nodes, k = 4, 4
	p, clXOR, mgrXOR := rig(t, nodes, 2, k)
	_, clRS, mgrRS := rig(t, nodes, 2, k)
	data := blobs(p, 23, 200_000)
	if _, err := mgrXOR.Checkpoint(0, L3XOR, data); err != nil {
		t.Fatal(err)
	}
	if _, err := mgrRS.Checkpoint(0, L3Encoded, data); err != nil {
		t.Fatal(err)
	}
	parityBytes := func(cl *storage.Cluster, tag string) (n int) {
		for node := 0; node < nodes; node++ {
			st, err := cl.Local(topology.NodeID(node))
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range st.Keys() {
				if key.Tag == tag {
					val, _, err := st.View(key)
					if err != nil {
						t.Fatal(err)
					}
					n += len(val)
				}
			}
		}
		return n
	}
	xor, rs := parityBytes(clXOR, "l3x"), parityBytes(clRS, "l3p")
	if xor == 0 || rs != k*xor {
		t.Errorf("XOR stored %d parity bytes, RS %d; want RS = %d x XOR", xor, rs, k)
	}
}

func TestL3XORGC(t *testing.T) {
	p, cl, mgr := rig(t, 4, 1, 4)
	for v := 0; v < 2; v++ {
		if _, err := mgr.Checkpoint(v, L3XOR, blobs(p, int64(v), 50)); err != nil {
			t.Fatal(err)
		}
	}
	mgr.GC(1)
	st, _ := cl.Local(0)
	for _, k := range st.Keys() {
		if k.Tag == "l3x" && k.ID[1] < 1 {
			t.Errorf("stale xor parity key %q", k)
		}
	}
	if _, err := mgr.Restore(1, []topology.Rank{0}); err != nil {
		t.Errorf("restore after GC: %v", err)
	}
}
