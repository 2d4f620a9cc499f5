package checkpoint

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hierclust/internal/storage"
	"hierclust/internal/topology"
)

// rig builds a machine with nodes×ppn ranks (block placement), storage, and
// an optional hierarchical-style grouping: groups of groupK ranks spread
// one-per-node across consecutive nodes.
func rig(t *testing.T, nodes, ppn, groupK int) (*topology.Placement, *storage.Cluster, *Manager) {
	t.Helper()
	mach := &topology.Machine{
		Name: "t", Nodes: nodes,
		SSDWriteBps: 360e6, SSDReadBps: 500e6,
		PFSWriteBps: 10e9, PFSReadBps: 10e9, NetBps: 8e9,
	}
	p, err := topology.Block(mach, nodes*ppn, ppn)
	if err != nil {
		t.Fatal(err)
	}
	cl := storage.NewCluster(mach)
	var groups [][]topology.Rank
	if groupK > 0 {
		// L2-style transversal groups: the i-th rank of each node in
		// blocks of groupK nodes.
		for base := 0; base+groupK <= nodes; base += groupK {
			for i := 0; i < ppn; i++ {
				var g []topology.Rank
				for nd := base; nd < base+groupK; nd++ {
					g = append(g, topology.Rank(nd*ppn+i))
				}
				groups = append(groups, g)
			}
		}
	}
	mgr, err := New(cl, p, groups)
	if err != nil {
		t.Fatal(err)
	}
	return p, cl, mgr
}

func blobs(p *topology.Placement, seed int64, size int) map[topology.Rank][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := map[topology.Rank][]byte{}
	for r := 0; r < p.NumRanks(); r++ {
		b := make([]byte, size+r%5) // slightly ragged sizes
		rng.Read(b)
		out[topology.Rank(r)] = b
	}
	return out
}

func TestNewValidation(t *testing.T) {
	mach := &topology.Machine{Name: "t", Nodes: 2}
	p, _ := topology.Block(mach, 4, 2)
	cl := storage.NewCluster(mach)
	if _, err := New(cl, p, [][]topology.Rank{{0}}); err == nil {
		t.Error("accepted singleton group")
	}
	if _, err := New(cl, p, [][]topology.Rank{{0, 99}}); err == nil {
		t.Error("accepted out-of-range member")
	}
	if _, err := New(cl, p, [][]topology.Rank{{0, 1}, {1, 2}}); err == nil {
		t.Error("accepted overlapping groups")
	}
	m, err := New(cl, p, [][]topology.Rank{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Groups()
	g[0][0] = 99
	if m.Groups()[0][0] == 99 {
		t.Error("Groups returned aliased slice")
	}
}

func TestL1CheckpointRestore(t *testing.T) {
	p, _, mgr := rig(t, 4, 2, 0)
	data := blobs(p, 1, 100)
	res, err := mgr.Checkpoint(0, L1Local, data)
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalWriteTime <= 0 {
		t.Error("no simulated local write time")
	}
	var ranks []topology.Rank
	for r := range data {
		ranks = append(ranks, r)
	}
	restored, err := mgr.Restore(0, ranks)
	if err != nil {
		t.Fatal(err)
	}
	for _, re := range restored {
		if re.Level != L1Local {
			t.Errorf("rank %d restored from %v, want L1", re.Rank, re.Level)
		}
		if !bytes.Equal(re.Data, data[re.Rank]) {
			t.Errorf("rank %d data mismatch", re.Rank)
		}
	}
}

func TestL1LostOnNodeFailure(t *testing.T) {
	p, cl, mgr := rig(t, 4, 2, 0)
	data := blobs(p, 2, 64)
	if _, err := mgr.Checkpoint(0, L1Local, data); err != nil {
		t.Fatal(err)
	}
	if err := cl.FailNode(1); err != nil {
		t.Fatal(err)
	}
	// Ranks 2,3 lived on node 1: L1-only checkpoints are unrecoverable.
	_, err := mgr.Restore(0, []topology.Rank{2})
	if !Unrecoverable(err) {
		t.Errorf("err = %v, want unrecoverable", err)
	}
	// Other ranks still restore locally.
	got, err := mgr.Restore(0, []topology.Rank{0, 7})
	if err != nil || len(got) != 2 {
		t.Errorf("surviving ranks failed to restore: %v", err)
	}
}

func TestL2PartnerSurvivesNodeFailure(t *testing.T) {
	p, cl, mgr := rig(t, 4, 2, 0)
	data := blobs(p, 3, 64)
	res, err := mgr.Checkpoint(0, L2Partner, data)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartnerTime <= 0 {
		t.Error("no simulated partner time")
	}
	_ = cl.FailNode(1)
	_ = cl.RepairNode(1) // node replaced, storage empty
	restored, err := mgr.Restore(0, []topology.Rank{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, re := range restored {
		if re.Level != L2Partner {
			t.Errorf("rank %d restored from %v, want L2-partner", re.Rank, re.Level)
		}
		if !bytes.Equal(re.Data, data[re.Rank]) {
			t.Errorf("rank %d data mismatch", re.Rank)
		}
	}
}

func TestL3EncodedSurvivesNodeFailure(t *testing.T) {
	// Groups of 4, one rank per node: losing any one node (both its ranks)
	// is recoverable by RS decode.
	p, cl, mgr := rig(t, 4, 2, 4)
	data := blobs(p, 4, 500)
	res, err := mgr.Checkpoint(0, L3Encoded, data)
	if err != nil {
		t.Fatal(err)
	}
	if res.EncodeWallTime <= 0 || res.EncodeModelTime <= 0 {
		t.Error("missing encode times")
	}
	_ = cl.FailNode(2)
	_ = cl.RepairNode(2)
	// ranks 4,5 were on node 2
	restored, err := mgr.Restore(0, []topology.Rank{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, re := range restored {
		if re.Level != L3Encoded {
			t.Errorf("rank %d restored from %v, want L3-encoded", re.Rank, re.Level)
		}
		if !bytes.Equal(re.Data, data[re.Rank]) {
			t.Errorf("rank %d data mismatch", re.Rank)
		}
	}
}

func TestL3ToleratesHalfGroup(t *testing.T) {
	// Group of 4 across 4 nodes tolerates 2 node losses (RS(k,k)).
	p, cl, mgr := rig(t, 4, 1, 4)
	data := blobs(p, 5, 300)
	if _, err := mgr.Checkpoint(0, L3Encoded, data); err != nil {
		t.Fatal(err)
	}
	_ = cl.FailNode(0)
	_ = cl.FailNode(3)
	restored, err := mgr.Restore(0, []topology.Rank{0, 3})
	if err != nil {
		t.Fatalf("two losses should be tolerable: %v", err)
	}
	for _, re := range restored {
		if !bytes.Equal(re.Data, data[re.Rank]) {
			t.Errorf("rank %d data mismatch", re.Rank)
		}
	}
	// A third loss exceeds tolerance.
	_ = cl.FailNode(1)
	if _, err := mgr.Restore(0, []topology.Rank{0}); !Unrecoverable(err) {
		t.Errorf("3 of 4 nodes lost: err = %v, want unrecoverable", err)
	}
}

func TestL3CollocatedGroupDiesWithNode(t *testing.T) {
	// The paper's size-guided pathology: a group entirely on one node
	// cannot survive that node, despite paying full encoding cost.
	mach := &topology.Machine{Name: "t", Nodes: 2, SSDWriteBps: 1e9, SSDReadBps: 1e9, PFSWriteBps: 1e9, PFSReadBps: 1e9, NetBps: 1e9}
	p, _ := topology.Block(mach, 8, 4)
	cl := storage.NewCluster(mach)
	mgr, err := New(cl, p, [][]topology.Rank{{0, 1, 2, 3}, {4, 5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	data := blobs(p, 6, 100)
	if _, err := mgr.Checkpoint(0, L3Encoded, data); err != nil {
		t.Fatal(err)
	}
	_ = cl.FailNode(0)
	if _, err := mgr.Restore(0, []topology.Rank{0}); !Unrecoverable(err) {
		t.Errorf("co-located group survived its node: %v", err)
	}
}

func TestL4PFSSurvivesEverything(t *testing.T) {
	p, cl, mgr := rig(t, 4, 2, 0)
	data := blobs(p, 7, 64)
	res, err := mgr.Checkpoint(0, L4PFS, data)
	if err != nil {
		t.Fatal(err)
	}
	if res.PFSTime <= 0 {
		t.Error("no simulated PFS time")
	}
	for n := 0; n < 4; n++ {
		_ = cl.FailNode(topology.NodeID(n))
	}
	restored, err := mgr.Restore(0, []topology.Rank{0, 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, re := range restored {
		if re.Level != L4PFS {
			t.Errorf("rank %d from %v, want L4-pfs", re.Rank, re.Level)
		}
		if !bytes.Equal(re.Data, data[re.Rank]) {
			t.Errorf("rank %d data mismatch", re.Rank)
		}
	}
}

func TestRestoreUnknownVersion(t *testing.T) {
	_, _, mgr := rig(t, 2, 1, 0)
	if _, err := mgr.Restore(9, []topology.Rank{0}); !Unrecoverable(err) {
		t.Errorf("unknown version err = %v", err)
	}
}

func TestCheckpointValidation(t *testing.T) {
	_, cl, mgr := rig(t, 2, 1, 0)
	if _, err := mgr.Checkpoint(0, L1Local, nil); err == nil {
		t.Error("accepted empty data")
	}
	// A refused checkpoint is refused before anything is written: it
	// records no version and leaves no key on any node store (every
	// checkpoint below is refused, so the stores stay empty).
	refused := func(cl *storage.Cluster, mgr *Manager, nodes, version int, level Level, data map[topology.Rank][]byte, what string) error {
		t.Helper()
		_, err := mgr.Checkpoint(version, level, data)
		if err == nil {
			t.Errorf("%v accepted %s", level, what)
		}
		if slices.Contains(mgr.Versions(), version) {
			t.Errorf("%v with %s recorded version %d", level, what, version)
		}
		for n := range nodes {
			st, err := cl.Local(topology.NodeID(n))
			if err != nil {
				t.Fatal(err)
			}
			if keys := st.Keys(); len(keys) > 0 {
				t.Errorf("%v with %s left %v on node %d", level, what, keys, n)
			}
		}
		return err
	}
	// 5 is the first value past the four levels.
	for _, level := range []Level{5, 9} {
		if err := refused(cl, mgr, 2, 1, level, map[topology.Rank][]byte{0: {1}}, "an unknown level"); err != nil && !strings.Contains(err.Error(), "unknown level") {
			t.Errorf("%v refused for another reason: %v", level, err)
		}
	}
	// L2 needs a second node for the partner copies.
	_, cl1, mgr1 := rig(t, 1, 2, 0)
	refused(cl1, mgr1, 1, 2, L2Partner, map[topology.Rank][]byte{0: {1}, 1: {2}}, "one node")
	// L3 requires whole groups.
	p2, cl2, mgr2 := rig(t, 4, 1, 4)
	partial := map[topology.Rank][]byte{0: {1}}
	refused(cl2, mgr2, 4, 3, L3Encoded, partial, "a partial group")
	// A rank outside the placement is refused at every level.
	for _, level := range []Level{L1Local, L2Partner, L3Encoded, L4PFS} {
		for _, bad := range []topology.Rank{-1, topology.Rank(p2.NumRanks())} {
			data := blobs(p2, 12, 16)
			data[bad] = []byte{1}
			refused(cl2, mgr2, 4, 5, level, data, "an out-of-range rank")
		}
	}
}

func TestGC(t *testing.T) {
	p, cl, mgr := rig(t, 4, 2, 4)
	for v := 0; v < 3; v++ {
		if _, err := mgr.Checkpoint(v, L3Encoded, blobs(p, int64(v), 50)); err != nil {
			t.Fatal(err)
		}
	}
	if got := mgr.Versions(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("Versions = %v", got)
	}
	mgr.GC(2)
	if got := mgr.Versions(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Versions after GC = %v", got)
	}
	// all v<2 artifacts gone from every store
	for n := 0; n < 4; n++ {
		st, _ := cl.Local(topology.NodeID(n))
		for _, k := range st.Keys() {
			if k.Tag == "l1" && k.ID[1] < 2 {
				t.Errorf("stale L1 key %q", k)
			}
			if k.Tag == "l3p" && k.ID[2] < 2 {
				t.Errorf("stale parity key %q", k)
			}
		}
	}
	// restoring the kept version still works
	if _, err := mgr.Restore(2, []topology.Rank{0}); err != nil {
		t.Errorf("restore after GC: %v", err)
	}
}

func TestChecksumDetectsTamperedLocal(t *testing.T) {
	p, cl, mgr := rig(t, 4, 1, 4)
	data := blobs(p, 8, 100)
	if _, err := mgr.Checkpoint(0, L3Encoded, data); err != nil {
		t.Fatal(err)
	}
	// Corrupt rank 1's local copy: restore must fall through to group
	// decode and still return correct data.
	st, _ := cl.Local(p.NodeOf(1))
	bad := append([]byte(nil), data[1]...)
	bad[0] ^= 0xff
	if _, err := st.Put(keyL1(1, 0), bad); err != nil {
		t.Fatal(err)
	}
	restored, err := mgr.Restore(0, []topology.Rank{1})
	if err != nil {
		t.Fatal(err)
	}
	if restored[0].Level != L3Encoded {
		t.Errorf("restored from %v, want L3 (corrupted local)", restored[0].Level)
	}
	if !bytes.Equal(restored[0].Data, data[1]) {
		t.Error("group decode returned wrong data")
	}
}

func TestMultipleVersionsIndependent(t *testing.T) {
	p, _, mgr := rig(t, 2, 2, 0)
	d0 := blobs(p, 10, 40)
	d1 := blobs(p, 11, 40)
	_, _ = mgr.Checkpoint(0, L1Local, d0)
	_, _ = mgr.Checkpoint(1, L1Local, d1)
	r0, err := mgr.Restore(0, []topology.Rank{0})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := mgr.Restore(1, []topology.Rank{0})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r0[0].Data, d0[0]) || !bytes.Equal(r1[0].Data, d1[0]) {
		t.Error("versions cross-contaminated")
	}
}

func TestLevelString(t *testing.T) {
	if L1Local.String() != "L1-local" || L4PFS.String() != "L4-pfs" {
		t.Error("level names wrong")
	}
	if Level(42).String() != "Level(42)" {
		t.Errorf("unknown level string = %q", Level(42).String())
	}
}
