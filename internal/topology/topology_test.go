package topology

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTsubame2TableI(t *testing.T) {
	m := Tsubame2()
	if err := m.Validate(); err != nil {
		t.Fatalf("Tsubame2 invalid: %v", err)
	}
	if m.Nodes != 1408 {
		t.Errorf("Nodes = %d, want 1408 (Table I)", m.Nodes)
	}
	if m.CoresPerNode != 12 {
		t.Errorf("CoresPerNode = %d, want 12 (Table I)", m.CoresPerNode)
	}
	if m.SSDWriteBps != 360e6 {
		t.Errorf("SSDWriteBps = %g, want 360e6 (Table I: 360 MB/s RAID0)", m.SSDWriteBps)
	}
	if m.PFSWriteBps != 10e9 {
		t.Errorf("PFSWriteBps = %g, want 10e9 (Table I: measured Lustre 10GB/s)", m.PFSWriteBps)
	}
	if m.NetBps != 8e9 {
		t.Errorf("NetBps = %g, want 8e9 (dual rail QDR 4GB/s x2)", m.NetBps)
	}
}

func TestValidate(t *testing.T) {
	bad := &Machine{Name: "empty", Nodes: 0}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a 0-node machine")
	}
	bad2 := &Machine{Name: "negrack", Nodes: 4, NodesPerRack: -1}
	if err := bad2.Validate(); err == nil {
		t.Error("Validate accepted negative NodesPerRack")
	}
}

func TestBlockPlacement(t *testing.T) {
	m := &Machine{Name: "t", Nodes: 64}
	p, err := Block(m, 1024, 16)
	if err != nil {
		t.Fatalf("Block: %v", err)
	}
	if p.NumRanks() != 1024 {
		t.Fatalf("NumRanks = %d, want 1024", p.NumRanks())
	}
	if p.NodeOf(0) != 0 || p.NodeOf(15) != 0 || p.NodeOf(16) != 1 || p.NodeOf(1023) != 63 {
		t.Errorf("block mapping wrong: %d %d %d %d",
			p.NodeOf(0), p.NodeOf(15), p.NodeOf(16), p.NodeOf(1023))
	}
	if got := p.RanksOn(1); len(got) != 16 || got[0] != 16 || got[15] != 31 {
		t.Errorf("RanksOn(1) = %v", got)
	}
}

func TestBlockPlacementErrors(t *testing.T) {
	m := &Machine{Name: "t", Nodes: 2}
	if _, err := Block(m, 100, 16); err == nil {
		t.Error("Block accepted more ranks than the machine holds")
	}
	if _, err := Block(m, 4, 0); err == nil {
		t.Error("Block accepted procsPerNode=0")
	}
}

// Counts past the int32 id range are errors, not ids that wrap negative, and
// each is rejected before an array of that size is allocated.
func TestCountsPastInt32Rejected(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits")
	}
	n := math.MaxInt32
	n++
	const nodes, ranks = "topology: 2147483648 nodes exceed the int32 id range", "topology: 2147483648 ranks exceed the int32 id range"
	big := &Machine{Name: "big", Nodes: n}
	if _, err := Block(big, 4, 1); err == nil || err.Error() != nodes {
		t.Errorf("Block on 2^31 nodes: %v", err)
	}
	if _, err := NewPlacement(big, []NodeID{0}); err == nil || err.Error() != nodes {
		t.Errorf("NewPlacement on 2^31 nodes: %v", err)
	}
	m := &Machine{Name: "t", Nodes: 2}
	if _, err := Block(m, n, 1<<30); err == nil || err.Error() != ranks {
		t.Errorf("Block of 2^31 ranks: %v", err)
	}
	if _, err := RoundRobin(m, n, 2); err == nil || err.Error() != ranks {
		t.Errorf("RoundRobin of 2^31 ranks: %v", err)
	}
	if _, err := Block(m, math.MaxInt32, 1<<30); err != nil {
		t.Errorf("Block at the int32 limit: %v", err)
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	m := &Machine{Name: "t", Nodes: 8}
	p, err := RoundRobin(m, 32, 8)
	if err != nil {
		t.Fatalf("RoundRobin: %v", err)
	}
	for r := 0; r < 32; r++ {
		if p.NodeOf(Rank(r)) != NodeID(r%8) {
			t.Fatalf("NodeOf(%d) = %d, want %d", r, p.NodeOf(Rank(r)), r%8)
		}
	}
	if got := p.RanksOn(3); len(got) != 4 || got[0] != 3 || got[1] != 11 {
		t.Errorf("RanksOn(3) = %v", got)
	}
	if _, err := RoundRobin(m, 32, 0); err == nil {
		t.Error("RoundRobin accepted usedNodes=0")
	}
	if _, err := RoundRobin(m, 32, 9); err == nil {
		t.Error("RoundRobin accepted usedNodes > machine nodes")
	}
}

func TestNewPlacementRejectsBadNode(t *testing.T) {
	m := &Machine{Name: "t", Nodes: 2}
	if _, err := NewPlacement(m, []NodeID{0, 1, 2}); err == nil {
		t.Error("NewPlacement accepted node out of range")
	}
	if _, err := NewPlacement(m, []NodeID{0, -1}); err == nil {
		t.Error("NewPlacement accepted negative node")
	}
}

// NewPlacement copies the caller's slice; only the in-package constructors
// hand theirs over.
func TestNewPlacementCopiesAssignment(t *testing.T) {
	nodeOf := []NodeID{0, 1, 1, 3}
	p, err := NewPlacement(&Machine{Name: "t", Nodes: 4}, nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf[0], nodeOf[3] = 2, 2
	if p.NodeOf(0) != 0 || p.NodeOf(3) != 3 || len(p.RanksOn(2)) != 0 {
		t.Errorf("placement follows the caller's slice: rank 0 on %d, rank 3 on %d, node 2 hosts %v",
			p.NodeOf(0), p.NodeOf(3), p.RanksOn(2))
	}
}

func TestUsedNodes(t *testing.T) {
	m := &Machine{Name: "t", Nodes: 10}
	p, err := NewPlacement(m, []NodeID{0, 0, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	used := p.UsedNodes()
	want := []NodeID{0, 3, 7}
	if len(used) != len(want) {
		t.Fatalf("UsedNodes = %v, want %v", used, want)
	}
	for i := range used {
		if used[i] != want[i] {
			t.Fatalf("UsedNodes = %v, want %v", used, want)
		}
	}
}

func TestSubset(t *testing.T) {
	m := Tsubame2()
	sub, err := m.Subset(64)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Nodes != 64 || sub.SSDWriteBps != m.SSDWriteBps {
		t.Errorf("Subset lost parameters: %+v", sub)
	}
	if _, err := m.Subset(0); err == nil {
		t.Error("Subset accepted 0 nodes")
	}
	if _, err := m.Subset(2000); err == nil {
		t.Error("Subset accepted more nodes than the machine has")
	}
}

// Property: for any block placement, rank r lives on node r / procsPerNode,
// so every node's rank list is consecutive.
func TestBlockPlacementProperty(t *testing.T) {
	f := func(nodesRaw, ppnRaw uint8) bool {
		nodes := int(nodesRaw%32) + 1
		ppn := int(ppnRaw%8) + 1
		m := &Machine{Name: "q", Nodes: nodes}
		nranks := nodes * ppn
		p, err := Block(m, nranks, ppn)
		if err != nil {
			return false
		}
		for r := 0; r < nranks; r++ {
			if p.NodeOf(Rank(r)) != NodeID(r/ppn) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: round-robin and block placements host the same total rank count
// per machine, and RanksOn partitions the rank space.
func TestPlacementPartitionProperty(t *testing.T) {
	f := func(nodesRaw, ranksRaw uint8) bool {
		nodes := int(nodesRaw%16) + 1
		nranks := int(ranksRaw%64) + 1
		m := &Machine{Name: "q", Nodes: nodes}
		p, err := RoundRobin(m, nranks, nodes)
		if err != nil {
			return false
		}
		seen := make(map[Rank]bool)
		for n := 0; n < nodes; n++ {
			for _, r := range p.RanksOn(NodeID(n)) {
				if seen[r] {
					return false // duplicated rank
				}
				seen[r] = true
				if p.NodeOf(r) != NodeID(n) {
					return false
				}
			}
		}
		return len(seen) == nranks
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestUsedNodesCached pins the construction-time cache: repeated calls
// return the same ascending list (and the same backing array — no per-call
// scan of every node).
func TestUsedNodesCached(t *testing.T) {
	m := &Machine{Name: "t", Nodes: 1024}
	p, err := RoundRobin(m, 48, 16) // nodes 0..15 used, 16..1023 empty
	if err != nil {
		t.Fatal(err)
	}
	used := p.UsedNodes()
	if len(used) != 16 {
		t.Fatalf("UsedNodes = %v, want 16 nodes", used)
	}
	for i, n := range used {
		if n != NodeID(i) {
			t.Fatalf("UsedNodes[%d] = %d, want %d (ascending)", i, n, i)
		}
	}
	again := p.UsedNodes()
	if &again[0] != &used[0] {
		t.Error("UsedNodes rebuilt its slice; expected the construction-time cache")
	}
}

// referencePlacement is the pre-refactor [][]Rank layout, rebuilt naively:
// the behavioral oracle for the flat-span Placement.
type referencePlacement struct {
	node  []NodeID
	ranks [][]Rank
}

func newReferencePlacement(nodes int, nodeOf []NodeID) *referencePlacement {
	ref := &referencePlacement{node: nodeOf, ranks: make([][]Rank, nodes)}
	for r, n := range nodeOf {
		ref.ranks[n] = append(ref.ranks[n], Rank(r))
	}
	for n := range ref.ranks {
		sort.Slice(ref.ranks[n], func(i, j int) bool { return ref.ranks[n][i] < ref.ranks[n][j] })
	}
	return ref
}

// Property: the CSR-span Placement is behaviorally identical to the old
// per-node slice layout on arbitrary (including non-contiguous and
// gap-heavy) rank→node assignments.
func TestPlacementSparseEquivalence(t *testing.T) {
	f := func(seed int64, nodesRaw, ranksRaw uint8) bool {
		nodes := int(nodesRaw%48) + 2
		nranks := int(ranksRaw%96) + 1
		rng := rand.New(rand.NewSource(seed))
		nodeOf := make([]NodeID, nranks)
		for r := range nodeOf {
			// Bias toward low nodes so some nodes stay empty (gaps).
			nodeOf[r] = NodeID(rng.Intn(nodes/2 + 1))
		}
		m := &Machine{Name: "eq", Nodes: nodes}
		p, err := NewPlacement(m, nodeOf)
		if err != nil {
			return false
		}
		ref := newReferencePlacement(nodes, nodeOf)
		var wantUsed []NodeID
		for n := 0; n < nodes; n++ {
			got, want := p.RanksOn(NodeID(n)), ref.ranks[n]
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			if p.CountOn(NodeID(n)) != len(want) {
				return false
			}
			if len(want) > 0 {
				wantUsed = append(wantUsed, NodeID(n))
			}
		}
		used := p.UsedNodes()
		if len(used) != len(wantUsed) {
			return false
		}
		for i := range used {
			if used[i] != wantUsed[i] {
				return false
			}
		}
		for r := 0; r < nranks; r++ {
			if p.NodeOf(Rank(r)) != ref.node[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
