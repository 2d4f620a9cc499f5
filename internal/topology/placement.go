package topology

import (
	"cmp"
	"fmt"
	"sync"
)

// Placement maps application ranks to compute nodes. It is the bridge
// between the logical process space (ranks) and the physical machine
// (nodes): clustering strategies need it to know which processes die
// together and which communications stay inside a node.
//
// It has two forms. The explicit form (NewPlacement, RoundRobin) stores the
// assignment: per-node rank lists in one flat backing array with per-node
// offset spans (CSR-style, built by counting sort in O(ranks + nodes)), the
// used-node list and its inverse. The block form (Block) stores three
// integers — rank r is on node r/ppn, the used nodes are 0..nused-1 and node
// order is rank order — and every accessor but RanksOn and UsedNodes is
// arithmetic; the first call of either of those two materialises rankPtr,
// rankData and used, once. A Placement is immutable, safe for concurrent use
// and must not be copied.
type Placement struct {
	machine *Machine
	ranks   int
	// ppn > 0 marks the block form. Indexing rankIn and nodeIn, zero-byte slices
	// of ranks and machine.Nodes elements, is its bounds check: the same panic.
	ppn, nused int
	rankIn     []struct{}
	nodeIn     []struct{}
	once       sync.Once

	node     []NodeID // node[r] = node hosting rank r
	rankPtr  []int64  // node n's ranks occupy rankData[rankPtr[n]:rankPtr[n+1]]
	rankData []Rank   // all ranks grouped by node, ascending within a node
	used     []NodeID // nodes hosting at least one rank, ascending
	usedIdx  []int32  // usedIdx[n] = position of node n in used, -1 when unused
}

// NewPlacement builds a placement from an explicit rank→node assignment.
// Every referenced node must exist in the machine. The slice is copied; the
// caller may reuse it.
func NewPlacement(m *Machine, nodeOf []NodeID) (*Placement, error) {
	return newPlacement(m, append([]NodeID(nil), nodeOf...))
}

// newPlacement is NewPlacement taking ownership of nodeOf, for the
// in-package constructors that build the slice themselves.
func newPlacement(m *Machine, nodeOf []NodeID) (*Placement, error) {
	if err := cmp.Or(m.Validate(), CheckCount("ranks", len(nodeOf))); err != nil {
		return nil, err
	}
	// Counts go in shifted by one so that ptr[n+1] is node n's fill cursor
	// after the prefix sum and node n+1's start once the fill is done.
	ptr := make([]int64, m.Nodes+2)
	for r, n := range nodeOf {
		if n < 0 || int(n) >= m.Nodes {
			return nil, fmt.Errorf("topology: rank %d placed on node %d; machine has %d nodes", r, n, m.Nodes)
		}
		ptr[int(n)+2]++
	}
	for n := 0; n < m.Nodes; n++ {
		ptr[n+2] += ptr[n+1]
	}
	// Stable counting-sort fill: ranks ascend, so each node's span comes
	// out ascending with no per-node sort.
	p := &Placement{machine: m, ranks: len(nodeOf), node: nodeOf, rankPtr: ptr[:m.Nodes+1], rankData: make([]Rank, len(nodeOf))}
	for r, n := range nodeOf {
		p.rankData[ptr[n+1]] = Rank(r)
		ptr[n+1]++
	}
	// The used-node list and its inverse, count-then-fill.
	for n := 0; n < m.Nodes; n++ {
		if p.rankPtr[n+1] > p.rankPtr[n] {
			p.nused++
		}
	}
	p.used = make([]NodeID, 0, p.nused)
	p.usedIdx = make([]int32, m.Nodes)
	for n := 0; n < m.Nodes; n++ {
		p.usedIdx[n] = -1
		if p.rankPtr[n+1] > p.rankPtr[n] {
			p.usedIdx[n] = int32(len(p.used))
			p.used = append(p.used, NodeID(n))
		}
	}
	return p, nil
}

// Block places ranks in consecutive blocks of procsPerNode per node:
// ranks 0..procsPerNode-1 on node 0, and so on. This is the topology-aware
// positioning the paper's tsunami runs use (consecutive MPI ranks share a
// node to maximize intra-node communication). The block form: O(1) bytes.
func Block(m *Machine, nranks, procsPerNode int) (*Placement, error) {
	if procsPerNode <= 0 {
		return nil, fmt.Errorf("topology: procsPerNode must be positive, got %d", procsPerNode)
	}
	if err := CheckCount("ranks", nranks); err != nil {
		return nil, err
	}
	ppn := min(procsPerNode, max(nranks, 1)) // the same placement; no product below overflows
	need := (nranks + ppn - 1) / ppn
	if need > m.Nodes {
		return nil, fmt.Errorf("topology: %d ranks at %d per node need %d nodes; machine has %d",
			nranks, procsPerNode, need, m.Nodes)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Placement{machine: m, ranks: nranks, ppn: ppn, nused: need,
		rankIn: make([]struct{}, nranks), nodeIn: make([]struct{}, m.Nodes)}, nil
}

// materialize gives the block form the explicit form's rankPtr, rankData and
// used, for RanksOn and UsedNodes.
func (p *Placement) materialize() {
	nodeOf := make([]NodeID, p.ranks)
	for r := range nodeOf {
		nodeOf[r] = NodeID(r / p.ppn)
	}
	e, _ := newPlacement(p.machine, nodeOf) // Block checked the machine and the node range
	p.rankPtr, p.rankData, p.used = e.rankPtr, e.rankData, e.used
}

// RoundRobin places consecutive ranks on consecutive nodes, wrapping around:
// rank r lands on node r mod usedNodes. It is the adversarial placement for
// locality but the friendly one for erasure-code distribution.
func RoundRobin(m *Machine, nranks, usedNodes int) (*Placement, error) {
	if usedNodes <= 0 || usedNodes > m.Nodes {
		return nil, fmt.Errorf("topology: RoundRobin over %d nodes; machine has %d", usedNodes, m.Nodes)
	}
	if err := CheckCount("ranks", nranks); err != nil {
		return nil, err
	}
	nodeOf := make([]NodeID, nranks)
	for r := range nodeOf {
		nodeOf[r] = NodeID(r % usedNodes)
	}
	return newPlacement(m, nodeOf)
}

// Machine returns the machine this placement maps onto.
func (p *Placement) Machine() *Machine { return p.machine }

// NumRanks returns the number of placed ranks.
func (p *Placement) NumRanks() int { return p.ranks }

// NodeOf returns the node hosting rank r.
func (p *Placement) NodeOf(r Rank) NodeID {
	if p.ppn > 0 {
		_ = p.rankIn[r]
		return NodeID(int(r) / p.ppn)
	}
	return p.node[r]
}

// BlockPPN returns the ranks per node of the block form — node a hosts
// ranks [a·ppn, min((a+1)·ppn, NumRanks())) — and 0 for the explicit form.
func (p *Placement) BlockPPN() int { return p.ppn }

// NumUsed returns the number of nodes hosting at least one rank.
func (p *Placement) NumUsed() int { return p.nused }

// UsedNode returns the i-th used node, ascending: UsedNodes()[i] without
// the list.
func (p *Placement) UsedNode(i int) NodeID {
	if p.ppn > 0 {
		_ = p.nodeIn[:p.nused][i]
		return NodeID(i)
	}
	return p.used[i]
}

// UsedIndex returns the position of node n among the used nodes, or -1 when
// n hosts no rank — the dense node numbering the node-based graph, the L1
// partition and the reliability model share.
func (p *Placement) UsedIndex(n NodeID) int {
	if p.ppn > 0 {
		if _ = p.nodeIn[n]; int(n) >= p.nused {
			return -1
		}
		return int(n)
	}
	return int(p.usedIdx[n])
}

// Span returns node n's window [lo, hi) of the node-grouped rank order:
// RankAt(lo..hi-1) are the ranks n hosts, ascending, with no slice built.
func (p *Placement) Span(n NodeID) (lo, hi int) {
	if p.ppn > 0 {
		if _ = p.nodeIn[n]; int(n) >= p.nused {
			return p.ranks, p.ranks
		}
		return int(n) * p.ppn, min((int(n)+1)*p.ppn, p.ranks)
	}
	return int(p.rankPtr[n]), int(p.rankPtr[n+1])
}

// RankAt returns the rank at position pos of the node-grouped rank order.
func (p *Placement) RankAt(pos int) Rank {
	if p.ppn > 0 {
		_ = p.rankIn[pos]
		return Rank(pos)
	}
	return p.rankData[pos]
}

// RanksOn returns the ranks hosted on node n in ascending order — a view
// into the flat backing array, which the block form builds on the first call
// of RanksOn or UsedNodes. The caller must not modify the returned slice.
func (p *Placement) RanksOn(n NodeID) []Rank {
	if p.ppn > 0 {
		p.once.Do(p.materialize)
	}
	return p.rankData[p.rankPtr[n]:p.rankPtr[n+1]]
}

// CountOn returns the number of ranks hosted on node n in O(1).
func (p *Placement) CountOn(n NodeID) int {
	lo, hi := p.Span(n)
	return hi - lo
}

// UsedNodes returns the nodes that host at least one rank, ascending (see
// RanksOn for when the list is built; NumUsed and UsedNode never build it).
// The caller must not modify the returned slice.
func (p *Placement) UsedNodes() []NodeID {
	if p.ppn > 0 {
		p.once.Do(p.materialize)
	}
	return p.used
}
