package topology

import (
	"fmt"
	"sort"
)

// Placement maps application ranks to compute nodes. It is the bridge
// between the logical process space (ranks) and the physical machine
// (nodes): clustering strategies need it to know which processes die
// together and which communications stay inside a node.
//
// Per-node rank lists live in one flat backing array with per-node offset
// spans (CSR-style): 8 bytes of offset per node instead of a 24-byte slice
// header plus its own allocation. At exascale node counts the old [][]Rank
// layout was the last dense per-node structure in the pipeline; the spans
// also build by counting sort in O(ranks + nodes) with no per-node sorting.
type Placement struct {
	machine  *Machine
	node     []NodeID // node[r] = node hosting rank r
	rankPtr  []int64  // node n's ranks occupy rankData[rankPtr[n]:rankPtr[n+1]]
	rankData []Rank   // all ranks grouped by node, ascending within a node
	used     []NodeID // nodes hosting at least one rank, ascending (cached)
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
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// Counts go in shifted by one so that ptr[n+1] is node n's fill cursor
	// after the prefix sum and node n+1's start once the fill is done.
	ptr := make([]int64, m.Nodes+2)
	for r, n := range nodeOf {
		if n < 0 || int(n) >= m.Nodes {
			return nil, fmt.Errorf("topology: rank %d placed on node %d; machine has %d nodes", r, n, m.Nodes)
		}
		ptr[n+2]++
	}
	for n := 0; n < m.Nodes; n++ {
		ptr[n+2] += ptr[n+1]
	}
	// Stable counting-sort fill: ranks ascend, so each node's span comes
	// out ascending with no per-node sort.
	p := &Placement{machine: m, node: nodeOf, rankPtr: ptr[:m.Nodes+1], rankData: make([]Rank, len(nodeOf))}
	for r, n := range nodeOf {
		p.rankData[ptr[n+1]] = Rank(r)
		ptr[n+1]++
	}
	p.refreshUsed()
	return p, nil
}

// refreshUsed recomputes the cached used-node list and its inverse index,
// count-then-fill. Placements are immutable after NewPlacement today; any
// future mutating method must call this so UsedNodes and UsedIndex stay O(1)
// per call instead of O(total nodes).
func (p *Placement) refreshUsed() {
	nodes := len(p.rankPtr) - 1
	count := 0
	for n := 0; n < nodes; n++ {
		if p.rankPtr[n+1] > p.rankPtr[n] {
			count++
		}
	}
	p.used = make([]NodeID, 0, count)
	p.usedIdx = make([]int32, nodes)
	for n := 0; n < nodes; n++ {
		p.usedIdx[n] = -1
		if p.rankPtr[n+1] > p.rankPtr[n] {
			p.usedIdx[n] = int32(len(p.used))
			p.used = append(p.used, NodeID(n))
		}
	}
}

// Block places ranks in consecutive blocks of procsPerNode per node:
// ranks 0..procsPerNode-1 on node 0, and so on. This is the topology-aware
// positioning the paper's tsunami runs use (consecutive MPI ranks share a
// node to maximize intra-node communication).
func Block(m *Machine, nranks, procsPerNode int) (*Placement, error) {
	if procsPerNode <= 0 {
		return nil, fmt.Errorf("topology: procsPerNode must be positive, got %d", procsPerNode)
	}
	need := (nranks + procsPerNode - 1) / procsPerNode
	if need > m.Nodes {
		return nil, fmt.Errorf("topology: %d ranks at %d per node need %d nodes; machine has %d",
			nranks, procsPerNode, need, m.Nodes)
	}
	nodeOf := make([]NodeID, nranks)
	for r := range nodeOf {
		nodeOf[r] = NodeID(r / procsPerNode)
	}
	return newPlacement(m, nodeOf)
}

// RoundRobin places consecutive ranks on consecutive nodes, wrapping around:
// rank r lands on node r mod usedNodes. It is the adversarial placement for
// locality but the friendly one for erasure-code distribution.
func RoundRobin(m *Machine, nranks, usedNodes int) (*Placement, error) {
	if usedNodes <= 0 || usedNodes > m.Nodes {
		return nil, fmt.Errorf("topology: RoundRobin over %d nodes; machine has %d", usedNodes, m.Nodes)
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
func (p *Placement) NumRanks() int { return len(p.node) }

// NodeOf returns the node hosting rank r.
func (p *Placement) NodeOf(r Rank) NodeID { return p.node[r] }

// RanksOn returns the ranks hosted on node n in ascending order — a view
// into the flat backing array, allocation-free. The caller must not modify
// the returned slice.
func (p *Placement) RanksOn(n NodeID) []Rank { return p.rankData[p.rankPtr[n]:p.rankPtr[n+1]] }

// CountOn returns the number of ranks hosted on node n in O(1), without
// materializing the span.
func (p *Placement) CountOn(n NodeID) int { return int(p.rankPtr[n+1] - p.rankPtr[n]) }

// UsedNodes returns the nodes that host at least one rank, ascending. The
// list is computed once at construction — reliability-model setup calls this
// per evaluation, and a scan of all nodes per call is O(total nodes) at
// exascale node counts. The caller must not modify the returned slice.
func (p *Placement) UsedNodes() []NodeID { return p.used }

// UsedIndex returns the position of node n in UsedNodes(), or -1 when n
// hosts no rank — the dense node numbering the node-based graph, the L1
// partition and the reliability model share. Computed once at construction
// like UsedNodes, so the per-evaluation consumers need no node→index map.
func (p *Placement) UsedIndex(n NodeID) int { return int(p.usedIdx[n]) }

// MaxProcsPerNode returns the largest number of ranks on any node.
func (p *Placement) MaxProcsPerNode() int {
	max := 0
	for n := 0; n+1 < len(p.rankPtr); n++ {
		if c := int(p.rankPtr[n+1] - p.rankPtr[n]); c > max {
			max = c
		}
	}
	return max
}

// SameNode reports whether two ranks are hosted on the same node.
func (p *Placement) SameNode(a, b Rank) bool { return p.node[a] == p.node[b] }

// LocalIndex returns the position of rank r among the ranks of its node
// (0-based). With block placement and k procs per node this is r mod k.
// The hierarchical L2 clustering groups the i-th process of each node.
// Spans are ascending, so the lookup is a binary search.
func (p *Placement) LocalIndex(r Rank) int {
	rs := p.RanksOn(p.node[r])
	i := sort.Search(len(rs), func(i int) bool { return rs[i] >= r })
	if i < len(rs) && rs[i] == r {
		return i
	}
	return -1 // unreachable for ranks built through NewPlacement
}

// CorrelatedNodes returns every node whose failure is correlated with node
// n's: the power-supply partner and, when racks are modeled with
// includeRack, the rest of n's rack.
func (p *Placement) CorrelatedNodes(n NodeID, includeRack bool) []NodeID {
	set := map[NodeID]bool{}
	for _, g := range p.machine.PowerGroup(n) {
		set[g] = true
	}
	if includeRack && p.machine.NodesPerRack > 0 {
		for _, g := range p.machine.RackNodes(p.machine.Rack(n)) {
			set[g] = true
		}
	}
	out := make([]NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
