// Package core implements the paper's contribution: clustering strategies
// for coupling fast erasure-coded checkpointing (FTI) with failure
// containment (HydEE), evaluated in the four-dimensional optimization space
// of §III — message-logging overhead, recovery cost, encoding time, and
// reliability (probability of catastrophic failure).
//
// Four strategies are provided, mirroring the paper's §III–§IV:
//
//   - Naive: clusters of consecutive ranks sized for the logging/recovery
//     sweet spot (32 in the paper), used directly as encoding groups.
//   - SizeGuided: the same construction at the encoding sweet spot (8),
//     which lands whole groups on single nodes under topology-aware
//     placement and collapses reliability.
//   - Distributed: clusters striped across nodes so every member lives on
//     a different node — reliable, but logging and recovery explode.
//   - Hierarchical: the paper's two-level solution. L1 clusters come from
//     partitioning the node-based communication graph (≥4 nodes per
//     cluster); L2 encoding groups take the i-th process of each node
//     within 4-node sub-groups, giving small, homogeneous, fully
//     distributed groups inside every L1 cluster.
package core

import (
	"context"
	"fmt"
	"slices"

	"hierclust/internal/graph"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
)

// Clustering is a complete clustering decision: the L1 assignment drives
// the hybrid protocol (coordination + containment) and the L2 groups drive
// erasure encoding. For the flat strategies (naive, size-guided,
// distributed) the encoding groups are the L1 clusters themselves, which is
// exactly the coupling constraint of §III ("the processes of the encoding
// clusters must checkpoint in a coordinated fashion").
type Clustering struct {
	// Name labels the strategy in reports.
	Name string
	// L1 maps each rank to its failure-containment cluster id (dense).
	L1 []int32
	// Groups are the erasure-encoding groups, each a set of ranks.
	Groups [][]topology.Rank
}

// NumClusters returns the number of distinct L1 clusters.
func (c *Clustering) NumClusters() int {
	if len(c.L1) == 0 {
		return 0
	}
	return int(slices.Max(c.L1)) + 1
}

// clusterSizes returns the size of each of c's k L1 clusters (one rank
// count fits the id width) in buf's memory, regrown when it is short.
func (c *Clustering) clusterSizes(buf []int32, k int) []int32 {
	sizes := slices.Grow(buf[:0], k)[:k]
	clear(sizes)
	for _, id := range c.L1 {
		sizes[id]++
	}
	return sizes
}

// Validate checks structural invariants: dense L1 ids (non-negative and
// below nranks — every array sized by the largest id stays O(nranks)), and
// encoding groups that are disjoint, within range, and — the coupling
// requirement — each fully contained in a single L1 cluster.
func (c *Clustering) Validate(nranks int) error {
	var seen []uint64
	_, err := c.validate(nranks, &seen)
	return err
}

// validate is Validate with its rank bitset in *seen's memory, regrown there
// when it is short. It returns the number of L1 clusters, NumClusters, read
// on the same walk over the ids.
func (c *Clustering) validate(nranks int, seen *[]uint64) (clusters int, err error) {
	if len(c.L1) != nranks {
		return 0, fmt.Errorf("core: clustering %q covers %d ranks, want %d", c.Name, len(c.L1), nranks)
	}
	var top int32 = -1
	for r, id := range c.L1 {
		if id < 0 {
			return 0, fmt.Errorf("core: clustering %q: rank %d has negative cluster", c.Name, r)
		}
		if int(id) >= nranks {
			return 0, fmt.Errorf("core: clustering %q: rank %d has cluster id %d; dense ids stay below %d ranks",
				c.Name, r, id, nranks)
		}
		top = max(top, id)
	}
	words := (nranks + 63) / 64
	*seen = slices.Grow((*seen)[:0], words)[:words]
	bits := *seen // over ranks
	clear(bits)
	for gi, g := range c.Groups {
		if len(g) == 0 {
			return 0, fmt.Errorf("core: clustering %q: empty group %d", c.Name, gi)
		}
		owner := int32(-1)
		for _, r := range g {
			if int(r) < 0 || int(r) >= nranks {
				return 0, fmt.Errorf("core: clustering %q: group %d rank %d out of range", c.Name, gi, r)
			}
			if bits[r>>6]&(1<<(uint(r)&63)) != 0 {
				return 0, fmt.Errorf("core: clustering %q: rank %d in multiple groups", c.Name, r)
			}
			bits[r>>6] |= 1 << (uint(r) & 63)
			if owner == -1 {
				owner = c.L1[r]
			} else if c.L1[r] != owner {
				return 0, fmt.Errorf("core: clustering %q: group %d spans L1 clusters %d and %d",
					c.Name, gi, owner, c.L1[r])
			}
		}
	}
	return int(top) + 1, nil
}

// MaxGroupSize returns the largest encoding-group size (the encode-time
// driver).
func (c *Clustering) MaxGroupSize() int {
	max := 0
	for _, g := range c.Groups {
		if len(g) > max {
			max = len(g)
		}
	}
	return max
}

// ClusteringBuf is the memory of one scored clustering: the struct, its L1
// array, the slab its encoding groups are windows into, the group headers,
// and the score Profile. A builder method carves them at the shape it builds
// and regrows only what the shape outgrows, so a buffer that has served a
// shape builds and scores it again without allocating. What a method
// returns lives in the buffer until its next build, and the profile until
// its next Init. The zero value is an empty buffer, for one goroutine at a
// time. A nil *ClusteringBuf allocates: the package's builder functions are
// its methods on nil, and their clusterings are the caller's.
type ClusteringBuf struct {
	c      Clustering
	l1     []int32
	slab   []topology.Rank
	groups [][]topology.Rank
	prof   Profile
}

// Profile returns the buffer's score profile; b must not be nil. It may
// score a clustering built anywhere: Init keeps none of it.
func (b *ClusteringBuf) Profile() *Profile { return &b.prof }

// ranks carves the L1 array and the group slab of an nranks clustering.
// The contents are undefined: every builder writes every entry of both.
func (b *ClusteringBuf) ranks(nranks int) ([]int32, []topology.Rank) {
	if b == nil {
		return make([]int32, nranks), make([]topology.Rank, nranks)
	}
	if cap(b.l1) < nranks {
		// The old headers point into the old slab: drop them with it.
		b.l1, b.slab, b.groups = make([]int32, nranks), make([]topology.Rank, nranks), nil
	}
	return b.l1[:nranks:nranks], b.slab[:nranks:nranks]
}

// headers carves room for k group headers, at length 0.
func (b *ClusteringBuf) headers(k int) [][]topology.Rank {
	if b == nil {
		return make([][]topology.Rank, 0, k)
	}
	if cap(b.groups) < k {
		b.groups = make([][]topology.Rank, k)
	}
	return b.groups[:0:k]
}

// clustering returns the struct that carries the build's arrays.
func (b *ClusteringBuf) clustering(name string, l1 []int32, groups [][]topology.Rank) *Clustering {
	if b == nil {
		return &Clustering{Name: name, L1: l1, Groups: groups}
	}
	b.c = Clustering{Name: name, L1: l1, Groups: groups}
	return &b.c
}

// consecutive builds clusters of `size` consecutive ranks in b and mirrors
// them as encoding groups.
func (b *ClusteringBuf) consecutive(name string, nranks, size int) (*Clustering, error) {
	if size <= 0 || size > nranks {
		return nil, fmt.Errorf("core: %s cluster size %d out of range 1..%d", name, size, nranks)
	}
	// The groups are windows into one identity slab, each capped at its own
	// end so an append by a caller cannot reach the next group.
	l1, slab := b.ranks(nranks)
	groups := b.headers((nranks + size - 1) / size)
	for r := 0; r < nranks; r++ {
		l1[r] = int32(r / size)
		slab[r] = topology.Rank(r)
	}
	for base := 0; base < nranks; base += size {
		end := min(base+size, nranks)
		groups = append(groups, slab[base:end:end])
	}
	return b.clustering(name, l1, groups), nil
}

// Naive builds the paper's naive clustering: consecutive-rank clusters at
// the message-logging/recovery sweet spot (32 in the paper's study),
// reused as encoding groups.
func Naive(nranks, size int) (*Clustering, error) {
	return (*ClusteringBuf)(nil).Naive(nranks, size)
}

// Naive is the package's Naive, built in b.
func (b *ClusteringBuf) Naive(nranks, size int) (*Clustering, error) {
	return b.consecutive(fmt.Sprintf("naive-%d", size), nranks, size)
}

// SizeGuided builds the size-guided clustering: the same consecutive-rank
// construction, sized instead for the encoding/logging trade-off (8 in the
// paper).
func SizeGuided(nranks, size int) (*Clustering, error) {
	return (*ClusteringBuf)(nil).SizeGuided(nranks, size)
}

// SizeGuided is the package's SizeGuided, built in b.
func (b *ClusteringBuf) SizeGuided(nranks, size int) (*Clustering, error) {
	return b.consecutive(fmt.Sprintf("size-guided-%d", size), nranks, size)
}

// Distributed builds the distributed clustering: cluster ids striped over
// ranks (rank r joins cluster r mod K), so under block placement every
// member of a cluster lives on a different node. Encoding groups mirror
// the clusters.
func Distributed(nranks, size int) (*Clustering, error) {
	return (*ClusteringBuf)(nil).Distributed(nranks, size)
}

// Distributed is the package's Distributed, built in b.
func (b *ClusteringBuf) Distributed(nranks, size int) (*Clustering, error) {
	if size <= 0 || size > nranks {
		return nil, fmt.Errorf("core: distributed cluster size %d out of range 1..%d", size, nranks)
	}
	k := nranks / size
	if k == 0 {
		k = 1
	}
	l1, slab := b.ranks(nranks)
	groups := b.headers(k)
	off := 0
	for id := 0; id < k; id++ {
		start := off
		for r := id; r < nranks; r += k {
			l1[r] = int32(id)
			slab[off] = topology.Rank(r)
			off++
		}
		groups = append(groups, slab[start:off:off])
	}
	return b.clustering(fmt.Sprintf("distributed-%d", size), l1, groups), nil
}

// HierOptions tunes the hierarchical construction. It is also the
// declarative (JSON) form a scenario's hierarchical strategy carries, so
// the tags are part of the scenario schema and of its cache key: a zero
// field is omitted and picks the paper default.
type HierOptions struct {
	// MinNodesPerL1 is the minimum nodes per L1 cluster (paper: 4), which
	// guarantees room to distribute L2 groups inside each L1 cluster.
	MinNodesPerL1 int `json:"min_nodes_per_l1,omitempty"`
	// TargetNodesPerL1 is the partitioner growth target; 0 means
	// MinNodesPerL1 (or, with Multilevel, ⌈1.25 × MinNodesPerL1⌉).
	TargetNodesPerL1 int `json:"target_nodes_per_l1,omitempty"`
	// MaxNodesPerL1 caps L1 clusters (0 = unbounded); restart cost grows
	// with it.
	MaxNodesPerL1 int `json:"max_nodes_per_l1,omitempty"`
	// SubgroupNodes is the node count of each L2 transversal sub-group
	// (paper: 4).
	SubgroupNodes int `json:"subgroup_nodes,omitempty"`
	// AlignPowerPairs forces both nodes of every power-supply pair into
	// the same L1 cluster (the paper's §II-C2: correlated failures should
	// be contained in one cluster). It partitions the pair-quotient graph
	// instead of the node graph; it has no effect on machines without
	// power pairing.
	AlignPowerPairs bool `json:"align_power_pairs,omitempty"`
	// Multilevel is an alias for a growth target. With TargetNodesPerL1
	// unset, the target is ⌈1.25 × MinNodesPerL1⌉ (5 at the paper's
	// minimum of 4), the part size a coarsening partitioner was measured to
	// produce, lowered to the L1 maximum if one is set (to an even one with
	// AlignPowerPairs, so the pairs still fit). An explicit target wins.
	//
	// Deprecated: set TargetNodesPerL1 instead.
	Multilevel bool `json:"multilevel,omitempty"`
}

func (o *HierOptions) normalize() {
	if o.MinNodesPerL1 <= 0 {
		o.MinNodesPerL1 = 4
	}
	if o.TargetNodesPerL1 <= 0 {
		o.TargetNodesPerL1 = o.MinNodesPerL1
		if o.Multilevel {
			o.TargetNodesPerL1 = (5*o.MinNodesPerL1 + 3) / 4
			if maxN := o.MaxNodesPerL1; maxN > 0 {
				if o.AlignPowerPairs {
					maxN &^= 1
				}
				o.TargetNodesPerL1 = max(o.MinNodesPerL1, min(o.TargetNodesPerL1, maxN))
			}
		}
	}
	if o.SubgroupNodes <= 0 {
		o.SubgroupNodes = 4
	}
}

// Hierarchical builds the paper's two-level clustering from a traced
// communication matrix (sparse *trace.CSR or implicit *trace.Stencil — any
// trace.Comm):
//
//  1. Aggregate the rank matrix into a node-based graph (so all processes
//     of a node share a cluster and one node failure touches one cluster).
//  2. Partition it with the size-constrained min-cut partitioner, at least
//     MinNodesPerL1 nodes per cluster.
//  3. Inside each L1 cluster, split the nodes into sub-groups of
//     SubgroupNodes (or more, never fewer) and build one L2 encoding group
//     per local process index: the i-th process of every node in the
//     sub-group.
//
// The node graph, its partition and the node bucketing are scratch: they
// live in a fresh graph.Arena for the whole call, so a build allocates its
// scratch and the clustering it returns. Nothing returned aliases the arena.
func Hierarchical(m trace.Comm, p *topology.Placement, opts HierOptions) (*Clustering, error) {
	return (*ClusteringBuf)(nil).Hierarchical(context.Background(), nil, m, p, opts)
}

// Hierarchical is the package's Hierarchical, built in b with its scratch in
// ar (reset first; nil is a fresh one), which is dead once it returns. A
// buffer and arena that have served the shape allocate next to nothing.
//
// The node fold polls ctx.Err() every 4,096 nodes, the partitioner's growth
// every 1,024 clusters and its refinement between passes; once it is
// non-nil, the build is abandoned and returns it. An uncancelled build is
// bit-identical under any context.
func (b *ClusteringBuf) Hierarchical(ctx context.Context, ar *graph.Arena, m trace.Comm, p *topology.Placement, opts HierOptions) (*Clustering, error) {
	opts.normalize()
	if m.Ranks() != p.NumRanks() {
		return nil, fmt.Errorf("core: matrix covers %d ranks, placement %d", m.Ranks(), p.NumRanks())
	}
	nused := p.NumUsed()
	if nused < opts.MinNodesPerL1 {
		return nil, fmt.Errorf("core: %d used nodes < MinNodesPerL1 %d", nused, opts.MinNodesPerL1)
	}
	if ar == nil {
		ar = new(graph.Arena)
	}
	ar.Reset()
	nodeGraph, err := trace.NodeGraphInto(ctx, m, p, ar)
	if err != nil {
		return nil, err
	}
	nodePart, err := partitionNodes(ctx, nodeGraph, p, opts, ar)
	if err != nil {
		return nil, err
	}

	l1, slab := b.ranks(p.NumRanks())
	nparts := 0
	for i, part := range nodePart {
		nparts = max(nparts, int(part)+1)
		for pos, end := p.Span(p.UsedNode(i)); pos < end; pos++ {
			l1[p.RankAt(pos)] = part
		}
	}

	// L2: transversal groups inside each L1 cluster. A counting sort buckets
	// the nodes by cluster; used nodes ascend, so every bucket does too, and
	// walking the buckets in id order visits the clusters ascending.
	clusterPtr := ar.Int32s(nparts + 1)
	clear(clusterPtr)
	for _, id := range nodePart {
		clusterPtr[id+1]++
	}
	for id := 0; id < nparts; id++ {
		clusterPtr[id+1] += clusterPtr[id]
	}
	nodes := ar.Int32s(nused) // node ids, bucketed
	next := ar.Int32s(nparts)
	clear(next)
	for i, id := range nodePart {
		nodes[clusterPtr[id]+next[id]] = int32(p.UsedNode(i))
		next[id]++
	}
	bounds := subgroupBounds(clusterPtr, opts.SubgroupNodes, ar)

	// A sub-group yields one group per local process index present on
	// every one of its nodes; count them, then carve every group out of one
	// slab. Each rank lands in exactly one group, so the slab is NumRanks.
	width := func(sub []int32) int {
		w := 0
		for _, n := range sub {
			if cnt := p.CountOn(topology.NodeID(n)); w == 0 || cnt < w {
				w = cnt
			}
		}
		return w
	}
	ngroups := 0
	for s := 0; s+1 < len(bounds); s++ {
		ngroups += width(nodes[bounds[s]:bounds[s+1]])
	}
	groups := b.headers(ngroups)
	off := 0
	for s := 0; s+1 < len(bounds); s++ {
		sub := nodes[bounds[s]:bounds[s+1]]
		w := width(sub)
		// Level i takes the i-th process of every node, plus — on nodes
		// with more processes than the sub-group minimum — every leftover
		// process j with j%w == i, which keeps the distribution property.
		// Sizes are counted before filling and each header's capacity ends
		// at its own size, so the leftover appends cannot reach a neighbour.
		first := len(groups)
		for i := 0; i < w; i++ {
			size := 0
			for _, n := range sub {
				size += (p.CountOn(topology.NodeID(n)) - i + w - 1) / w
			}
			groups = append(groups, slab[off:off:off+size])
			off += size
		}
		for i := 0; i < w; i++ {
			g := groups[first+i][:len(sub)] // every node has an i-th process
			for k, n := range sub {
				lo, _ := p.Span(topology.NodeID(n))
				g[k] = p.RankAt(lo + i)
			}
			groups[first+i] = g
		}
		for _, n := range sub {
			lo, hi := p.Span(topology.NodeID(n))
			for i := w; i < hi-lo; i++ {
				groups[first+i%w] = append(groups[first+i%w], p.RankAt(lo+i))
			}
		}
	}
	return b.clustering("hierarchical", l1, groups), nil
}

// partitionNodes runs the size-constrained partitioner over the node graph,
// or — with AlignPowerPairs — over its power-pair quotient, so that both
// nodes of each pair always share an L1 cluster. The assignment lives in ar;
// the partitioner polls ctx.
func partitionNodes(ctx context.Context, nodeGraph *graph.Graph, p *topology.Placement, opts HierOptions, ar *graph.Arena) ([]int32, error) {
	if !opts.AlignPowerPairs || !p.Machine().PowerPairs {
		return ar.Partition(ctx, nodeGraph, graph.PartitionOptions{
			MinSize: opts.MinNodesPerL1, TargetSize: opts.TargetNodesPerL1, MaxSize: opts.MaxNodesPerL1})
	}
	// Quotient the node graph by power pair (node/2) and partition pairs.
	// Used nodes ascend, so the two nodes of a pair are adjacent.
	pairCount := 0
	pairOfIdx := make([]int, p.NumUsed())
	for i := range pairOfIdx {
		if i == 0 || p.UsedNode(i)&^1 != p.UsedNode(i-1)&^1 {
			pairCount++
		}
		pairOfIdx[i] = pairCount - 1
	}
	pairGraph, err := nodeGraph.Quotient(pairOfIdx, pairCount)
	if err != nil {
		return nil, err
	}
	halve := func(v int) int {
		if v <= 0 {
			return v
		}
		return (v + 1) / 2
	}
	pairPart, err := ar.Partition(ctx, pairGraph, graph.PartitionOptions{
		MinSize: halve(opts.MinNodesPerL1), TargetSize: halve(opts.TargetNodesPerL1), MaxSize: opts.MaxNodesPerL1 / 2})
	if err != nil {
		return nil, err
	}
	nodePart := ar.Int32s(len(pairOfIdx))
	for i, pair := range pairOfIdx {
		nodePart[i] = pairPart[pair]
	}
	return nodePart, nil
}

// subgroupBounds splits every cluster's bucket of nodes (bucket id spans
// clusterPtr[id]:clusterPtr[id+1]) into consecutive sub-groups of at least
// `size` nodes each, as equal as possible ("groups of 4 nodes or more"; a
// bucket smaller than size stays whole). It returns the boundaries as
// offsets into the bucketed node array: sub-group s spans b[s]:b[s+1],
// carved from ar.
func subgroupBounds(clusterPtr []int32, size int, ar *graph.Arena) []int32 {
	count := 0
	for id := 0; id+1 < len(clusterPtr); id++ {
		if n := int(clusterPtr[id+1] - clusterPtr[id]); n > 0 {
			count += max(n/size, 1)
		}
	}
	bounds := ar.Int32s(count + 1)[:1]
	bounds[0] = 0
	for id := 0; id+1 < len(clusterPtr); id++ {
		n := int(clusterPtr[id+1] - clusterPtr[id])
		if n == 0 {
			continue
		}
		k := max(n/size, 1)
		base, extra := n/k, n%k
		pos := clusterPtr[id]
		for i := 0; i < k; i++ {
			pos += int32(base)
			if i < extra {
				pos++
			}
			bounds = append(bounds, pos)
		}
	}
	return bounds
}
