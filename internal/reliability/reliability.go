// Package reliability implements the catastrophic-failure model the paper
// inherits from FTI (reference [3]): the probability that a failure event
// destroys more checkpoint blocks of some erasure-coded group than the code
// tolerates, making the application state unrecoverable from node-local
// storage.
//
// The model has two ingredients:
//
//  1. A failure mix: what fraction of failures are transient process
//     faults (no storage lost) versus simultaneous losses of f = 1, 2, 3...
//     compute nodes. The default mix encodes the paper's observation that
//     "most failures affect only one single node or a small set of nodes",
//     with the multi-node tail decaying roughly geometrically.
//
//  2. The placement of every encoding group's members across nodes, plus
//     the group's erasure tolerance. A group is destroyed when a failure
//     removes more members than the tolerance; the failure is catastrophic
//     when at least one group is destroyed.
//
// P(catastrophic) = Σ_f P(f) · P(some group destroyed | f random nodes fail).
// The conditional term has an exact closed form when the groups sit on
// pairwise-disjoint or identical uniform node spans — FTI's layouts, and
// every layout hcrun's experiments score — and that form is tried first.
// Other layouts are enumerated exactly for small f and bounded by a
// per-group hypergeometric union bound (tight for rare events) for the
// tail, falling back to seeded Monte Carlo when the union bound is too loose
// to be meaningful. A paper strategy can land there: naive size 3 on a
// round-robin placement of 4,096 ranks over 2,048 nodes has groups whose
// spans overlap partially once the ranks wrap the machine, and with a
// 48-entry node-loss mix it is still sampling after 3 s.
//
// Only the weights P(f) read the failure mix, so the work is split there: a
// Profile reads the groups once and remembers each conditional it computes;
// weighing it with a mix is the sum above, and Model.CatastropheProb is a
// profile built for one weighing. The read streams each group's span through
// one scratch buffer into the product form's reduction — one (size,
// threshold) constraint per distinct span and one owner per node, O(nodes)
// memory — and only a layout the reduction rejects is copied into sparse
// (node, count) span slabs, O(members). Where failure sets are tested,
// single-node-fatal groups collapse into a per-node critical bitmap,
// per-group node bitsets answer "how many members failed" with masked
// popcounts, and both exact enumeration and Monte Carlo sampling shard
// across a worker pool in fixed chunks whose integer hit counts sum
// identically in any order, so parallel results are bit-identical to serial.
package reliability

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"hierclust/internal/pool"
	"hierclust/internal/topology"
)

// Mix is the failure-type distribution. Transient + Σ NodeLoss must be
// positive; Normalize scales it to sum to 1.
type Mix struct {
	// Transient is the probability that a failure is a process-level fault
	// losing no node storage (recoverable from the local checkpoint level,
	// never catastrophic for erasure groups).
	Transient float64
	// NodeLoss[i] is the probability that a failure destroys exactly i+1
	// whole nodes simultaneously.
	NodeLoss []float64
	// PairCorrelation is the fraction of two-node failures that hit a
	// power-supply-aligned pair (nodes 2i and 2i+1) rather than two
	// uniformly random nodes — the correlated-failure scenario of the
	// paper's §II-C2 ("two nodes sharing a power supply should be located
	// in the same cluster"). 0 disables correlation.
	PairCorrelation float64
}

// DefaultMix returns the calibrated failure mix used for the paper
// reproduction: 5% transient faults and a node-loss tail that reproduces
// Table II's reliability column (0.95 for single-node groups, ~1e-4 for
// two-node groups, ~1e-6 for the hierarchical 4-node groups, ≲1e-14 for
// 16-node distributed groups).
func DefaultMix() Mix {
	m := Mix{
		Transient: 0.05,
		NodeLoss:  []float64{0.9429, 6.3e-3, 6.6e-4, 6.6e-5, 6.6e-6, 6.6e-7, 6.6e-8, 6.6e-9, 6.6e-10},
	}
	m.Normalize()
	return m
}

// Normalize scales the mix to sum to exactly 1.
func (m *Mix) Normalize() {
	sum := m.Transient
	for _, p := range m.NodeLoss {
		sum += p
	}
	if sum <= 0 {
		return
	}
	m.Transient /= sum
	for i := range m.NodeLoss {
		m.NodeLoss[i] /= sum
	}
}

// Validate reports an error for impossible mixes.
func (m *Mix) Validate() error {
	if m.Transient < 0 {
		return fmt.Errorf("reliability: negative transient probability %g", m.Transient)
	}
	if m.PairCorrelation < 0 || m.PairCorrelation > 1 {
		return fmt.Errorf("reliability: PairCorrelation %g outside [0,1]", m.PairCorrelation)
	}
	sum := m.Transient
	for i, p := range m.NodeLoss {
		if p < 0 {
			return fmt.Errorf("reliability: negative P(%d-node loss) = %g", i+1, p)
		}
		sum += p
	}
	if sum == 0 {
		return fmt.Errorf("reliability: mix sums to zero")
	}
	return nil
}

// NodeCount is one entry of a group's span: Count members on Node.
type NodeCount struct {
	Node  topology.NodeID
	Count int32
}

// Group describes one erasure-encoding group: how many of its members live
// on each node, and how many member losses the code tolerates.
type Group struct {
	// Span lists the nodes hosting members with the member count on each,
	// strictly ascending by node. The model rejects an unsorted span.
	Span []NodeCount
	// Tolerance is the maximum number of simultaneously lost members the
	// group survives (the parity count m of an RS(k,m) code).
	Tolerance int
}

// GroupFromRanks builds a Group from member ranks under a placement, with
// tolerance = len(members)/2, FTI's half-group Reed–Solomon provisioning.
// Span nodes are numbered by p.UsedIndex, the dense numbering a Model of
// p.NumUsed() nodes draws failures from and the aligned-pair term
// pairs (2i, 2i+1) in: unused nodes between used ones do not change a score.
func GroupFromRanks(p *topology.Placement, members []topology.Rank) Group {
	span := make([]NodeCount, 0, len(members))
	sorted := true
	for _, r := range members {
		n := topology.NodeID(p.UsedIndex(p.NodeOf(r)))
		if len(span) > 0 && n < span[len(span)-1].Node {
			sorted = false
		}
		span = append(span, NodeCount{Node: n, Count: 1})
	}
	if !sorted {
		slices.SortFunc(span, func(a, b NodeCount) int { return cmp.Compare(a.Node, b.Node) })
	}
	w := 0
	for i, e := range span { // merge runs of one node in place
		if i > 0 && e.Node == span[w-1].Node {
			span[w-1].Count++
			continue
		}
		span[w] = e
		w++
	}
	return Group{Span: span[:w], Tolerance: len(members) / 2}
}

// validateGroups rejects a caller-built group whose span is not strictly
// ascending by node (the reduction, flatten and index read spans in order and
// never sort), whose span lists a node hosting no member or a node outside
// the machine's [0, nodes), or whose tolerance is negative: the closed form
// and the enumeration would score those differently, and a node no failure
// draws from would count as one that never fails.
func validateGroups(groups []Group, nodes int) error {
	for gi := range groups {
		g := &groups[gi]
		if g.Tolerance < 0 {
			return fmt.Errorf("reliability: group %d has negative tolerance %d", gi, g.Tolerance)
		}
		for i, e := range g.Span {
			if e.Node < 0 || int(e.Node) >= nodes {
				return fmt.Errorf("reliability: group %d spans node %d outside the machine's %d nodes", gi, e.Node, nodes)
			}
			if e.Count < 1 {
				return fmt.Errorf("reliability: group %d span lists %d members on node %d", gi, e.Count, e.Node)
			}
			if i > 0 && e.Node <= g.Span[i-1].Node {
				return fmt.Errorf("reliability: group %d span not strictly ascending at node %d", gi, e.Node)
			}
		}
	}
	return nil
}

// Model computes catastrophe probabilities for a set of groups on a
// machine.
type Model struct {
	// Nodes is the total node count failures draw from.
	Nodes int
	// Mix is the failure-type distribution.
	Mix Mix
	// Workers bounds the worker pool for exact enumeration and Monte
	// Carlo sharding; 0 means GOMAXPROCS. Results do not depend on it.
	Workers int

	// exactLimit and samples are the Profile budgets; zero means the
	// defaults, which only this package's tests lower.
	exactLimit, samples int
}

// The budgets of a layout outside the product form (overlapping or
// non-uniform spans): up to defaultExactLimit failure sets per f are
// enumerated, past that the union bound answers when it is at most 0.1 and
// defaultSamples seeded Monte Carlo draws otherwise. Sampling is sharded in
// fixed deterministic chunks, so it is bit-identical at any worker count.
const (
	defaultExactLimit = 100_000
	defaultSamples    = 200_000
)

// CatastropheProb returns P(catastrophic | a failure occurs) for the groups.
func (mdl *Model) CatastropheProb(groups []Group) (float64, error) {
	return mdl.CatastropheProbCtx(context.Background(), groups)
}

// CatastropheProbCtx is CatastropheProb with cancellation: a cancelled
// context makes the exact-enumeration and Monte Carlo worker loops bail
// out within a bounded number of inner iterations and the call return
// ctx.Err(). An uncancelled call is bit-identical to CatastropheProb —
// ctx is polled, never consulted for results.
func (mdl *Model) CatastropheProbCtx(ctx context.Context, groups []Group) (float64, error) {
	p := Profile{exactLimit: mdl.exactLimit, samples: mdl.samples}
	if err := p.Init(groups, mdl.Nodes); err != nil {
		return 0, err
	}
	return p.CatastropheProb(ctx, mdl.Mix, mdl.Workers)
}

// memoF is the largest failure count whose conditional a Profile keeps; the
// tail of a longer mix (DefaultMix has nine entries) is recomputed.
const memoF = 16

// Profile is the mix-independent side of the model: the conditionals — all
// of the closed-form, enumeration and sampling work — read only the groups,
// the node count and the two budgets. It holds the groups' flat form (the
// product-form reduction, O(nodes); for a layout the reduction rejects, the
// span slabs instead, and the enumeration index once the layout has needed
// it) and the conditionals computed so far, so weighing it with a second mix
// costs a multiply-add per failure count. The zero value needs Init or
// InitRanks; after that it is safe for concurrent use and must not be copied.
// Init or InitRanks may run again once no reader remains: the new groups
// replace the old and every remembered conditional, and the reduction reads
// into the memory the last one left.
type Profile struct {
	nodes int
	fg    *flatGroups
	red   flatGroups // the reduction's memory; fg is &red while it holds

	// exactLimit and samples are the budgets: Init replaces a zero with its
	// default, and only this package's tests set them lower.
	exactLimit, samples int

	// cond[f-1] is the conditional for f failed nodes, cond[memoF] the
	// aligned-pair term; bit i of have marks cond[i] valid. Entries fill on
	// first use. Two callers that miss one entry both compute it, to the
	// same bits: neither waits on work that runs under the other's context.
	mu   sync.Mutex
	have uint32
	cond [memoF + 1]float64
}

// Init reads caller-built groups (not retained) for a machine of nodes nodes.
func (p *Profile) Init(groups []Group, nodes int) error {
	if nodes <= 0 {
		return fmt.Errorf("reliability: model has %d nodes", nodes)
	}
	if err := validateGroups(groups, nodes); err != nil {
		return err
	}
	p.init(reduceOrFlatten(groupSpans{groups, nodes}, &p.red))
	return nil
}

// InitRanks is Init of GroupFromRanks of every member list on the placement's
// used nodes, without the Group values in between.
func (p *Profile) InitRanks(pl *topology.Placement, members [][]topology.Rank) error {
	if nodes := pl.NumUsed(); nodes <= 0 {
		return fmt.Errorf("reliability: model has %d nodes", nodes)
	}
	p.init(reduceOrFlatten(rankSpans{pl, members}, &p.red))
	return nil
}

func (p *Profile) init(fg *flatGroups) {
	p.fg, p.nodes = fg, fg.n
	p.exactLimit, p.samples = cmp.Or(p.exactLimit, defaultExactLimit), cmp.Or(p.samples, defaultSamples)
	p.have = 0
}

// memo returns the remembered cond[i], if any.
func (p *Profile) memo(i int) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cond[i], p.have&(1<<i) != 0
}

// remember stores completed conditionals cond[i:i+len(v)].
func (p *Profile) remember(i int, v ...float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, x := range v {
		p.cond[i+k], p.have = x, p.have|1<<(i+k)
	}
}

// conditional returns P(some group destroyed | f uniform random distinct
// nodes fail); ok is false when cancellation cut it short, and the partial
// sum is not remembered.
func (p *Profile) conditional(ctx context.Context, f, workers int) (pcat float64, ok bool) {
	if f <= memoF {
		if v, hit := p.memo(f - 1); hit {
			return v, true
		}
	}
	if ctx.Err() != nil {
		return 0, false
	}
	if p.fg.dpOK {
		// Disjoint uniform spans: exact closed form, nothing enumerated and
		// nothing polled. One convolution answers every f up to min(memoF,
		// nodes), and all of them are remembered.
		var memo [memoF]float64
		out := memo[:min(memoF, p.nodes)]
		if f > memoF {
			out = make([]float64, f)
		}
		p.fg.productConditionals(p.nodes, p.exactLimit, out)
		p.remember(0, out[:min(len(out), memoF)]...)
		return out[f-1], true
	}
	switch {
	case combinations(p.nodes, f) <= float64(p.exactLimit):
		pcat = exactConditional(ctx, p.fg, p.nodes, f, workers)
	default:
		ub := unionBoundConditional(ctx, p.fg, p.nodes, f, workers)
		if ub <= 0.1 {
			pcat = ub
		} else {
			pcat = monteCarloConditional(ctx, p.fg, p.nodes, f, p.samples, int64(f)*7919, workers)
		}
	}
	// A loop above stops early only once ctx.Err() is non-nil, which it
	// then stays, so a nil error here means none was cut short.
	if ctx.Err() != nil {
		return 0, false
	}
	if f <= memoF {
		p.remember(f-1, pcat)
	}
	return pcat, true
}

// CatastropheProb weighs the profile with a failure mix: P(catastrophic | a
// failure occurs). Missing conditionals are computed under ctx on up to
// workers goroutines (0 = GOMAXPROCS). Every result is bit-identical to a
// fresh Model.CatastropheProbCtx, in whatever order mixes come.
func (p *Profile) CatastropheProb(ctx context.Context, mix Mix, workers int) (float64, error) {
	if err := mix.Validate(); err != nil {
		return 0, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var total float64
	for i, pf := range mix.NodeLoss {
		f := i + 1
		if pf == 0 || f > p.nodes {
			continue
		}
		pcat, ok := p.conditional(ctx, f, workers)
		if !ok {
			break // the partial sum is discarded below
		}
		if f == 2 && mix.PairCorrelation > 0 {
			// A share of double failures hits a power-supply pair rather
			// than two uniform nodes. The pair scan polls nothing, so it
			// always completes.
			aligned, hit := p.memo(memoF)
			if !hit {
				aligned = alignedPairConditional(p.fg, p.nodes)
				p.remember(memoF, aligned)
			}
			pcat = mix.PairCorrelation*aligned + (1-mix.PairCorrelation)*pcat
		}
		total += pf * pcat
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return total, nil
}

// alignedPairConditional returns P(some group destroyed | a uniformly random
// power-supply pair (2i, 2i+1) fails). Under the product form a pair destroys
// a group iff either node's span dies of one failure or both sit in one span
// that dies of two; other layouts test each pair on the enumeration index.
func alignedPairConditional(fg *flatGroups, n int) float64 {
	if n < 2 {
		return 0
	}
	hits := 0
	if fg.dpOK {
		need := func(node int) int32 { // failed span nodes that destroy node's span
			if s := fg.owner[node]; s >= 0 {
				return fg.dpSpans[s].thresh
			}
			return 3 // unconstrained: no pair is enough
		}
		for a := 0; a+1 < n; a += 2 {
			if need(a) <= 1 || need(a+1) <= 1 || fg.owner[a] == fg.owner[a+1] && need(a) <= 2 {
				hits++
			}
		}
	} else {
		bits := fg.indexed().newScratch()
		failed := make([]int, 2)
		for base := 0; base+1 < n; base += 2 {
			failed[0], failed[1] = base, base+1
			if fg.destroys(failed, bits) {
				hits++
			}
		}
	}
	return float64(hits) / float64(n/2)
}

// flatGroups is the groups' flat form, one of two. reduceOrFlatten streams
// the groups into the product-form reduction (dpOK, dpSpans, owner), all the
// closed forms read, and keeps nothing else. A layout it rejects goes to a
// span stage instead, which fills the span slabs (spanPtr, spanNodes,
// spanCounts, tolerance), dpOK false: each group keeps its sparse (node,
// count) span instead of a dense [group][node] row. The enumeration index
// (uniform, the mask slabs, critical, byNode) is what the enumeration and
// sampling loops test a failure set against; index builds it from the slabs
// on first need:
//
//   - critical[node] is set when some group loses more members than its
//     tolerance from that node alone, so any failure containing such a
//     node is catastrophic without touching a single group.
//   - byNode[node] lists the groups that need that node plus at least one
//     more failed node to die; membership loss is counted by testing the
//     group's span against the failed bitset (masked popcounts when all
//     span counts are equal, per-node count sums otherwise).
type flatGroups struct {
	n int
	// Group gi's in-range span is spanNodes/spanCounts[spanPtr[gi]:
	// spanPtr[gi+1]], nodes ascending; its span bitset (uniform groups
	// only) is maskWords/maskBits[maskPtr[gi]:maskPtr[gi+1]], word indices
	// ascending. All read-only once built.
	spanPtr    []int32
	spanNodes  []int32
	spanCounts []int32
	tolerance  []int32

	indexOnce sync.Once
	uniform   []int32 // >0: every span count equals this value
	maskPtr   []int32
	maskWords []int32
	maskBits  []uint64
	critical  []bool // node alone destroys some group
	// byNode[byNodePtr[node]:byNodePtr[node+1]] lists, ascending, the
	// groups destroyable only with >=2 failed nodes that node hosts.
	byNodePtr []int32
	byNode    []int32

	// Disjoint-span reduction. Erasure-code layouts in practice (FTI's, and
	// every layout hcrun's experiments score, but not every strategy on
	// every placement: see the package doc) place groups on node spans that
	// are pairwise disjoint or exactly identical, with the same member count
	// on every span node. Destruction then depends only on *how
	// many* nodes of each span fail, so the conditional catastrophe
	// probability has an exact product-form count (productConditionals)
	// and neither enumeration nor Monte Carlo is needed. dpOK reports whether
	// the reduction applies; dpSpans holds one (size, threshold) constraint
	// per distinct span in the order groups claimed them, threshold = failed
	// span nodes that destroy it; owner[node] is the node's dpSpans index, -1
	// for a node no destroyable group touches (both nil unless dpOK, and
	// the span slabs nil when it is). buf is the buffer the reduction reads
	// each group's span into.
	dpOK    bool
	dpSpans []dpSpan
	owner   []int32
	buf     []int32
}

// dpSpan is one disjoint-span constraint: a span of `size` nodes whose
// groups are destroyed once `thresh` of them fail.
type dpSpan struct {
	size, thresh int32
}

// span returns group gi's in-range (node, count) span.
func (fg *flatGroups) span(gi int32) (nodes, counts []int32) {
	lo, hi := fg.spanPtr[gi], fg.spanPtr[gi+1]
	return fg.spanNodes[lo:hi], fg.spanCounts[lo:hi]
}

// shape returns the count every node of group gi's span carries (0 when they
// differ, -1 for an empty span) and whether any failure can destroy the group.
func (fg *flatGroups) shape(gi int32) (uniform int32, destroyable bool) {
	_, counts := fg.span(gi)
	return spanShape(counts, fg.tolerance[gi])
}

// spanShape is shape of a span's counts under tolerance tol.
func spanShape(counts []int32, tol int32) (uniform int32, destroyable bool) {
	var worst int64
	uniform = -1
	for _, c := range counts {
		worst += int64(c)
		if uniform == -1 {
			uniform = c
		} else if uniform != c {
			uniform = 0
		}
	}
	return uniform, worst > int64(tol)
}

// mask returns group gi's span bitset (empty unless the group is uniform).
func (fg *flatGroups) mask(gi int32) (words []int32, bits []uint64) {
	lo, hi := fg.maskPtr[gi], fg.maskPtr[gi+1]
	return fg.maskWords[lo:hi], fg.maskBits[lo:hi]
}

// groupsOn returns the groups node hosts that need at least one more failed
// node to die.
func (fg *flatGroups) groupsOn(node int) []int32 {
	return fg.byNode[fg.byNodePtr[node]:fg.byNodePtr[node+1]]
}

// spanSource is what a flat form is read from, one group at a time: the
// caller-built groups of Profile.Init or the member lists of InitRanks.
type spanSource interface {
	// dims returns the model's node count, the group count and the room
	// read needs, over all groups and for the largest.
	dims() (nodes, groups, total, longest int)
	// read writes group gi's in-range span into nodes and counts, strictly
	// ascending by node, and returns its length and the group's tolerance.
	read(gi int, nodes, counts []int32) (k int, tol int32)
}

// reduceOrFlatten reads the groups into the disjoint-span reduction in fg,
// in group order, through one scratch buffer, reading each group once. The
// reduction needs owner, dpSpans and the buffer, whatever the group and node
// counts, and keeps nothing else; dpSpans is sized for min(groups, nodes)
// spans, which is enough because the reduction's spans are disjoint and none
// is empty. Each reuses fg's where it fits, so an fg that has read this shape
// before reads it again without allocating; a nil fg allocates all three and
// the struct. At the first group addDPSpan rejects, the groups are flattened
// into fresh slabs instead, and fg is left to the next reduction.
func reduceOrFlatten[S spanSource](s S, fg *flatGroups) *flatGroups {
	n, groups, _, longest := s.dims()
	if fg == nil {
		fg = new(flatGroups)
	}
	*fg = flatGroups{n: n, dpOK: true, owner: regrow(fg.owner, n), dpSpans: regrow(fg.dpSpans, min(groups, n))[:0], buf: regrow(fg.buf, 2*longest)}
	for i := range fg.owner {
		fg.owner[i] = -1
	}
	nodes, counts := fg.buf[:longest], fg.buf[longest:]
	for gi := range groups {
		k, tol := s.read(gi, nodes, counts)
		if uniform, destroyable := spanShape(counts[:k], tol); destroyable {
			if fg.addDPSpan(nodes[:k], uniform, tol); !fg.dpOK {
				return flatten(s)
			}
		}
	}
	return fg
}

// regrow returns s at length n, in s's memory when it fits and in fresh
// memory otherwise, never nil; the contents are undefined.
func regrow[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// flatten is the span stage: every group's in-range span copied into the
// slabs in group order, with no reduction (dpOK false).
func flatten[S spanSource](s S) *flatGroups {
	n, groups, total, _ := s.dims()
	fg := &flatGroups{
		n:          n,
		spanPtr:    make([]int32, groups+1),
		spanNodes:  make([]int32, total),
		spanCounts: make([]int32, total),
		tolerance:  make([]int32, groups),
	}
	k := 0 // entries written, never ahead of the entries read
	for gi := range groups {
		w, tol := s.read(gi, fg.spanNodes[k:], fg.spanCounts[k:])
		k += w
		fg.spanPtr[gi+1], fg.tolerance[gi] = int32(k), tol
	}
	fg.spanNodes, fg.spanCounts = fg.spanNodes[:k], fg.spanCounts[:k]
	return fg
}

// groupSpans reads caller-built (validated) groups on n nodes: a span's
// entries inside [0, n), which ascend strictly already.
type groupSpans struct {
	groups []Group
	n      int
}

func (s groupSpans) dims() (nodes, groups, total, longest int) {
	for gi := range s.groups {
		total += len(s.groups[gi].Span)
		longest = max(longest, len(s.groups[gi].Span))
	}
	return s.n, len(s.groups), total, longest
}

func (s groupSpans) read(gi int, nodes, counts []int32) (k int, tol int32) {
	for _, e := range s.groups[gi].Span {
		if e.Node >= 0 && int(e.Node) < s.n {
			nodes[k], counts[k] = int32(e.Node), e.Count
			k++
		}
	}
	return k, int32(s.groups[gi].Tolerance)
}

// rankSpans reads member rank lists under a placement as GroupFromRanks
// would: nodes numbered by UsedIndex, tolerance half the group.
type rankSpans struct {
	p       *topology.Placement
	members [][]topology.Rank
}

func (s rankSpans) dims() (nodes, groups, total, longest int) {
	for _, m := range s.members {
		total += len(m)
		longest = max(longest, len(m))
	}
	return s.p.NumUsed(), len(s.members), total, longest
}

// read needs room for one entry per member: the members' node ids go into
// nodes, are sorted only if they arrived unsorted, and runs of one node merge
// in place into (node, count).
func (s rankSpans) read(gi int, nodes, counts []int32) (k int, tol int32) {
	m := s.members[gi]
	seg := nodes[:len(m)]
	sorted := true
	for i, r := range m {
		seg[i] = int32(s.p.UsedIndex(s.p.NodeOf(r)))
		if i > 0 && seg[i] < seg[i-1] {
			sorted = false
		}
	}
	if !sorted {
		slices.Sort(seg)
	}
	for i, node := range seg {
		if i > 0 && node == nodes[k-1] {
			counts[k-1]++
			continue
		}
		nodes[k], counts[k] = node, 1
		k++
	}
	return k, int32(len(m) / 2)
}

// indexed returns fg with its enumeration index built, by the first caller.
func (fg *flatGroups) indexed() *flatGroups {
	fg.indexOnce.Do(fg.index)
	return fg
}

// index builds the enumeration index, count-then-fill: the first pass sizes
// the mask and byNode slabs, the second writes them in group order, so the
// allocation count does not depend on the group or node count.
func (fg *flatGroups) index() {
	groups, n := len(fg.tolerance), fg.n
	fg.uniform = make([]int32, groups)
	fg.maskPtr = make([]int32, groups+1)
	fg.critical = make([]bool, n)
	fg.byNodePtr = make([]int32, n+1)
	for gi := 0; gi < groups; gi++ {
		tol := fg.tolerance[gi]
		nodes, counts := fg.span(int32(gi))
		var words int32
		lastWord := int32(-1)
		for _, node := range nodes {
			if w := node >> 6; w != lastWord { // span ascends, so words do
				words++
				lastWord = w
			}
		}
		fg.maskPtr[gi+1] = fg.maskPtr[gi]
		uniform, destroyable := fg.shape(int32(gi))
		if uniform > 0 { // only uniform groups keep a bitset
			fg.uniform[gi] = uniform
			fg.maskPtr[gi+1] += words
		}
		if !destroyable {
			continue // no failure of any size can destroy this group
		}
		for k, node := range nodes {
			if counts[k] <= tol {
				fg.byNodePtr[node+1]++
			}
		}
	}
	for node := 0; node < n; node++ {
		fg.byNodePtr[node+1] += fg.byNodePtr[node]
	}
	fg.maskWords = make([]int32, fg.maskPtr[groups])
	fg.maskBits = make([]uint64, fg.maskPtr[groups])
	fg.byNode = make([]int32, fg.byNodePtr[n])
	next := make([]int32, n) // fill cursor per node into byNode
	for gi := 0; gi < groups; gi++ {
		tol := fg.tolerance[gi]
		nodes, counts := fg.span(int32(gi))
		if fg.uniform[gi] > 0 {
			words, masks := fg.mask(int32(gi))
			w := -1
			for _, node := range nodes {
				if w < 0 || words[w] != node>>6 {
					w++
					words[w] = node >> 6
				}
				masks[w] |= 1 << (uint(node) & 63)
			}
		}
		if _, destroyable := fg.shape(int32(gi)); !destroyable {
			continue
		}
		for i, node := range nodes {
			if counts[i] > tol {
				fg.critical[node] = true
			} else {
				fg.byNode[fg.byNodePtr[node]+next[node]] = int32(gi)
				next[node]++
			}
		}
	}
}

// addDPSpan folds one destroyable group into the disjoint-span reduction,
// or invalidates it when the group's span overlaps another span partially
// or its per-node counts are not uniform.
func (fg *flatGroups) addDPSpan(nodes []int32, uniform, tol int32) {
	if uniform <= 0 || len(nodes) == 0 {
		fg.dpOK = false
		return
	}
	// Destroyed once j·uniform > tol, i.e. j >= tol/uniform + 1 failed
	// span nodes.
	thresh := tol/uniform + 1
	s := fg.owner[nodes[0]]
	if s == -1 {
		for _, nd := range nodes {
			if fg.owner[nd] != -1 {
				fg.dpOK = false // partial overlap with an existing span
				return
			}
		}
		idx := int32(len(fg.dpSpans))
		for _, nd := range nodes {
			fg.owner[nd] = idx
		}
		fg.dpSpans = append(fg.dpSpans, dpSpan{size: int32(len(nodes)), thresh: thresh})
		return
	}
	if int(fg.dpSpans[s].size) != len(nodes) {
		fg.dpOK = false
		return
	}
	for _, nd := range nodes {
		if fg.owner[nd] != s {
			fg.dpOK = false
			return
		}
	}
	if thresh < fg.dpSpans[s].thresh {
		fg.dpSpans[s].thresh = thresh
	}
}

// productConditionals fills out[f-1] with the exact P(some group destroyed
// | f uniform random distinct node failures) for every f in 1..len(out) ≤ n,
// for group sets that pass the disjoint-span reduction. It counts the safe
// failure sets with one generating-function convolution, truncated at degree
// F = len(out): each span of size s and threshold t contributes the
// polynomial Σ_{j<t} C(s,j)·x^j (ways to lose j of its nodes safely), the
// n-Σs unconstrained nodes contribute binomially at the end, and the
// coefficient sum at degree f over C(n,f) is the survival probability.
// Coefficient d takes the same additions in the same order at any truncation
// ≥ d, so each f reads the bits a convolution to degree f alone would give.
// The row C(s, j) is recomputed only where the span size changes. Runs in
// O(spans·F·min(t,F)) once per profile — microseconds where enumeration
// needs hours and Monte Carlo needs megasamples. Where C(n,f) <= exactLimit
// every count is an integer far below 2^53, and the result is
// (total-safe)/total: the hits/sets exactConditional would return, to the
// bit.
func (fg *flatGroups) productConditionals(n, exactLimit int, out []float64) {
	var polyBuf, nextBuf, waysBuf [memoF + 1]float64 // a remembered f needs no heap
	top := len(out)
	poly, next, ways := polyBuf[:], nextBuf[:], waysBuf[:]
	if top > memoF {
		poly, next, ways = make([]float64, top+1), make([]float64, top+1), make([]float64, top+1)
	}
	poly, next, ways = poly[:top+1], next[:top+1], ways[:top+1]
	poly[0] = 1
	constrained, waysOf := 0, -1 // ways[j] = C(waysOf, j)
	for _, sp := range fg.dpSpans {
		size := int(sp.size)
		constrained += size
		maxJ := min(int(sp.thresh)-1, size, top)
		if size != waysOf {
			for j := range min(size, top) + 1 {
				ways[j] = combinations(size, j)
			}
			waysOf = size
		}
		copy(next, poly) // the j = 0 term, C(size, 0)·poly[d], opens each sum
		for j := 1; j <= maxJ; j++ {
			src, wj := poly[:top+1-j], ways[j]
			dst := next[j:][:len(src)]
			for d, x := range src { // dst[d] is next[d+j]
				dst[d] += x * wj
			}
		}
		poly, next = next, poly
	}
	free := n - constrained
	for k := range ways {
		ways[k] = combinations(free, k)
	}
	for f := 1; f <= top; f++ {
		var safe float64
		for d := 0; d <= f; d++ {
			safe += poly[d] * ways[f-d]
		}
		if total := combinations(n, f); total <= float64(exactLimit) {
			out[f-1] = (total - safe) / total
		} else {
			out[f-1] = min(max(1-safe/total, 0), 1)
		}
	}
}

// newScratch returns a zeroed failed-node bitset sized for the machine.
func (fg *flatGroups) newScratch() []uint64 {
	return make([]uint64, (fg.n+63)/64)
}

// lost returns the members the group loses given the failed-node bitset.
func (fg *flatGroups) lost(gi int32, failedBits []uint64) int32 {
	if u := fg.uniform[gi]; u > 0 {
		// Indexed through the slabs directly: slicing out the group's
		// words and masks first costs more than the one-word loop itself.
		var pc int32
		for k, hi := fg.maskPtr[gi], fg.maskPtr[gi+1]; k < hi; k++ {
			pc += int32(bits.OnesCount64(failedBits[fg.maskWords[k]] & fg.maskBits[k]))
		}
		return pc * u
	}
	var lost int32
	nodes, counts := fg.span(gi)
	for k, node := range nodes {
		if failedBits[node>>6]&(1<<(uint(node)&63)) != 0 {
			lost += counts[k]
		}
	}
	return lost
}

// destroys reports whether failing exactly the listed nodes destroys any
// group. failedBits is caller-owned zeroed scratch from newScratch; it is
// zeroed again before returning.
func (fg *flatGroups) destroys(failed []int, failedBits []uint64) bool {
	for _, node := range failed {
		if fg.critical[node] {
			return true
		}
	}
	for _, node := range failed {
		failedBits[node>>6] |= 1 << (uint(node) & 63)
	}
	hit := false
scan:
	for _, node := range failed {
		for _, gi := range fg.groupsOn(node) {
			if fg.lost(gi, failedBits) > fg.tolerance[gi] {
				hit = true
				break scan
			}
		}
	}
	for _, node := range failed {
		failedBits[node>>6] = 0
	}
	return hit
}

// resolveWorkers returns the pool size the chunked loops run on: workers
// (0 = GOMAXPROCS) capped by the chunk count, at least 1. Callers size
// per-worker scratch state with it; the pool's worker ids are stable and
// below it, so reusing scratch per worker never makes results depend on
// scheduling (chunk functions write conclusions only to per-chunk state).
func resolveWorkers(workers, nchunks int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, nchunks), 1)
}

// exactConditional enumerates every f-subset of nodes and returns the
// fraction that destroys at least one group. The enumeration is chunked by
// the lexicographically first failed node: chunk v covers all subsets
// {v, ...} with the remaining f-1 nodes drawn from v+1..n-1, so chunks are
// disjoint, cover everything, and carry integer hit counts that sum to the
// same total in any order — the parallel result is bit-identical to serial.
// Once ctx.Err() is non-nil, chunks stop within 1024 subsets and no more
// are claimed; the caller discards the partial result and reports it.
func exactConditional(ctx context.Context, fg *flatGroups, n, f, workers int) float64 {
	if f <= 0 || f > n {
		return 0
	}
	fg.indexed()
	nchunks := n - f + 1
	hits := make([]int64, nchunks)
	sets := make([]int64, nchunks)
	// Per-worker scratch, reused across chunks: with one chunk per leading
	// node, per-chunk allocation would be O(n²/64) bitset churn at f=1.
	type exactState struct {
		idx     []int
		scratch []uint64
	}
	states := make([]*exactState, resolveWorkers(workers, nchunks))
	pool.Run(nchunks, len(states), ctx, func(ctx context.Context) bool { return ctx.Err() != nil }, func(ctx context.Context, v, worker int) {
		st := states[worker]
		if st == nil {
			st = &exactState{idx: make([]int, f), scratch: fg.newScratch()}
			states[worker] = st
		}
		idx := st.idx
		idx[0] = v
		for i := 1; i < f; i++ {
			idx[i] = v + i
		}
		scratch := st.scratch
		var h, s int64
		for {
			if s&1023 == 1023 && ctx.Err() != nil {
				break
			}
			s++
			if fg.destroys(idx, scratch) {
				h++
			}
			// next combination with idx[0] fixed at v
			i := f - 1
			for i >= 1 && idx[i] == n-f+i {
				i--
			}
			if i < 1 {
				break
			}
			idx[i]++
			for j := i + 1; j < f; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
		hits[v], sets[v] = h, s
	})
	var hit, totalSets int64
	for i := range hits {
		hit += hits[i]
		totalSets += sets[i]
	}
	return float64(hit) / float64(totalSets)
}

// unionBoundConditional sums the exact per-group destruction probability
// over groups (an upper bound on the union, tight when events are rare).
func unionBoundConditional(ctx context.Context, fg *flatGroups, n, f, workers int) float64 {
	var sum float64
	for gi := range fg.tolerance {
		if ctx.Err() != nil {
			break
		}
		sum += fg.groupConditional(ctx, int32(gi), n, f, workers)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// groupConditional computes P(group gi destroyed | f uniform random distinct
// node failures) exactly, enumerating subsets of the group's node span when
// small and sampling otherwise.
func (fg *flatGroups) groupConditional(ctx context.Context, gi int32, n, f, workers int) float64 {
	nodes, spanCounts := fg.span(gi)
	tolerance := int(fg.tolerance[gi])
	counts := make([]int, len(spanCounts))
	for i, c := range spanCounts {
		counts[i] = int(c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	s := len(counts)
	// Early exit: even the worst-case choice of f failed nodes cannot lose
	// more members than the tolerance.
	worst := 0
	for i := 0; i < f && i < s; i++ {
		worst += counts[i]
	}
	if worst <= tolerance {
		return 0
	}
	denom := combinations(n, f)
	if denom == 0 {
		return 0
	}
	// Partition failure sets by their intersection with the span: for each
	// span subset of size j that loses > tolerance members, the remaining
	// f-j failures land outside the span, counted by C(n-s, f-j). Each
	// failure set is counted once, under its actual intersection.
	var hit float64
	maxJ := f
	if maxJ > s {
		maxJ = s
	}
	var work float64
	for j := 1; j <= maxJ; j++ {
		work += combinations(s, j)
	}
	if work > 2e6 {
		one := &flatGroups{n: n, spanPtr: []int32{0, int32(len(nodes))}, spanNodes: nodes, spanCounts: spanCounts, tolerance: []int32{fg.tolerance[gi]}}
		return monteCarloConditional(ctx, one, n, f, 100_000, int64(n)*31+int64(f), workers)
	}
	idx := make([]int, maxJ)
	var steps int64
	for j := 1; j <= maxJ; j++ {
		outside := combinations(n-s, f-j)
		if outside == 0 {
			continue
		}
		for i := 0; i < j; i++ {
			idx[i] = i
		}
		sub := idx[:j]
		for {
			steps++
			if steps&4095 == 0 && ctx.Err() != nil {
				return 0 // cancelled; the caller discards the result
			}
			lost := 0
			for _, b := range sub {
				lost += counts[b]
			}
			if lost > tolerance {
				hit += outside
			}
			i := j - 1
			for i >= 0 && sub[i] == s-j+i {
				i--
			}
			if i < 0 {
				break
			}
			sub[i]++
			for k := i + 1; k < j; k++ {
				sub[k] = sub[k-1] + 1
			}
		}
	}
	p := hit / denom
	if p > 1 {
		p = 1
	}
	return p
}

// mcChunkSamples is the fixed Monte Carlo shard size. The chunking is part
// of the estimator's definition, not a tuning knob: chunk c always draws
// the same mcChunkSamples subsets from its own RNG stream, so the summed
// hit count — and therefore the estimate — is identical whether chunks run
// on one goroutine or many.
const mcChunkSamples = 8192

// monteCarloConditional estimates the union probability by sampling
// f-subsets, sharded into fixed deterministic chunks with independent
// splitmix-seeded generators. Once ctx.Err() is non-nil, chunks stop within
// 512 samples and no more are claimed; the caller discards the estimate.
func monteCarloConditional(ctx context.Context, fg *flatGroups, n, f, samples int, seed int64, workers int) float64 {
	if samples <= 0 {
		return 0
	}
	fg.indexed()
	nchunks := (samples + mcChunkSamples - 1) / mcChunkSamples
	hits := make([]int64, nchunks)
	// Per-worker buffers, reused across chunks. perm must restart at the
	// identity for every chunk — each chunk's sample stream is defined
	// independently of which worker ran the previous chunk.
	type mcState struct {
		perm    []int
		failed  []int
		scratch []uint64
	}
	states := make([]*mcState, resolveWorkers(workers, nchunks))
	pool.Run(nchunks, len(states), ctx, func(ctx context.Context) bool { return ctx.Err() != nil }, func(ctx context.Context, c, worker int) {
		st := states[worker]
		if st == nil {
			st = &mcState{perm: make([]int, n), failed: make([]int, f), scratch: fg.newScratch()}
			states[worker] = st
		}
		count := mcChunkSamples
		if c == nchunks-1 {
			count = samples - c*mcChunkSamples
		}
		rng := newSplitMix(uint64(seed), uint64(c))
		perm := st.perm
		for i := range perm {
			perm[i] = i
		}
		failed := st.failed
		scratch := st.scratch
		var h int64
		for s := 0; s < count; s++ {
			if s&511 == 511 && ctx.Err() != nil {
				break
			}
			// partial Fisher–Yates for the first f positions
			for i := 0; i < f; i++ {
				j := i + rng.intn(n-i)
				perm[i], perm[j] = perm[j], perm[i]
				failed[i] = perm[i]
			}
			if fg.destroys(failed, scratch) {
				h++
			}
		}
		hits[c] = h
	})
	var hit int64
	for _, h := range hits {
		hit += h
	}
	return float64(hit) / float64(samples)
}

// splitMix is a splitmix64 generator — a few arithmetic ops per draw, far
// cheaper than math/rand's source in the sampling inner loop, and trivially
// seedable per chunk.
type splitMix struct{ state uint64 }

func newSplitMix(seed, chunk uint64) *splitMix {
	r := &splitMix{state: seed ^ (chunk+1)*0x9e3779b97f4a7c15}
	r.next() // decorrelate nearby seeds
	r.next()
	return r
}

func (r *splitMix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns an unbiased uniform int in [0, n) via Lemire's
// multiply-shift with rejection.
func (r *splitMix) intn(n int) int {
	un := uint64(n)
	v := r.next()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.next()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// combinations returns C(n,k) as float64 (0 when k<0 or k>n).
func combinations(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}
