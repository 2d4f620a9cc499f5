package graph

// The parallel region commit. The speculative refinement's serial commit
// walk is the critical path once the scans run wide; when the decided moves
// fall into mutually independent regions, the walks of those regions can run
// concurrently and still produce every bit the serial walk produces.
//
// Soundness rests on a closure invariant computed by planRegions: a region
// owns every piece of state its walk can read or write. With MaxSize == 0
// (decide never reads a foreign cluster's size) a committing vertex v
// touches exactly part/sizes/clusterTouch of clusters reachable through its
// neighborhood, and the gain spans and nbrTouch stamps of its neighbors. So
// a region must be closed under two relations: graph adjacency (a move
// rewrites every neighbor's span, and a touched neighbor may move in turn —
// the serial walk re-decides it at its turn) and cluster co-membership (a
// move resizes its source and target clusters, and a resize can flip any
// member's MinSize gate). planRegions claims the movers' closure under both;
// anything unclaimed is provably untouched for the whole pass. Two regions
// share no vertex, no edge, and no cluster, hence no state.
//
// Order equivalence: the serial walk visits vertices ascending; restricted
// to one region's vertices that is exactly the region's shadow order, and
// the interleaving with other regions is unobservable (no shared state).
// Move stamps are drawn from disjoint per-region counter windows laid out in
// region order, each sized by its shadow (a vertex commits at most once per
// pass), so every stamp comparison — always within one region's events, or
// across passes — orders exactly as the shared serial counter would.
// MaxSize != 0 breaks the ownership argument (decide reads foreign sizes),
// so regions are disabled there.

// Region-commit modes. regionAuto engages only when the mover set is sparse
// (the closure has a chance of splitting) on speculative refinements;
// regionOff always uses the serial walk; regionForce commits through regions
// whenever a plan exists, even a single region — for tests pinning the
// region walk against the serial one.
const (
	regionAuto = iota
	regionOff
	regionForce
)

// regionCommitMode selects the commit strategy. Written only by tests,
// before the runs they compare; production code leaves it on regionAuto.
var regionCommitMode = regionAuto

// regionPlanHook, when non-nil, observes every adopted plan (region count,
// claimed vertex count). Test-only.
var regionPlanHook func(regions, claimed int)

// regionsEligible gates the planning attempt: regions need movers to
// commit, MaxSize == 0 for the ownership argument, and (in auto mode) a
// sparse mover set on a speculative refinement — a dense mover front almost
// always closes into one region, and the plan's O(n) sweeps would be pure
// overhead on top of the serial walk.
func regionsEligible(nMovers, n, maxSize int, speculative bool) bool {
	if regionCommitMode == regionOff || maxSize != 0 || nMovers == 0 {
		return false
	}
	if regionCommitMode == regionForce {
		return true
	}
	return speculative && nMovers*16 <= n
}

// regionPlan is a partition of the potential movers' closure into
// independent regions. Region r's shadow — its claimed vertices, ascending —
// is buf[starts[r]:starts[r+1]]; claimed[v] is v's region, -1 when no region
// touches v. All storage is arena scratch (the matching worklists, free
// during refinement), valid until the next planRegions on the same arena.
type regionPlan struct {
	buf     []int32
	starts  []int32
	claimed []int32
	nr      int
	ok      bool
}

// shadow returns region r's claimed vertices in ascending order.
func (p *regionPlan) shadow(r int) []int32 { return p.buf[p.starts[r]:p.starts[r+1]] }

// planRegions computes the independent regions of the decided moves: the
// connected components, under graph adjacency and cluster co-membership, of
// the closure seeded at every vertex with desire[v] >= 0. It is exact — the
// fixpoint, not a bounded approximation — and allocation-free. A closure
// larger than maxClaim reports !ok (the plan would hand most of the graph to
// one walker anyway; the serial walk is better). Planning runs on the
// calling goroutine, so region numbering (ascending by first mover) and the
// plan itself never depend on the worker count.
func planRegions(g *Graph, part []int, k int, desire []int32, ar *partArena, maxClaim int) regionPlan {
	n := len(part)
	claimed := ar.cand[:n]
	for i := range claimed {
		claimed[i] = -1
	}
	clusterSeen := ar.accept[:k]
	for i := range clusterSeen {
		clusterSeen[i] = 0
	}
	// Cluster member lists (head/next are the weighted-merge scratch, free
	// during refinement): claiming a cluster walks its members once.
	head := ar.head[:k]
	for i := range head {
		head[i] = -1
	}
	next := ar.next[:n]
	for v := n - 1; v >= 0; v-- {
		id := part[v]
		next[v] = head[id]
		head[id] = int32(v)
	}
	stack := ar.work[:0]
	total := 0
	nr := int32(0)
	for v0 := 0; v0 < n; v0++ {
		if desire[v0] < 0 || claimed[v0] != -1 {
			continue
		}
		r := nr
		nr++
		claimed[v0] = r
		total++
		stack = append(stack, int32(v0))
		for len(stack) > 0 {
			v := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			if total > maxClaim {
				return regionPlan{}
			}
			if c := part[v]; clusterSeen[c] == 0 {
				clusterSeen[c] = 1
				for u := head[c]; u != -1; u = next[u] {
					if claimed[u] == -1 {
						claimed[u] = r
						total++
						stack = append(stack, u)
					}
				}
			}
			cols, _ := g.row(v)
			for _, c := range cols {
				if claimed[c] == -1 {
					claimed[c] = r
					total++
					stack = append(stack, c)
				}
			}
		}
	}
	if nr == 0 || int(nr)+1 > len(ar.work2) {
		return regionPlan{}
	}
	// Counting sort by region: one ascending vertex scan groups each
	// region's shadow contiguously while preserving vertex order within it.
	starts := ar.work2[:nr+1]
	for i := range starts {
		starts[i] = 0
	}
	for v := 0; v < n; v++ {
		if r := claimed[v]; r >= 0 {
			starts[r+1]++
		}
	}
	for r := int32(0); r < nr; r++ {
		starts[r+1] += starts[r]
	}
	cursor := ar.workP[:nr]
	copy(cursor, starts[:nr])
	buf := ar.workA[:total]
	for v := 0; v < n; v++ {
		if r := claimed[v]; r >= 0 {
			buf[cursor[r]] = int32(v)
			cursor[r]++
		}
	}
	return regionPlan{buf: buf, starts: starts, claimed: claimed, nr: int(nr), ok: true}
}
