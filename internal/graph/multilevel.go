package graph

import (
	"fmt"
	"sort"
)

// The multilevel pipeline: heavy-edge-matching coarsening, greedy partition
// of the coarsest graph, and projection back up with the incremental-gain
// refinement run at every level. This is the standard answer of large-graph
// practice (METIS-family partitioners) to the two weaknesses of single-level
// greedy growth: the growth loop is inherently serial, and its local view
// misses community structure that only appears after contraction. Matching
// caps merged vertex weight at TargetSize, so coarse vertices are embryonic
// clusters; the coarsest greedy growth then works on a graph a few hundred
// vertices wide regardless of the input size.
//
// Every phase runs on the caller's goroutine and is deterministic: matching
// proposals are pure functions of the frozen CSR and the previous round's
// state, so the assignment depends on nothing but the graph and the options.
// All scratch state lives in the build's arena (arena.go) sized once at the
// finest level; a level carves from its slabs only the four arrays that must
// outlive it for projection (cmap, vertex weights, and the coarse CSR
// itself), beside the finest level's.

// mlLevel is one rung of the coarsening ladder.
type mlLevel struct {
	g *Graph
	// vw[v] = number of original (finest-level) vertices inside v; nil at
	// the finest level (unit weights).
	vw []int
	// cmap[v] = vertex of the next-coarser level's graph containing v; nil
	// on the coarsest level.
	cmap []int32
}

// multilevelPartition runs the coarsen/partition/uncoarsen pipeline and
// returns the finest level's assignment in an arena buffer, ids not yet
// compacted. The caller has normalized opts, fitted the arena to g and
// checked n > coarsenThreshold.
func multilevelPartition(g *Graph, opts PartitionOptions, ar *Arena) ([]int, error) {
	levels := make([]*mlLevel, 1, 24)
	levels[0] = &mlLevel{g: g}
	for {
		cur := levels[len(levels)-1]
		if cur.g.N() <= opts.coarsenThreshold {
			break
		}
		if opts.cancelled() {
			return nil, ErrCancelled
		}
		li := len(levels) - 1
		setPhase("match", li)
		match, matched := heavyEdgeMatching(cur.g, cur.vw, opts, ar)
		// Stop when matching stalls — nothing matched, or the graph would
		// shrink by less than 10% (each matched pair removes one vertex):
		// a further level costs full matching + contraction + refinement
		// passes for almost no reduction.
		if matched == 0 || matched/2 < cur.g.N()/10 {
			clearPhase()
			break
		}
		setPhase("contract", li)
		coarse, cmap, cvw, err := contract(cur.g, cur.vw, match, matched, opts, ar)
		clearPhase()
		if err != nil {
			return nil, err
		}
		cur.cmap = cmap
		levels = append(levels, &mlLevel{g: coarse, vw: cvw})
	}

	// The per-level assignment ping-pongs between two arena buffers, level
	// li's in projA when li is even and projB when it is odd, so a level
	// reads the one its coarser neighbour wrote and never its own.
	proj := func(li int) []int {
		if li%2 == 1 {
			return ar.projB[:levels[li].g.N()]
		}
		return ar.projA[:levels[li].g.N()]
	}
	top := len(levels) - 1
	coarsest := levels[top]
	part := compact(singleLevel(coarsest.g, opts, coarsest.vw, ar, top), ar.cand, proj(top))

	// Project back up, refining at every level: the coarse assignment seeds
	// each finer level, and boundary moves that only make sense at finer
	// granularity are recovered by the same incremental-gain refinement the
	// single-level path runs. Intermediate levels get a trimmed pass budget
	// — their mistakes are still correctable below, and the finest level
	// keeps the caller's full budget for the moves that actually count.
	for li := top - 1; li >= 0; li-- {
		if opts.cancelled() {
			return nil, ErrCancelled
		}
		l := levels[li]
		coarseN := levels[li+1].g.N()
		fine := proj(li)
		// One fused loop projects the assignment and accumulates the
		// per-cluster weights; the cluster count comes from the coarse
		// assignment (every coarse id has a fine preimage), keeping the
		// max-scan off the longer fine array.
		k := 0
		for _, p := range part[:coarseN] {
			if p >= k {
				k = p + 1
			}
		}
		sizes := ar.sizesBuf[:k]
		clear(sizes)
		cmap := l.cmap
		if l.vw == nil {
			for v := range fine {
				p := part[cmap[v]]
				fine[v] = p
				sizes[p]++
			}
		} else {
			for v := range fine {
				p := part[cmap[v]]
				fine[v] = p
				sizes[p] += l.vw[v]
			}
		}
		part = fine
		lvlOpts := opts
		if li > 0 && lvlOpts.refinePasses > 2 {
			lvlOpts.refinePasses = 2
		}
		setPhase("refine", li)
		refine(l.g, part, sizes, lvlOpts, l.vw, ar)
		clearPhase()
	}
	return part, nil
}

// mergeSmallWeighted folds every cluster below MinSize into the neighboring
// cluster it communicates with most. If every candidate would exceed MaxSize
// the bound is relaxed for that merge: the paper treats MinSize
// (reliability) as the hard constraint and MaxSize (restart cost) as the
// soft one. Sizes are in vertex-weight units, so the unit-weight single
// level and the weighted coarse levels share it. Cluster members live in
// linked lists and merged ids resolve through a union-find, so each merge
// touches only the small cluster's own edges instead of rescanning the whole
// graph; weighted growth can leave thousands of matching-leftover small
// clusters where the unit path leaves at most one. Connection weights
// accumulate in an epoch-stamped flat array (one slot per cluster id); the
// winner is an order-independent maximum.
func mergeSmallWeighted(g *Graph, part []int, sizes []int, opts PartitionOptions, ar *Arena) ([]int, []int) {
	n := g.N()
	k := len(sizes)
	head := ar.head[:k]
	tail := ar.tail[:k]
	for i := range head {
		head[i], tail[i] = -1, -1
	}
	next := ar.next[:n]
	for v := n - 1; v >= 0; v-- { // prepend descending → lists ascend
		id := part[v]
		next[v] = head[id]
		head[id] = int32(v)
		if tail[id] == -1 {
			tail[id] = int32(v)
		}
	}
	parent := ar.parent[:k]
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(id int32) int32 {
		for parent[id] != id {
			parent[id] = parent[parent[id]] // path halving
			id = parent[id]
		}
		return id
	}
	active := 0
	queue := ar.queue[:0]
	for id := 0; id < k; id++ {
		if sizes[id] > 0 {
			active++
			if sizes[id] < opts.MinSize {
				queue = append(queue, int32(id))
			}
		}
	}
	connW := ar.mergeW[:k]
	stamp := ar.mergeStamp[:k]
	for qi := 0; qi < len(queue); qi++ {
		small := find(queue[qi])
		if sizes[small] == 0 || sizes[small] >= opts.MinSize {
			continue // already merged away or grown past the bound
		}
		if active <= 1 {
			break // nothing to merge with
		}
		ar.mergeEpoch++
		epoch := ar.mergeEpoch
		touched := ar.touched[:0]
		for v := head[small]; v != -1; v = next[v] {
			cols, ws := g.row(int(v))
			for i, c := range cols {
				if root := find(int32(part[c])); root != small {
					if stamp[root] != epoch {
						stamp[root] = epoch
						connW[root] = 0
						touched = append(touched, root)
					}
					connW[root] += ws[i]
				}
			}
		}
		target := int32(-1)
		bestW := -1.0
		for _, id := range touched {
			w := connW[id]
			fits := opts.MaxSize == 0 || sizes[id]+sizes[small] <= opts.MaxSize
			if fits && (w > bestW || (w == bestW && (target == -1 || id < target))) {
				target, bestW = id, w
			}
		}
		if target == -1 { // no fitting neighbor: relax MaxSize, then fall
			for _, id := range touched { // back to smallest cluster overall
				w := connW[id]
				if w > bestW || (w == bestW && (target == -1 || id < target)) {
					target, bestW = id, w
				}
			}
		}
		if target == -1 {
			for id := 0; id < k; id++ {
				root := int32(id)
				if parent[root] != root || root == small || sizes[root] == 0 {
					continue
				}
				if target == -1 || sizes[root] < sizes[target] {
					target = root
				}
			}
		}
		if target == -1 {
			break
		}
		// Union: target survives; concat the member lists.
		parent[small] = target
		sizes[target] += sizes[small]
		sizes[small] = 0
		if head[target] == -1 {
			head[target], tail[target] = head[small], tail[small]
		} else {
			next[tail[target]] = head[small]
			tail[target] = tail[small]
		}
		active--
		if sizes[target] < opts.MinSize {
			queue = append(queue, target)
		}
	}
	for v := range part {
		part[v] = int(find(int32(part[v])))
	}
	return part, sizes
}

// matchCoin deterministically splits vertices into proposers (true) and
// acceptors (false) per round, by a splitmix-style hash. A naive symmetric
// handshake ("everyone proposes to their heaviest neighbor") deadlocks on
// uniform-weight graphs — every stencil vertex proposes to the same-side
// neighbor and almost nothing is mutual — while the coin breaks the
// symmetry with no randomness at run time: the role of (vertex, round) is a
// pure function, identical on every machine.
func matchCoin(v int, round int) bool {
	x := uint64(v)*0x9e3779b97f4a7c15 + uint64(round+1)*0xbf58476d1ce4e5b9
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x&1 == 1
}

// heavyEdgeMatching computes a matching preferring heavy edges via
// deterministic proposer/acceptor rounds: each round the coin splits the
// unmatched vertices, proposers pick their heaviest unmatched acceptor
// neighbor within the TargetSize weight cap, acceptors take their heaviest
// incoming proposal, and agreeing pairs bind. match[v] is the partner
// vertex, or -1 when v stays single; matched counts the non-single vertices
// so the caller can detect a stall before contracting.
//
// Each round keeps the still-unmatched vertices in two ascending lists —
// this round's proposers and acceptors — so no pass pays an unpredictable
// per-vertex role branch, and each vertex's role is folded into one state
// byte, so the hot neighbor-eligibility test is a single load instead of a
// coin re-hash plus a match lookup. Pass one walks the proposers, picks each
// one's heaviest eligible acceptor, and immediately challenges that
// acceptor's current-best slot, so no pass ever rescans an acceptor's
// adjacency (proposer order is ascending and the challenge is strict >, so
// the lowest-index proposer wins weight ties). Pass two binds each list's
// agreeing pairs in place; a final merge of the two survivor lists flips the
// next round's coins while restoring the global ascending order the
// challenge tie-break depends on. accept slots are validated by a
// monotonically increasing round stamp instead of being reset.
func heavyEdgeMatching(g *Graph, vw []int, opts PartitionOptions, ar *Arena) (match []int32, matched int) {
	n := g.N()
	match = ar.match[:n]
	for i := range match {
		match[i] = -1
	}
	cand := ar.cand[:n]
	accept := ar.accept[:n]
	acceptRound := ar.acceptRound[:n]
	candW := ar.candW[:n]
	state := ar.state[:n]
	maxW := opts.TargetSize
	// A vertex too heavy to pair with even the lightest possible partner
	// (weight 1) can never match: mark it ineligible and leave it out of both
	// lists for the whole level, so neither the rounds nor the neighbor scans
	// ever revisit it. At the near-saturated coarse levels this removes the
	// majority of the graph — including the whole stall round that otherwise
	// computes a matching just to discard it. When the weight cap fits in six
	// bits (every practical TargetSize) each eligible vertex's weight is
	// packed into the high bits of its state byte, making the proposer scan's
	// eligibility test a single load: role in the low two bits (0 acceptor,
	// 1 proposer, 2 matched, 3 ineligible), weight above.
	packed := vw != nil && maxW <= 63
	// With unit vertex weights any pair weighs 2: the TargetSize cap either
	// never binds or always does, so the eligibility test drops out of the
	// inner loop entirely.
	unitFits := vw == nil && maxW >= 2
	props, accs := ar.workP[:n], ar.workA[:n]
	propsB, accsB := ar.work2[:n], ar.work[:n]
	np, na := 0, 0
	for u := 0; u < n; u++ {
		w := vweight(vw, u)
		if w+1 > maxW {
			state[u] = 3
			continue
		}
		s := uint8(0)
		if packed {
			s = uint8(w << 2)
		}
		if matchCoin(u, 0) {
			state[u] = s | 1
			props[np] = int32(u)
			np++
		} else {
			state[u] = s
			accs[na] = int32(u)
			na++
		}
	}
	for round := 0; round < matchingRounds && np+na > 0; round++ {
		ar.matchRound++
		stamp := ar.matchRound
		// Pass 1: proposers pick and challenge.
		for pi := 0; pi < np; pi++ {
			u := int(props[pi])
			cols, ws := g.row(u)
			best, bestW := int32(-1), -1.0
			switch {
			case unitFits:
				for i, c := range cols {
					if state[c] == 0 && ws[i] > bestW {
						best, bestW = c, ws[i]
					}
				}
			case packed:
				wu := vweight(vw, u)
				for i, c := range cols {
					s := state[c]
					if s&3 != 0 || wu+int(s>>2) > maxW {
						continue
					}
					if ws[i] > bestW {
						best, bestW = c, ws[i]
					}
				}
			default:
				wu := vweight(vw, u)
				for i, c := range cols {
					if state[c]&3 != 0 {
						continue
					}
					if wu+vweight(vw, int(c)) > maxW {
						continue
					}
					if ws[i] > bestW {
						best, bestW = c, ws[i]
					}
				}
			}
			cand[u] = best
			candW[u] = bestW
			if best >= 0 {
				if acceptRound[best] != stamp {
					acceptRound[best] = stamp
					accept[best] = int32(u)
				} else if bestW > candW[accept[best]] {
					accept[best] = int32(u)
				}
			}
		}
		// Pass 2: bind each list in place; survivors compact to the list
		// prefix, preserving ascending order.
		progressed := false
		nw := 0
		for pi := 0; pi < np; pi++ {
			u := props[pi]
			if v := cand[u]; v >= 0 && acceptRound[v] == stamp && accept[v] == u {
				match[u] = v
				state[u] = state[u]&^3 | 2
				progressed = true
				continue
			}
			props[nw] = u
			nw++
		}
		np = nw
		nw = 0
		for ai := 0; ai < na; ai++ {
			v := accs[ai]
			if acceptRound[v] == stamp {
				if p := accept[v]; p >= 0 {
					match[v] = p
					state[v] = state[v]&^3 | 2
					progressed = true
					continue
				}
			}
			accs[nw] = v
			nw++
		}
		na = nw
		if !progressed {
			break
		}
		// Merge the two ascending survivor lists, flipping next-round
		// coins on the way; the merged order is the global ascending order
		// the next challenge pass ties-breaks by.
		pi, ai, np2, na2 := 0, 0, 0, 0
		for pi < np || ai < na {
			var u int32
			if ai >= na || (pi < np && props[pi] < accs[ai]) {
				u = props[pi]
				pi++
			} else {
				u = accs[ai]
				ai++
			}
			if matchCoin(int(u), round+1) {
				state[u] = state[u]&^3 | 1
				propsB[np2] = u
				np2++
			} else {
				state[u] &^= 3
				accsB[na2] = u
				na2++
			}
		}
		props, propsB = propsB, props
		accs, accsB = accsB, accs
		np, na = np2, na2
	}
	for _, m := range match {
		if m != -1 {
			matched++
		}
	}
	return match, matched
}

// contract collapses matched pairs into single vertices, returning the
// coarse graph, the fine→coarse vertex map, and the coarse vertex weights
// (original-vertex counts). Intra-pair edges become self-loops — they can
// never be cut, but they keep coarse strengths comparable for seed ordering,
// mirroring Quotient. The coarse rows are written directly from the match
// slots in one traversal of the fine adjacency (capacity rows filled,
// coalesced in place, then compacted into an exact-size CSR); the
// staging rows live in the arena and the resulting graph skips FromCSR's
// validation scan, which is redundant for rows sorted by construction.
//
// When the coarse graph lands at or under coarsenThreshold it is the
// ladder's final level and the only one whose aggregates (strengths for the
// greedy growth's seed order, total/edge count) are ever read; contraction
// then emits them directly, fused into the compaction pass while the rows
// are cache-hot, instead of leaving the deferred fillAggregates to re-traverse
// the whole CSR cold. Intermediate levels keep the deferred (never-taken)
// path — emitting per level would add a full serial pass per level for
// values nothing reads.
func contract(g *Graph, vw []int, match []int32, matched int, opts PartitionOptions, ar *Arena) (*Graph, []int32, []int, error) {
	n := g.N()
	nc := n - matched/2
	cmap := ar.i32s.take(n)
	cvw := ar.ints.take(nc)
	// One pass over the match slots numbers the coarse vertices, records
	// each one's constituents (mem2 -1 when single), sums its weight, and
	// accumulates the capacity-row prefix — a coarse row holds at most the
	// combined degree of its constituents. A pair is handled entirely at
	// its smaller endpoint (the partner is known from the match slot), so
	// the fused pass needs no second sweep; only cmap of the larger
	// endpoint is filled when reached, for the gather below.
	mem1 := ar.mem1[:nc]
	mem2 := ar.mem2[:nc]
	capPtr := ar.capPtr[:nc+1]
	capPtr[0] = 0
	i := 0
	for u := 0; u < n; u++ {
		m := int(match[u])
		if m != -1 && m < u {
			cmap[u] = cmap[m] // pair already handled at its smaller endpoint
			continue
		}
		if i == nc {
			i++ // would overflow the promised count; fail below
			break
		}
		cmap[u] = int32(i)
		mem1[i] = int32(u)
		d := g.rowptr[u+1] - g.rowptr[u]
		if m == -1 {
			mem2[i] = -1
			cvw[i] = vweight(vw, u)
		} else { // m > u: fold the partner in now
			mem2[i] = int32(m)
			cvw[i] = vweight(vw, u) + vweight(vw, m)
			d += g.rowptr[m+1] - g.rowptr[m]
		}
		capPtr[i+1] = capPtr[i] + d
		i++
	}
	if i != nc {
		// matched must count exactly the paired vertices; anything else
		// means the matching broke its own symmetry invariant.
		return nil, nil, nil, fmt.Errorf("graph: contract numbered %d coarse vertices, matching promised %d", i, nc)
	}
	col := ar.cooCol(capPtr[nc])
	w := ar.cooW(capPtr[nc])
	cnt := ar.cnt[:nc]
	for c := 0; c < nc; c++ {
		base := capPtr[c]
		k := int64(0)
		for _, u := range [2]int32{mem1[c], mem2[c]} {
			if u == -1 {
				break // a single: mem2 is -1
			}
			cols, ws := g.row(int(u))
			for i, cc := range cols {
				tc := cmap[cc]
				// Intra-coarse fine edges appear in both constituent rows;
				// keep the smaller endpoint's copy so the coarse self-loop
				// counts each undirected edge once.
				if int(tc) == c && cc < u {
					continue
				}
				col[base+k], w[base+k] = tc, ws[i]
				k++
			}
		}
		cnt[c] = int32(coalesceRow(col[base:base+k], w[base:base+k]))
	}
	rowptr := ar.i64s.take(nc + 1)
	rowptr[0] = 0
	for c := 0; c < nc; c++ {
		rowptr[c+1] = rowptr[c] + int64(cnt[c])
	}
	m := rowptr[nc]
	fcol := ar.i32s.take(int(m))
	fbuf := ar.f64s.take(int(m) + nc)
	fw := fbuf[:m]
	strength := fbuf[m:]
	if nc <= opts.coarsenThreshold {
		// Final level: fuse the aggregate pass into the compaction while
		// the rows are hot. The loop shape — per-row ascending strength
		// sums, one global running total over col >= row entries in
		// (row, index) order — is exactly fillAggregates', so every emitted
		// float is bit-identical to the deferred pass it replaces.
		var total float64
		nedges := 0
		for c := 0; c < nc; c++ {
			copy(fcol[rowptr[c]:rowptr[c+1]], col[capPtr[c]:capPtr[c]+int64(cnt[c])])
			copy(fw[rowptr[c]:rowptr[c+1]], w[capPtr[c]:capPtr[c]+int64(cnt[c])])
			var s float64
			for i := rowptr[c]; i < rowptr[c+1]; i++ {
				s += fw[i]
				if int(fcol[i]) >= c {
					total += fw[i]
					nedges++
				}
			}
			strength[c] = s
		}
		coarse := newFrozenCSR(nc, rowptr, fcol, fw, strength)
		coarse.adoptAggregates(total, nedges)
		return coarse, cmap, cvw, nil
	}
	for c := 0; c < nc; c++ {
		copy(fcol[rowptr[c]:rowptr[c+1]], col[capPtr[c]:capPtr[c]+int64(cnt[c])])
		copy(fw[rowptr[c]:rowptr[c+1]], w[capPtr[c]:capPtr[c]+int64(cnt[c])])
	}
	return newFrozenCSR(nc, rowptr, fcol, fw, strength), cmap, cvw, nil
}

// coalesceRow stably sorts one row's (col, w) pairs by column and sums the
// weights of equal columns in place, returning the coalesced length. Stable
// order keeps same-column weights summing in fill order, so the sums are
// deterministic. Both row builders (contract, fromEdges) coalesce here.
func coalesceRow(col []int32, w []float64) int64 {
	sortPairsStable(col, w)
	write := int64(0)
	for i := range col {
		if write > 0 && col[write-1] == col[i] {
			w[write-1] += w[i]
		} else {
			col[write], w[write] = col[i], w[i]
			write++
		}
	}
	return write
}

// sortPairsStable stably sorts the parallel (col, w) arrays by column:
// insertion sort for the short rows contraction produces, library stable
// sort beyond that.
func sortPairsStable(col []int32, w []float64) {
	n := len(col)
	if n <= 48 {
		for i := 1; i < n; i++ {
			c, wt := col[i], w[i]
			j := i - 1
			for j >= 0 && col[j] > c {
				col[j+1], w[j+1] = col[j], w[j]
				j--
			}
			col[j+1], w[j+1] = c, wt
		}
		return
	}
	sort.Stable(&pairSorter{col: col, w: w})
}

type pairSorter struct {
	col []int32
	w   []float64
}

func (p *pairSorter) Len() int           { return len(p.col) }
func (p *pairSorter) Less(i, j int) bool { return p.col[i] < p.col[j] }
func (p *pairSorter) Swap(i, j int) {
	p.col[i], p.col[j] = p.col[j], p.col[i]
	p.w[i], p.w[j] = p.w[j], p.w[i]
}
