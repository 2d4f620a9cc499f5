package graph

import (
	"errors"
	"fmt"
	"math"
)

// PartitionOptions bounds the clusters produced by Partition.
//
// The paper's L1 clustering uses MinSize = 4 (nodes) so that erasure-code
// groups can be distributed across at least four physical nodes inside every
// cluster, and relies on the cost function to keep clusters small enough that
// few processes restart after a failure.
type PartitionOptions struct {
	// MinSize is the minimum vertices per part (>=1).
	MinSize int
	// MaxSize caps vertices per part; 0 means unbounded.
	MaxSize int
	// TargetSize is the size the greedy growth aims for; if 0 it defaults
	// to MinSize (grow just enough, letting refinement enlarge clusters
	// only when it reduces the cut).
	TargetSize int
	// RefinePasses bounds the Kernighan–Lin style refinement sweeps;
	// if 0 a default of 8 is used.
	RefinePasses int

	// Multilevel enables the coarsen/partition/uncoarsen pipeline:
	// heavy-edge matching collapses the graph level by level until it has
	// at most CoarsenThreshold vertices, the coarsest graph is partitioned
	// with the greedy growth, and the assignment is projected back up with
	// the incremental-gain refinement run at every level. Off, or on a
	// graph with at most CoarsenThreshold vertices, Partition produces
	// exactly the single-level result.
	Multilevel bool
	// CoarsenThreshold stops coarsening once the graph has at most this
	// many vertices; 0 means 128.
	CoarsenThreshold int
	// MatchingRounds bounds the handshake rounds of each heavy-edge
	// matching; 0 means 4.
	MatchingRounds int
	// Workers is ignored: Partition runs every phase on the caller's
	// goroutine and starts none of its own, so a caller bounds partition
	// compute by how many partitions it runs at once.
	//
	// Deprecated: the field has no effect and will be removed.
	Workers int
	// Cancel, when non-nil, is polled between coarsening levels and
	// refinement passes; once it returns true, Partition abandons the work
	// and returns ErrCancelled. It must be cheap (an atomic load or
	// ctx.Err()) and is never consulted for results — an uncancelled run
	// is bit-identical with or without it.
	Cancel func() bool
}

// ErrCancelled is returned by Partition when PartitionOptions.Cancel
// reported an abort; match with errors.Is.
var ErrCancelled = errors.New("graph: partition cancelled")

// cancelled reports a caller-requested abort.
func (o *PartitionOptions) cancelled() bool { return o.Cancel != nil && o.Cancel() }

func (o *PartitionOptions) normalize(n int) error {
	if o.MinSize <= 0 {
		o.MinSize = 1
	}
	if o.TargetSize == 0 {
		o.TargetSize = o.MinSize
	}
	if o.TargetSize < o.MinSize {
		return fmt.Errorf("graph: TargetSize %d below MinSize %d", o.TargetSize, o.MinSize)
	}
	if o.MaxSize != 0 && o.MaxSize < o.TargetSize {
		return fmt.Errorf("graph: MaxSize %d below TargetSize %d", o.MaxSize, o.TargetSize)
	}
	if o.MinSize > n && n > 0 {
		return fmt.Errorf("graph: MinSize %d exceeds vertex count %d", o.MinSize, n)
	}
	if o.RefinePasses == 0 {
		o.RefinePasses = 8
	}
	if o.CoarsenThreshold <= 0 {
		o.CoarsenThreshold = 128
	}
	if o.MatchingRounds <= 0 {
		o.MatchingRounds = 4
	}
	return nil
}

// vweight returns the weight of vertex v under vw; nil means unit weights
// (the single-level path and the finest multilevel level).
func vweight(vw []int, v int) int {
	if vw == nil {
		return 1
	}
	return vw[v]
}

// Partition splits g into clusters of bounded size while minimizing the
// weight of cut edges (the message-logging volume). It implements the
// strategy of the paper's reference [24]: greedy region growing seeded at
// high-traffic vertices, followed by boundary refinement that moves vertices
// between clusters whenever that lowers the cut without violating the size
// bounds. With Multilevel set (and a graph above CoarsenThreshold) the
// growth runs on a heavy-edge-coarsened graph instead and the refinement
// repeats at every level on the way back up — the same contract, better
// cuts on large graphs. Partition runs on the caller's goroutine, in a
// fresh arena. It returns part[v] = cluster id, with ids dense in 0..K-1,
// in a slice the caller owns.
func Partition(g *Graph, opts PartitionOptions) ([]int, error) {
	part, err := new(Arena).Partition(g, opts)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(part))
	for v, id := range part {
		out[v] = int(id)
	}
	return out, nil
}

// Partition is graph.Partition with the assignment left in the arena, valid
// until Reset. g may itself live in the arena: the partitioner only
// carves after the graph, never over it.
func (ar *Arena) Partition(g *Graph, opts PartitionOptions) ([]int32, error) {
	n := g.N()
	if err := opts.normalize(n); err != nil {
		return nil, err
	}
	nnz := g.rowptr[n]
	ar.fit(n, nnz)
	var part []int
	if opts.Multilevel && n > opts.CoarsenThreshold {
		// The coarse levels below a stencil carve ≈0.9 of the finest
		// level's vertex arrays and ≈1.2 of its columns and weights in all;
		// budgets a little above that let a fresh arena carve the whole
		// ladder and the assignment from one buffer per slab.
		ar.ints.reserve(2 * n)
		ar.i64s.reserve(2 * n)
		ar.i32s.reserve(3*n + 3*int(nnz)/2)
		ar.f64s.reserve(3 * (int(nnz) + n) / 2)
		var err error
		if part, err = multilevelPartition(g, opts, ar); err != nil {
			return nil, err
		}
	} else {
		part = singleLevel(g, opts, nil, ar, 0)
	}
	if opts.cancelled() {
		return nil, ErrCancelled
	}
	return compact(part, ar.cand, ar.i32s.take(n)), nil
}

// singleLevel is the growth → merge → refine pipeline on one graph, with
// cluster sizes measured in vertex weight (vw nil = unit weights, the
// original single-level behavior; multilevel coarse graphs pass the number
// of original vertices inside each coarse vertex). level tags the pprof
// phase labels. It returns the raw assignment in ar.growPart, ids not yet
// compacted.
func singleLevel(g *Graph, opts PartitionOptions, vw []int, ar *Arena, level int) []int {
	setPhase("grow", level)
	part, sizes := grow(g, opts, vw, ar)
	part, sizes = mergeSmallWeighted(g, part, sizes, opts, ar)
	setPhase("refine", level)
	refine(g, part, sizes, opts, vw, ar)
	clearPhase()
	return part
}

// sortSeedsByStrength orders all vertices by strength descending, index
// ascending, via a stable LSD radix sort over the inverted IEEE-754 bit
// patterns — strengths are non-negative, so their bit patterns order
// exactly like their values, and stability turns "index ascending" into a
// free tie-break. The result is the identical total order the comparison
// sort produced, without its half-million comparator calls on 100k-vertex
// graphs. Byte positions that are constant across all keys (most of the
// exponent bytes in practice) skip their scatter pass. Returns the sorted
// slice, which is one of the two ping-pong buffers.
func sortSeedsByStrength(strength []float64, order, orderB []int, keys, keysB []uint64) []int {
	n := len(strength)
	for i := 0; i < n; i++ {
		order[i] = i
		keys[i] = ^math.Float64bits(strength[i])
	}
	var count [256]int
	for shift := 0; shift < 64; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for i := 0; i < n; i++ {
			count[byte(keys[i]>>shift)]++
		}
		if n > 0 && count[byte(keys[0]>>shift)] == n {
			continue // constant byte: the pass would be the identity
		}
		pos := 0
		for b := 0; b < 256; b++ {
			c := count[b]
			count[b] = pos
			pos += c
		}
		for i := 0; i < n; i++ {
			b := byte(keys[i] >> shift)
			j := count[b]
			count[b]++
			keysB[j] = keys[i]
			orderB[j] = order[i]
		}
		keys, keysB = keysB, keys
		order, orderB = orderB, order
	}
	return order
}

// grow performs greedy region growing seeded at high-strength vertices,
// returning the raw (non-compacted) assignment and per-id sizes in weight
// units. Both returned slices are arena-backed; callers own them until the
// next grow on the same arena.
//
// The frontier is flat: connection weights accumulate in an epoch-stamped
// per-vertex array (one epoch per seed, so resets are free) and the
// frontier members sit in a shared list, scanned per pick for the maximum
// (weight desc, vertex asc) — the same total order, over the same candidate
// set, as the historical per-seed hash map's iteration, so every pick is
// identical; only the hashing, per-seed allocation, and tombstone deletes
// are gone. Assigned members are skipped in place, exactly like the map's
// deleted keys.
func grow(g *Graph, opts PartitionOptions, vw []int, ar *Arena) ([]int, []int) {
	g.ensureAggregates() // seed ordering reads strengths
	n := g.N()
	part := ar.growPart[:n]
	for i := range part {
		part[i] = -1
	}

	// Seeds in decreasing strength order: heavy communicators first, so the
	// densest neighborhoods are kept together. The index tie-break makes
	// the order total, so any sort algorithm (or the radix sort here)
	// produces the same seeds.
	order := sortSeedsByStrength(g.strength, ar.order[:n], ar.orderB[:n], ar.keysA[:n], ar.keysB[:n])

	next := 0
	sizes := ar.growSizes[:0]
	connW := ar.growW[:n]
	stamp := ar.growStamp[:n]
	list := ar.growList[:0]
	// addNeighbors folds u's unassigned neighbors into the frontier.
	addNeighbors := func(u int, epoch int32) {
		cols, ws := g.row(u)
		for i, c := range cols {
			v := int(c)
			if part[v] != -1 {
				continue
			}
			if stamp[v] != epoch {
				stamp[v] = epoch
				connW[v] = ws[i]
				list = append(list, c)
			} else {
				connW[v] += ws[i]
			}
		}
	}
	// fallback scans order for any unassigned vertex; assignments only grow,
	// so a monotonic cursor keeps the total fallback cost O(n).
	fallbackCursor := 0
	for _, seed := range order {
		if part[seed] != -1 {
			continue
		}
		id := next
		next++
		part[seed] = id
		size := vweight(vw, seed)
		if size >= opts.TargetSize {
			// Already at target (a saturated multilevel coarse vertex):
			// skip the frontier bookkeeping entirely.
			sizes = append(sizes, size)
			continue
		}
		ar.growEpoch++
		epoch := ar.growEpoch
		list = list[:0]
		addNeighbors(seed, epoch)
		for size < opts.TargetSize {
			best, bestW := -1, -1.0
			for _, v32 := range list {
				v := int(v32)
				if part[v] != -1 {
					continue // already inside some cluster
				}
				if opts.MaxSize != 0 && size+vweight(vw, v) > opts.MaxSize {
					continue // would burst the hard cap
				}
				if w := connW[v]; w > bestW || (w == bestW && (best == -1 || v < best)) {
					best, bestW = v, w
				}
			}
			if best == -1 {
				if vw != nil {
					// Weighted (multilevel) growth: no unassigned neighbor
					// is available or fits. Pulling a distant vertex here
					// would fabricate a non-contiguous cluster; stopping
					// leaves any undersized cluster to the merge, which
					// folds it into its most-connected — adjacent —
					// neighbor instead.
					break
				}
				// Disconnected from every unassigned vertex: pull in the
				// strongest remaining vertex so every cluster reaches the
				// target (reliability requires the minimum size even for
				// isolated vertices).
				for fallbackCursor < n {
					if part[order[fallbackCursor]] == -1 {
						best = order[fallbackCursor]
						break
					}
					fallbackCursor++
				}
				if best == -1 {
					break // nothing left anywhere
				}
			}
			part[best] = id
			size += vweight(vw, best)
			addNeighbors(best, epoch)
		}
		sizes = append(sizes, size)
	}
	return part, sizes
}

// refineState is the refinement's working state: the gain cache and move
// stamps carved from the arena, and the size bounds. refine keeps it on its
// own stack, so a reused arena never pins a finished graph.
type refineState struct {
	g     *Graph
	part  []int
	sizes []int
	vw    []int

	// connID/connW/connCnt[rowptr[v]:rowptr[v]+connLen[v]] = (cluster,
	// weight, contributing neighbors) entries of v, unordered; lookups scan
	// the span. An entry lives exactly while some neighbor contributes to
	// it, so occupancy never exceeds deg(v) — the span always has room.
	// With exact weight arithmetic (integer-valued byte counts, every graph
	// this repository builds) the cached weights equal the historical
	// per-vertex map cache exactly.
	rowptr  []int64
	connID  []int32
	connW   []float64
	connCnt []int32
	connLen []int32

	// Move stamps: nbrTouch[v] is the move counter when v's gain span last
	// changed, clusterTouch[c] when cluster c's size last changed, and
	// lastEval[v] the counter when v last evaluated to "no move" (-1 when v
	// has never evaluated, or its last evaluation moved it). A vertex whose
	// stamps are all at or before its lastEval would re-derive the same
	// "no move" from identical inputs, so converged sweeps skip it after a
	// cheap integer scan — the bulk of every pass after the first.
	nbrTouch     []int32
	clusterTouch []int32
	lastEval     []int32

	minSize   int
	maxSize   int
	moveCount int32
}

func (rs *refineState) find(v, id int) int {
	lo := rs.rowptr[v]
	span := rs.connID[lo : lo+int64(rs.connLen[v])]
	for i := range span {
		if span[i] == int32(id) {
			return int(lo) + i
		}
	}
	return -1
}

func (rs *refineState) add(v, id int, w float64) {
	if i := rs.find(v, id); i >= 0 {
		rs.connW[i] += w
		rs.connCnt[i]++
		return
	}
	pos := rs.rowptr[v] + int64(rs.connLen[v])
	rs.connID[pos], rs.connW[pos], rs.connCnt[pos] = int32(id), w, 1
	rs.connLen[v]++
}

// sub removes one neighbor's weight from v's cluster-id entry, dropping
// the entry with its last contributor.
func (rs *refineState) sub(v, id int, w float64) {
	i := rs.find(v, id)
	if i < 0 {
		return
	}
	rs.connW[i] -= w
	rs.connCnt[i]--
	if rs.connCnt[i] == 0 {
		last := rs.rowptr[v] + int64(rs.connLen[v]) - 1
		rs.connID[i], rs.connW[i], rs.connCnt[i] = rs.connID[last], rs.connW[last], rs.connCnt[last]
		rs.connLen[v]--
	}
}

// decide returns the cluster the sweep moves v to right now, or -1: the
// heaviest adjacent cluster that fits MaxSize, if its weight strictly beats
// v's connection to its own cluster and leaving keeps the source above
// MinSize. One span pass finds both the own weight and the best candidate;
// the candidate maximum is ordered by (weight desc, id asc), which
// reproduces the historical two-pass scan's pick exactly — candidates at or
// below the own weight lose the final strict comparison either way.
func (rs *refineState) decide(v int) int {
	from := rs.part[v]
	wv := vweight(rs.vw, v)
	if rs.sizes[from]-wv < rs.minSize {
		return -1 // removing v would break the reliability bound
	}
	var own float64
	bestTo, bestW := -1, -1.0
	base := int(rs.rowptr[v])
	for i := 0; i < int(rs.connLen[v]); i++ {
		id, w := int(rs.connID[base+i]), rs.connW[base+i]
		if id == from {
			own = w
			continue
		}
		if rs.maxSize != 0 && rs.sizes[id]+wv > rs.maxSize {
			continue
		}
		if w > bestW || (w == bestW && id < bestTo) {
			bestTo, bestW = id, w
		}
	}
	if bestW > own {
		return bestTo
	}
	return -1
}

// stillNoMove reports whether v's previous "no move" decision is still
// derivable from unchanged inputs as of stamp `since`. Those inputs are
// v's gain span (nbrTouch) and the size of v's own cluster (the MinSize
// gate); other clusters' sizes only enter decide through the MaxSize
// cap, so the span's cluster stamps need scanning only when a cap is
// set — with MaxSize 0 (the paper's L1 configuration) the check is two
// loads.
func (rs *refineState) stillNoMove(v int, since int32) bool {
	if since < 0 || rs.nbrTouch[v] > since || rs.clusterTouch[rs.part[v]] > since {
		return false
	}
	if rs.maxSize != 0 {
		base := int(rs.rowptr[v])
		for i := 0; i < int(rs.connLen[v]); i++ {
			if rs.clusterTouch[rs.connID[base+i]] > since {
				return false
			}
		}
	}
	return true
}

// commit applies the move v → to and maintains the incremental caches:
// every neighbor of v sees v's weight shift from cluster `from` to
// `to`; the stamps record what the move invalidated.
func (rs *refineState) commit(v, to int) {
	from := rs.part[v]
	wv := vweight(rs.vw, v)
	rs.part[v] = to
	rs.sizes[from] -= wv
	rs.sizes[to] += wv
	rs.moveCount++
	rs.clusterTouch[from] = rs.moveCount
	rs.clusterTouch[to] = rs.moveCount
	cols, ws := rs.g.row(v)
	for i, c := range cols {
		u := int(c)
		if u == v {
			continue
		}
		rs.sub(u, from, ws[i])
		rs.add(u, to, ws[i])
		rs.nbrTouch[u] = rs.moveCount
	}
}

// build fills the gain cache from the current assignment: vertex v's span
// gets one entry per cluster among its neighbors. The body is the add()
// path hand-inlined over int offsets: this loop is the hottest in the
// multilevel profile (it reruns at every level of the ladder).
func (rs *refineState) build() {
	connID, connW, connCnt, connLen := rs.connID, rs.connW, rs.connCnt, rs.connLen
	for v := range connLen {
		base := int(rs.rowptr[v])
		cols, ws := rs.g.row(v)
		ln := 0
		for i, c := range cols {
			if int(c) == v {
				continue
			}
			id := int32(rs.part[c])
			pos := -1
			for j := 0; j < ln; j++ {
				if connID[base+j] == id {
					pos = base + j
					break
				}
			}
			if pos >= 0 {
				connW[pos] += ws[i]
				connCnt[pos]++
			} else {
				pos = base + ln
				connID[pos], connW[pos], connCnt[pos] = id, ws[i], 1
				ln++
			}
		}
		connLen[v] = int32(ln)
	}
}

// refine performs boundary-move passes: each vertex may move to the
// neighboring cluster it communicates with most if the move strictly lowers
// the cut and keeps both clusters within the size bounds. A pass sweeps the
// vertices in index order and decides each at its turn, with earlier
// commits immediately visible.
//
// The per-vertex connection weights (vertex → adjacent cluster → weight) are
// built once in O(E) and then maintained incrementally: moving v from
// cluster a to cluster b only touches the cached entries of v's neighbors.
// The cache lives in flat arrays spanned by the CSR row pointers — a vertex
// touches at most deg(v) distinct clusters, so its row span always has room
// — because one map per vertex (the previous layout) cost more to build
// than the moves it served on 100k-vertex graphs, and the multilevel path
// rebuilds the cache at every level. The arrays come from the arena, so
// those per-level rebuilds reuse one finest-level allocation.
//
// Sizes are in weight units: moving v shifts vweight(vw, v), and the size
// bounds hold in the same units (unit weights reproduce the historical
// vertex-count behavior exactly).
func refine(g *Graph, part []int, sizes []int, opts PartitionOptions, vw []int, ar *Arena) {
	n := g.N()
	nnz := g.rowptr[n]
	rs := refineState{
		g: g, part: part, sizes: sizes, vw: vw,
		rowptr:  g.rowptr,
		connID:  ar.connID[:nnz],
		connW:   ar.connW[:nnz],
		connCnt: ar.connCnt[:nnz],
		connLen: ar.connLen[:n],

		nbrTouch:     ar.nbrTouch[:n],
		clusterTouch: ar.clusterTouch[:len(sizes)],
		lastEval:     ar.lastEval[:n],

		minSize: opts.MinSize,
		maxSize: opts.MaxSize,
	}
	clear(rs.nbrTouch)
	clear(rs.clusterTouch)
	for i := range rs.lastEval {
		rs.lastEval[i] = -1
	}
	rs.build()
	for pass := 0; pass < opts.RefinePasses; pass++ {
		if opts.cancelled() {
			// Abandon mid-refinement: the caller observes Cancel itself and
			// discards the partition, so the half-refined state never leaks.
			return
		}
		moved := false
		for v := 0; v < n; v++ {
			if rs.stillNoMove(v, rs.lastEval[v]) {
				continue
			}
			if to := rs.decide(v); to >= 0 {
				rs.commit(v, to)
				rs.lastEval[v] = -1
				moved = true
			} else {
				rs.lastEval[v] = rs.moveCount
			}
		}
		if !moved {
			break
		}
	}
}

// compact renumbers cluster ids densely in order of first appearance, into
// out. Raw ids are bounded by the grown-cluster count (≤ the vertex count),
// so the remap is a flat table — the caller's scratch, one entry per raw
// id — rather than a hash map.
func compact[T int | int32](part []int, remap []int32, out []T) []T {
	k := 0
	for _, p := range part {
		k = max(k, p+1)
	}
	remap = remap[:k]
	for i := range remap {
		remap[i] = -1
	}
	next := int32(0)
	for i, p := range part {
		if remap[p] == -1 {
			remap[p] = next
			next++
		}
		out[i] = T(remap[p])
	}
	return out[:len(part)]
}
