package graph

import (
	"context"
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
	// Multilevel is ignored: Partition has one path, growth → merge →
	// refinement on the graph as given.
	//
	// Deprecated: the field has no effect and will be removed.
	Multilevel bool
	// Workers is ignored: Partition runs every phase on the caller's
	// goroutine and starts none of its own, so a caller bounds partition
	// compute by how many partitions it runs at once.
	//
	// Deprecated: the field has no effect and will be removed.
	Workers int

	// refinePasses bounds the Kernighan–Lin style refinement sweeps; 0
	// picks 8. Only the package's tests set it (to count sweeps).
	refinePasses int
}

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
	if o.refinePasses == 0 {
		o.refinePasses = 8
	}
	return nil
}

// Partition splits g into clusters of bounded size while minimizing the
// weight of cut edges (the message-logging volume). It implements the
// strategy of the paper's reference [24]: greedy region growing seeded at
// high-traffic vertices, a merge of any cluster left below MinSize into its
// most-connected neighbor, and boundary refinement that moves vertices
// between clusters whenever that lowers the cut without violating the size
// bounds. Partition runs on the caller's goroutine, in a fresh arena. It
// returns part[v] = cluster id, with ids dense in 0..K-1, in a slice the
// caller owns.
func Partition(g *Graph, opts PartitionOptions) ([]int, error) {
	part, err := new(Arena).Partition(context.Background(), g, opts)
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
// carves after the graph, never over it. It polls ctx every 1,024 clusters
// the growth starts and between refinement passes, and returns ctx.Err()
// once that is non-nil; an uncancelled run is bit-identical under any ctx.
func (ar *Arena) Partition(ctx context.Context, g *Graph, opts PartitionOptions) ([]int32, error) {
	n := g.N()
	if err := opts.normalize(n); err != nil {
		return nil, err
	}
	ar.fit(n, g.rowptr[n])
	setPhase("grow")
	part, sizes, err := grow(ctx, g, opts, ar)
	if err != nil {
		clearPhase()
		return nil, err
	}
	mergeSmall(g, part, sizes, opts, ar)
	setPhase("refine")
	refine(ctx, g, part, sizes, opts, ar)
	clearPhase()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return compact(part, ar.remap, ar.i32s.take(n)), nil
}

// sortSeedsByStrength orders all vertices by strength descending, index
// ascending, via a stable LSD radix sort over the inverted IEEE-754 bit
// patterns — strengths are non-negative, so their bit patterns order
// exactly like their values, and stability turns "index ascending" into a
// free tie-break. The result is the identical total order the comparison
// sort produced, without its half-million comparator calls on 100k-vertex
// graphs. One AND/OR pass over the keys finds the byte positions that are
// constant across all of them (most of the exponent bytes in practice), and
// one more pass counts the histograms of all the others at once: a constant
// byte gets neither a histogram nor a scatter pass. Returns the sorted slice,
// which is one of the two ping-pong buffers.
func sortSeedsByStrength(strength []float64, order, orderB []int, keys, keysB []uint64) []int {
	n := len(strength)
	every, some := ^uint64(0), uint64(0) // bits set in every key, in some key
	for i := 0; i < n; i++ {
		order[i] = i
		keys[i] = ^math.Float64bits(strength[i])
		every &= keys[i]
		some |= keys[i]
	}
	shifts := make([]uint, 0, 8) // the varying byte positions, least significant first
	for shift := uint(0); shift < 64; shift += 8 {
		if byte((some&^every)>>shift) != 0 {
			shifts = append(shifts, shift)
		}
	}
	var count [8][256]int
	for i := 0; i < n; i++ {
		for d, shift := range shifts {
			count[d][byte(keys[i]>>shift)]++
		}
	}
	for d, shift := range shifts {
		pos := 0
		for b, c := range count[d] {
			count[d][b] = pos
			pos += c
		}
		for i := 0; i < n; i++ {
			b := byte(keys[i] >> shift)
			j := count[d][b]
			count[d][b]++
			keysB[j] = keys[i]
			orderB[j] = order[i]
		}
		keys, keysB = keysB, keys
		order, orderB = orderB, order
	}
	return order
}

// grow performs greedy region growing seeded at high-strength vertices,
// returning the raw (non-compacted) assignment and per-id sizes in
// vertices. Both returned slices are arena-backed; callers own them until
// the next grow on the same arena. It polls ctx once every 1,024 clusters
// it starts and returns ctx.Err() once that is non-nil.
//
// The frontier is flat: connection weights accumulate in an epoch-stamped
// per-vertex array (one epoch per seed, so resets are free) and the
// frontier members sit in a shared list, scanned per pick for the maximum
// (weight desc, vertex asc) — the same total order, over the same candidate
// set, as the historical per-seed hash map's iteration, so every pick is
// identical; only the hashing, per-seed allocation, and tombstone deletes
// are gone. Assigned members are skipped in place, exactly like the map's
// deleted keys.
func grow(ctx context.Context, g *Graph, opts PartitionOptions, ar *Arena) ([]int, []int, error) {
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
		if id%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		next++
		part[seed] = id
		size := 1
		ar.growEpoch++
		epoch := ar.growEpoch
		list = list[:0]
		addNeighbors(seed, epoch)
		// normalize keeps TargetSize ≤ MaxSize, so no pick below the
		// target can burst the cap.
		for size < opts.TargetSize {
			best, bestW := -1, -1.0
			for _, v32 := range list {
				v := int(v32)
				if part[v] != -1 {
					continue // already inside some cluster
				}
				if w := connW[v]; w > bestW || (w == bestW && (best == -1 || v < best)) {
					best, bestW = v, w
				}
			}
			if best == -1 {
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
			size++
			addNeighbors(best, epoch)
		}
		sizes = append(sizes, size)
	}
	return part, sizes, nil
}

// mergeSmall folds a cluster grown below MinSize into the neighboring
// cluster it communicates with most (ties to the lower id), or into
// cluster 0 when it has no neighbor. Growth leaves at most one such
// cluster, the last it started: it pulls in any unassigned vertex before a
// cluster stops short of TargetSize (≥ MinSize), so only a cluster that
// ran out of vertices can. Every other cluster holds exactly TargetSize
// vertices, so MaxSize cannot tell the candidates apart: the merge fits
// for all or for none, and then exceeds it — the paper treats MinSize
// (reliability) as the hard bound and MaxSize (restart cost) as the soft
// one. It relabels part and moves the size.
func mergeSmall(g *Graph, part []int, sizes []int, opts PartitionOptions, ar *Arena) {
	small := len(sizes) - 1
	if small < 1 || sizes[small] >= opts.MinSize {
		return // nothing undersized, or nothing to merge with
	}
	// conn[id] is the small cluster's connection weight to cluster id;
	// -Inf marks a cluster it has no edge to.
	conn := ar.growW[:small]
	for id := range conn {
		conn[id] = math.Inf(-1)
	}
	for v, id := range part {
		if id != small {
			continue
		}
		cols, ws := g.row(v)
		for i, c := range cols {
			if to := part[c]; to != small {
				if conn[to] == math.Inf(-1) {
					conn[to] = ws[i]
				} else {
					conn[to] += ws[i]
				}
			}
		}
	}
	target := 0
	for id, w := range conn {
		if w > conn[target] {
			target = id
		}
	}
	for v, id := range part {
		if id == small {
			part[v] = target
		}
	}
	sizes[target] += sizes[small]
	sizes[small] = 0
}

// refineState is the refinement's working state: the gain cache and move
// stamps carved from the arena, and the size bounds. refine keeps it on its
// own stack, so a reused arena never pins a finished graph.
type refineState struct {
	g     *Graph
	part  []int
	sizes []int

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
	if rs.sizes[from]-1 < rs.minSize {
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
		if rs.maxSize != 0 && rs.sizes[id]+1 > rs.maxSize {
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
	rs.part[v] = to
	rs.sizes[from]--
	rs.sizes[to]++
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
// path hand-inlined over int offsets: it visits every edge once per build.
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
// than the moves it served on 100k-vertex graphs. The arrays come from the
// arena, so a held arena refines without allocating. Sizes count vertices.
func refine(ctx context.Context, g *Graph, part []int, sizes []int, opts PartitionOptions, ar *Arena) {
	n := g.N()
	nnz := g.rowptr[n]
	rs := refineState{
		g: g, part: part, sizes: sizes,
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
	for pass := 0; pass < opts.refinePasses; pass++ {
		if ctx.Err() != nil {
			// Abandon mid-refinement: the caller polls ctx itself and
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
