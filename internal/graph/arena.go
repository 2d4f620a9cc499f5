package graph

import "sync"

// The partition arena: every scratch buffer the partitioning pipeline needs,
// sized once from the finest-level graph and resliced for each coarser level.
// Before the arena, the multilevel path re-allocated its matching slots,
// contraction staging rows, refinement gain caches, and per-seed frontier
// maps at every level of the ladder — the dominant allocation sites of the
// partition profile. Arenas are recycled through a sync.Pool across
// Partition calls (the scaling pipeline partitions node graphs of one shape
// over and over), so steady state allocates nothing but the returned
// assignment and the per-level coarse CSR carvings; the public API stays
// stateless.
//
// Buffers are carved from a handful of typed slabs (one allocation each)
// rather than allocated individually. A few pairs share backing memory
// across phases that can never overlap in time; those aliases are spelled
// out at the field definitions.

// partArena holds the scratch state of one Partition call.
type partArena struct {
	n0   int   // per-vertex buffer capacity (finest level of the sizing graph)
	nnz0 int64 // per-edge buffer capacity

	// --- matching (per level; reused, the level is never wider than n0) ---
	match  []int32 // matched partner per vertex, -1 when single
	cand   []int32 // proposer → chosen acceptor
	accept []int32 // acceptor → chosen proposer
	candW  []float64
	// state holds each vertex's per-round role in the low two bits
	// (0 acceptor, 1 proposer, 2 matched, 3 never-matchable) and, on
	// weighted levels with a six-bit-sized cap, its weight above them.
	state []uint8
	// workP/workA are the rounds' unmatched proposer/acceptor lists (ping);
	// work2/work are their pong buffers.
	workP []int32
	workA []int32
	work  []int32
	work2 []int32
	// acceptRound stamps accept[v] entries with the round that wrote them,
	// so the rounds never pay a reset pass. The counter never rewinds
	// within an arena lifetime (see reset).
	acceptRound []int32
	matchRound  int32

	// --- contraction (after matching within a level; mem1/mem2/cnt are
	// distinct from the matching buffers because match must stay live) ---
	mem1, mem2 []int32 // constituent fine vertices per coarse vertex
	cnt        []int32 // coalesced row lengths
	capPtr     []int64 // capacity-row prefix sums

	// --- greedy growth (coarsest graph / single level) ---
	order     []int    // seed order
	orderB    []int    // radix-sort ping-pong
	keysA     []uint64 // radix-sort keys
	keysB     []uint64
	growPart  []int     // raw assignment under construction
	growSizes []int     // per-cluster weights (append-grown, capacity n0)
	growW     []float64 // epoch-stamped frontier connection weights
	growStamp []int32
	growEpoch int32
	growList  []int32 // current seed's frontier members

	// --- small-cluster merge (weighted path) ---
	head, tail []int32 // cluster member lists
	next       []int32
	parent     []int32 // cluster union-find
	queue      []int32 // under-MinSize work queue (capacity 2·n0)
	mergeW     []float64
	mergeStamp []int32
	touched    []int32
	mergeEpoch int32

	// --- refinement ---
	connID  []int32   // aliases cooCol: contraction staging columns
	connW   []float64 // aliases cooW: contraction staging weights
	connCnt []int32
	connLen []int32
	// nbrTouch/clusterTouch are move stamps recording when a vertex's gain
	// span or a cluster's size last changed; lastEval records when a vertex
	// last evaluated to "no move". Together they let converged sweeps skip
	// re-deciding vertices whose inputs cannot have changed.
	nbrTouch     []int32
	clusterTouch []int32
	lastEval     []int32

	// --- projection ---
	projA, projB []int // ping-pong assignment buffers
	sizesBuf     []int // per-level cluster weights

	// --- per-level persistent carving ---
	ints slab[int]     // coarse vertex weights
	i64s slab[int64]   // coarse rowptr
	i32s slab[int32]   // cmap + coarse columns
	f64s slab[float64] // coarse weights + strengths
}

// slab carves exact-size slices from a chunked backing buffer, so the
// hierarchy's persistent per-level arrays (which must all stay live through
// projection and therefore cannot share one reusable buffer) still cost
// O(1) allocations instead of O(levels × arrays). Resetting rewinds the
// offset: the previous Partition call's carvings are dead by then.
type slab[T any] struct {
	full  []T
	off   int
	chunk int
}

func (s *slab[T]) take(k int) []T {
	if s.off+k > len(s.full) {
		n := s.chunk
		if n < k {
			n = k
		}
		// Carvings from the replaced buffer stay alive through their own
		// references; only future takes use the new one.
		s.full = make([]T, n)
		s.off = 0
	}
	out := s.full[s.off : s.off+k : s.off+k]
	s.off += k
	return out
}

var arenaPool sync.Pool

// newPartArena returns an arena big enough for g, reusing a pooled one when
// it fits. Callers hand it back with release.
func newPartArena(g *Graph) *partArena {
	n := g.N()
	nnz := g.rowptr[n]
	if v := arenaPool.Get(); v != nil {
		ar := v.(*partArena)
		if ar.n0 >= n && int64(ar.nnz0) >= nnz {
			ar.reset()
			return ar
		}
		// Too small for this graph; drop it and size a fresh one.
	}
	return buildArena(n, nnz)
}

// release recycles the arena. Nothing returned by Partition aliases arena
// memory (assignments are compacted into fresh slices), so the next call
// may reuse everything.
func (ar *partArena) release() { arenaPool.Put(ar) }

// reset prepares a pooled arena for its next Partition call. Epoch-stamped
// buffers need no clearing — epochs increase monotonically across calls, so
// stale stamps can never collide — until an epoch counter nears overflow,
// when the stamps are wiped and the counter rewinds.
func (ar *partArena) reset() {
	ar.ints.off = 0
	ar.i64s.off = 0
	ar.i32s.off = 0
	ar.f64s.off = 0
	const epochLimit = 1 << 30
	if ar.growEpoch > epochLimit {
		clear(ar.growStamp)
		ar.growEpoch = 0
	}
	if ar.mergeEpoch > epochLimit {
		clear(ar.mergeStamp)
		ar.mergeEpoch = 0
	}
	if ar.matchRound > epochLimit {
		clear(ar.acceptRound)
		ar.matchRound = 0
	}
}

func buildArena(n int, nnz int64) *partArena {
	ar := &partArena{n0: n, nnz0: nnz}

	i32 := make([]int32, 25*n)
	grab32 := func() []int32 { s := i32[:n:n]; i32 = i32[n:]; return s }
	ar.match = grab32()
	ar.cand = grab32()
	ar.accept = grab32()
	ar.work = grab32()
	ar.work2 = grab32()
	ar.workP = grab32()
	ar.workA = grab32()
	ar.mem1 = grab32()
	ar.mem2 = grab32()
	ar.cnt = grab32()
	ar.growStamp = grab32()
	ar.head = grab32()
	ar.tail = grab32()
	ar.next = grab32()
	ar.parent = grab32()
	ar.mergeStamp = grab32()
	ar.touched = grab32()[:0]
	ar.connLen = grab32()
	ar.nbrTouch = grab32()
	ar.clusterTouch = grab32()
	ar.lastEval = grab32()
	ar.acceptRound = grab32()
	ar.growList = grab32()[:0]
	ar.queue = i32[: 0 : 2*n] // bounded by initial smalls + one re-queue per merge

	f64 := make([]float64, 3*n)
	ar.candW, ar.growW, ar.mergeW = f64[:n:n], f64[n:2*n:2*n], f64[2*n:]

	ints := make([]int, 7*n)
	ar.order, ar.orderB = ints[:n:n], ints[n:2*n:2*n]
	ar.growPart = ints[2*n : 3*n : 3*n]
	ar.growSizes = ints[3*n : 3*n : 4*n]
	ar.projA, ar.projB = ints[4*n:5*n:5*n], ints[5*n:6*n:6*n]
	ar.sizesBuf = ints[6*n:]

	keys := make([]uint64, 2*n)
	ar.keysA, ar.keysB = keys[:n:n], keys[n:]

	nnzI32 := make([]int32, 2*nnz)
	ar.connID, ar.connCnt = nnzI32[:nnz:nnz], nnzI32[nnz:]
	ar.connW = make([]float64, nnz)
	ar.state = make([]uint8, n)
	ar.capPtr = make([]int64, n+1)

	// Persistent per-level arrays shrink by at least 10% per level (the
	// coarsening stall bound), so chunks sized from the finest level
	// amortize the whole ladder into a few allocations.
	ar.ints.chunk = 2 * n
	ar.i64s.chunk = n + 1
	ar.i32s.chunk = int(nnz) + 2*n
	ar.f64s.chunk = int(nnz) + n
	return ar
}

// cooCol/cooW are the contraction staging buffers. They share memory with
// the refinement gain cache: every contraction of the ladder completes
// before the first refinement runs, and the single-level path never
// contracts at all.
func (ar *partArena) cooCol(n int64) []int32 { return ar.connID[:n] }
func (ar *partArena) cooW(n int64) []float64 { return ar.connW[:n] }
