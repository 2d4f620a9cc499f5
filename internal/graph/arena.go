package graph

// The build arena: every buffer one hierarchical build needs between the
// trace and the clustering it returns — the finest-level node graph a trace
// fold carves into it, the partitioner's scratch, the coarse levels of the
// multilevel ladder, and the compacted assignment — none of them fresh
// arrays per build or per level. An arena is reused by whoever holds it
// (the pipeline builds node graphs of one shape over and over, each in an
// arena it lends for the build), so a build of a shape the arena has served
// allocates nothing here; what the caller keeps it copies out. Scratch
// buffers are carved from a handful of typed allocations; a few share
// backing memory across phases that never overlap in time, spelled out at
// the field definitions.

// Arena holds the memory of one build, for one goroutine at a time. The zero
// value is an empty arena; Reset rewinds it for the next build, after which
// nothing carved from it earlier may be read. A nil *Arena is the heap: its
// carving methods allocate memory the caller owns, so one fold serves both
// an arena's build and the caller-owned wrapper Comm.NodeGraph.
type Arena struct {
	n0   int   // per-vertex scratch capacity
	nnz0 int64 // per-edge scratch capacity

	// --- matching (per level; reused, the level is never wider than n0) ---
	match  []int32 // matched partner per vertex, -1 when single
	cand   []int32 // proposer → chosen acceptor; compact's remap after the last level
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

	// --- carving: arrays that stay live past the phase that wrote them —
	// the finest-level graph, every coarse level (all live through
	// projection), the assignment, and what the caller carves ---
	ints slab[int]     // coarse vertex weights
	i64s slab[int64]   // rowptrs
	i32s slab[int32]   // columns, cmap, the assignment
	f64s slab[float64] // weights + strengths
}

// slab carves exact-size slices from a few backing buffers, so the arrays
// of one build that must all stay live at once cost O(1) allocations
// instead of O(levels × arrays). It keeps every buffer it has allocated and
// resetting rewinds to the first (the previous build's carvings are dead by
// then), so a build that carves what an earlier one carved, in the same
// order, fits the same buffers and allocates nothing.
type slab[T any] struct {
	bufs [][]T
	cur  int // buffer being carved
	off  int // carved prefix of bufs[cur]
	used int // elements carved since the last reset
	want int // elements one build is expected to carve (see reserve)
}

func (s *slab[T]) take(k int) []T {
	for s.cur < len(s.bufs) && s.off+k > len(s.bufs[s.cur]) {
		s.cur, s.off = s.cur+1, 0
	}
	if s.cur == len(s.bufs) {
		s.bufs = append(s.bufs, make([]T, max(k, s.want-s.used)))
	}
	s.used += k
	out := s.bufs[s.cur][s.off : s.off+k : s.off+k]
	s.off += k
	return out
}

// reserve announces that this build will carve about k more elements, so a
// miss allocates room for them at once rather than take by take.
func (s *slab[T]) reserve(k int) { s.want = max(s.want, s.used+k) }

func (s *slab[T]) reset() {
	s.want = max(s.want, s.used)
	s.cur, s.off, s.used = 0, 0, 0
}

// Reset prepares the arena for its next build: every graph, assignment and
// slice carved from it is dead from here on. Epoch-stamped buffers need no
// clearing — epochs increase monotonically across builds, so stale stamps
// can never collide — until an epoch counter nears overflow, when the
// stamps are wiped and the counter rewinds.
func (ar *Arena) Reset() {
	ar.ints.reset()
	ar.i64s.reset()
	ar.i32s.reset()
	ar.f64s.reset()
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

// fit grows the scratch to serve a graph of n vertices and nnz entries.
// Growth only ever widens, so a reused arena converges on the largest shape
// it serves. Scratch is dead between phases, so a regrown buffer starts
// empty; fresh stamp arrays are zero, below every epoch already issued.
func (ar *Arena) fit(n int, nnz int64) {
	if nnz > ar.nnz0 {
		ar.nnz0 = nnz
		nnzI32 := make([]int32, 2*nnz)
		ar.connID, ar.connCnt = nnzI32[:nnz:nnz], nnzI32[nnz:]
		ar.connW = make([]float64, nnz)
	}
	if n <= ar.n0 {
		return
	}
	ar.n0 = n
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

	ar.state = make([]uint8, n)
	ar.capPtr = make([]int64, n+1)
}

// Int64s, Int32s and Float64s carve a k-entry slice, capped at its own
// length so an append cannot reach the next carving. The contents are
// undefined (zero from a nil arena): the caller writes before it reads.
func (ar *Arena) Int64s(k int) []int64 {
	if ar == nil {
		return make([]int64, k)
	}
	return ar.i64s.take(k)
}

// Int32s carves k int32s; see Int64s.
func (ar *Arena) Int32s(k int) []int32 {
	if ar == nil {
		return make([]int32, k)
	}
	return ar.i32s.take(k)
}

// Float64s carves k float64s; see Int64s.
func (ar *Arena) Float64s(k int) []float64 {
	if ar == nil {
		return make([]float64, k)
	}
	return ar.f64s.take(k)
}

// cooCol/cooW are the contraction staging buffers. They share memory with
// the refinement gain cache: every contraction of the ladder completes
// before the first refinement runs, and the single-level path never
// contracts at all.
func (ar *Arena) cooCol(n int64) []int32 { return ar.connID[:n] }
func (ar *Arena) cooW(n int64) []float64 { return ar.connW[:n] }
