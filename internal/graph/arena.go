package graph

// The build arena: every buffer one hierarchical build needs between the
// trace and the clustering it returns — the node graph a trace fold carves
// into it, the partitioner's scratch, and the compacted assignment — none
// of them fresh arrays per build. An arena is reused by whoever holds it
// (the pipeline builds node graphs of one shape over and over, each in an
// arena it lends for the build), so a build of a shape the arena has served
// allocates nothing here; what the caller keeps it copies out. Scratch
// buffers are carved from a handful of typed allocations.

// Arena holds the memory of one build, for one goroutine at a time. The zero
// value is an empty arena; Reset rewinds it for the next build, after which
// nothing carved from it earlier may be read. A nil *Arena is the heap: its
// carving methods allocate memory the caller owns, so one fold serves both
// an arena's build and the caller-owned wrapper Comm.NodeGraph.
type Arena struct {
	n0   int   // per-vertex scratch capacity
	nnz0 int64 // per-edge scratch capacity

	// --- greedy growth ---
	order     []int    // seed order
	orderB    []int    // radix-sort ping-pong
	keysA     []uint64 // radix-sort keys
	keysB     []uint64
	growPart  []int // raw assignment under construction
	growSizes []int // per-cluster sizes (append-grown, capacity n0)
	// growW holds the epoch-stamped frontier connection weights, and
	// after growth the small-cluster merge's (growth stamps an entry
	// before it reads one, so the merge's leftovers are never read).
	growW     []float64
	growStamp []int32
	growEpoch int32
	growList  []int32 // current seed's frontier members

	// --- refinement ---
	connID  []int32
	connW   []float64
	connCnt []int32
	connLen []int32
	// nbrTouch/clusterTouch are move stamps recording when a vertex's gain
	// span or a cluster's size last changed; lastEval records when a vertex
	// last evaluated to "no move". Together they let converged sweeps skip
	// re-deciding vertices whose inputs cannot have changed.
	nbrTouch     []int32
	clusterTouch []int32
	lastEval     []int32

	remap []int32 // compact's id table

	// --- carving: arrays that stay live past the phase that wrote them —
	// the node graph, the assignment, and what the caller carves ---
	i64s slab[int64]   // rowptrs
	i32s slab[int32]   // columns, the assignment
	f64s slab[float64] // weights + strengths
}

// slab carves exact-size slices from a few backing buffers, so the arrays
// of one build that must all stay live at once cost O(1) allocations
// instead of one each. It keeps every buffer it has allocated and resetting
// rewinds to the first (the previous build's carvings are dead by then), so
// a build that carves what an earlier one carved, in the same order, fits
// the same buffers and allocates nothing.
type slab[T any] struct {
	bufs [][]T
	cur  int // buffer being carved
	off  int // carved prefix of bufs[cur]
	used int // elements carved since the last reset
	want int // elements the largest build so far carved
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
	ar.i64s.reset()
	ar.i32s.reset()
	ar.f64s.reset()
	const epochLimit = 1 << 30
	if ar.growEpoch > epochLimit {
		clear(ar.growStamp)
		ar.growEpoch = 0
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
	i32 := make([]int32, 7*n)
	grab32 := func() []int32 { s := i32[:n:n]; i32 = i32[n:]; return s }
	ar.remap = grab32()
	ar.growStamp = grab32()
	ar.connLen = grab32()
	ar.nbrTouch = grab32()
	ar.clusterTouch = grab32()
	ar.lastEval = grab32()
	ar.growList = grab32()[:0]

	ar.growW = make([]float64, n)

	ints := make([]int, 4*n)
	ar.order, ar.orderB = ints[:n:n], ints[n:2*n:2*n]
	ar.growPart = ints[2*n : 3*n : 3*n]
	ar.growSizes = ints[3*n : 3*n : 4*n]

	keys := make([]uint64, 2*n)
	ar.keysA, ar.keysB = keys[:n:n], keys[n:]
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
