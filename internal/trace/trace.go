// Package trace records and analyzes communication matrices — who sent how
// many bytes to whom — the raw material of every clustering decision in the
// paper. The paper instruments MPICH2 to collect this matrix for the tsunami
// application (Figs. 5a/5b); here a Recorder plugs into simmpi's Tracer hook
// and freezes into the same artifact.
//
// Two forms are what the pipeline stores and folds: the sparse CSR (O(n +
// nnz) memory — every recorded, cached and file trace) and the implicit
// Stencil (a synthetic trace in closed form, O(1) memory). A CSR serializes
// to the HCTR binary format via WriteTo, and ReadCSR is its one reader. Both
// forms are immutable by type: every consumer (partitioning, evaluation,
// caching) only reads, so one trace may back any number of concurrent
// evaluations. This immutability is a pinned repository invariant; the trace
// cache in pkg/hierclust depends on it.
//
// One accumulator, per-rank hash rows, builds every CSR: behind Recorder
// (a traced or hand-built run) and behind ReadCSR. The figures read the CSR
// too — ASCIIHeatmap, PGM and GridCSV — so there is no dense cell grid.
// Matrix is a deprecated shim over the same accumulator.
package trace

import (
	"context"

	"hierclust/internal/graph"
	"hierclust/internal/topology"
)

// Comm is the read-side view of a communication matrix: exactly what the
// clustering pipeline reads (totals, the logged fraction, the node-graph
// fold) without committing callers to a storage layout. The sparse CSR and
// the implicit Stencil implement it over one set of folds (rows.go); the
// deprecated Matrix shim answers from a freeze to CSR. ToGraph stays a
// method of CSR.
type Comm interface {
	// Ranks returns the number of ranks the matrix covers.
	Ranks() int
	// TotalBytes returns the total traffic volume.
	TotalBytes() int64
	// TotalMsgs returns the total message count.
	TotalMsgs() int64
	// LoggedFraction returns the share of TotalBytes crossing cluster
	// boundaries under part (0 for an empty trace).
	LoggedFraction(part []int32) (float64, error)
	// NodeGraph aggregates the rank matrix under a placement and returns
	// the undirected node-based graph the L1 partitioner consumes.
	NodeGraph(p *topology.Placement) (*graph.Graph, error)
}

// NodeGraphInto is m.NodeGraph with the graph and the fold's scratch carved
// from ar, so the graph lives until ar's next Reset and the fold allocates
// nothing of its own. ctx.Err() is polled every 4,096 node rows of the fold;
// once it is non-nil, NodeGraphInto returns it. Any other Comm (the Matrix
// shim, or one from outside this package) builds its graph with its own
// NodeGraph, unpolled.
func NodeGraphInto(ctx context.Context, m Comm, p *topology.Placement, ar *graph.Arena) (*graph.Graph, error) {
	switch m := m.(type) {
	case *CSR:
		return nodeGraph(ctx, m.view(), p, ar)
	case *Stencil:
		return m.nodeGraph(ctx, p, ar)
	}
	return m.NodeGraph(p)
}

// Matrix is a hand-built trace: Add accumulates into the per-rank hash rows
// a Recorder keeps, and the Comm questions are answered from a freeze to
// CSR. It has no cells of its own; memory follows ranks and distinct pairs.
//
// Deprecated: use NewRecorder, Record and Freeze. Matrix exists only because
// the gate benchmark (benchmarks/hcbench) builds its hybrid-recovery ring
// with NewMatrix; it goes when hcbench moves to NewRecorder.
type Matrix struct {
	b *sparseBuilder
}

var _ Comm = (*Matrix)(nil)

// NewMatrix returns an empty matrix for n ranks.
//
// Deprecated: use NewRecorder.
func NewMatrix(n int) *Matrix { return &Matrix{b: newSparseBuilder(n)} }

// Ranks returns the number of ranks the matrix covers.
func (m *Matrix) Ranks() int { return m.b.n }

// Add accumulates one message of the given size.
func (m *Matrix) Add(src, dst int, bytes int64) error { return m.b.add(src, dst, bytes) }

// TotalBytes returns the total traffic volume.
func (m *Matrix) TotalBytes() int64 { return m.b.totalBytes }

// TotalMsgs returns the total message count.
func (m *Matrix) TotalMsgs() int64 { return m.b.totalMsgs }

// LoggedFraction returns the share of TotalBytes crossing cluster
// boundaries under part, from a freeze.
func (m *Matrix) LoggedFraction(part []int32) (float64, error) {
	return m.b.freeze().LoggedFraction(part)
}

// NodeGraph aggregates under the placement into the undirected node graph,
// from a freeze.
func (m *Matrix) NodeGraph(p *topology.Placement) (*graph.Graph, error) {
	return m.b.freeze().NodeGraph(p)
}
