// Package trace records and analyzes communication matrices — who sent how
// many bytes to whom — the raw material of every clustering decision in the
// paper. The paper instruments MPICH2 to collect this matrix for the tsunami
// application (Figs. 5a/5b); here a Recorder plugs into simmpi's Tracer hook
// and freezes into the same artifact.
//
// Two forms are what the pipeline stores and folds: the sparse CSR (O(n +
// nnz) memory — every recorded, cached and file trace) and the implicit
// Stencil (a synthetic trace in closed form, O(1) memory). Both serialize to
// the HCTR binary format via WriteTo, and ReadCSR is its one reader. Both
// are immutable by type: every consumer (partitioning, evaluation, caching)
// only reads, so one trace may back any number of concurrent evaluations.
// This immutability is a pinned repository invariant; the trace cache in
// pkg/hierclust depends on it.
//
// Matrix is the dense n×n cell grid for figures (heatmaps, the grid CSV)
// and hand-built input. It answers the Comm questions by converting
// (ToCSR), so there is one fold per question, not one per layout.
package trace

import (
	"fmt"
	"strings"

	"hierclust/internal/graph"
	"hierclust/internal/topology"
)

// Comm is the read-side view of a communication matrix: exactly what the
// clustering pipeline reads (totals, the logged fraction, the node-graph
// fold) without committing callers to a storage layout. The sparse CSR and
// the implicit Stencil implement it over one set of folds (rows.go); the
// dense Matrix is a Comm by conversion to CSR. CutBytes and ToGraph stay
// methods of CSR.
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
// from ar, so the graph lives until ar's Release and the fold allocates
// nothing of its own (a Matrix still converts to CSR on the heap). A Comm
// from outside this package builds its graph with its own NodeGraph.
func NodeGraphInto(m Comm, p *topology.Placement, ar *graph.Arena) (*graph.Graph, error) {
	switch m := m.(type) {
	case *CSR:
		return nodeGraph(m.view(), p, ar)
	case *Stencil:
		return nodeGraph(m.view(new([4]int32)), p, ar)
	case *Matrix:
		return nodeGraph(m.ToCSR().view(), p, ar)
	}
	return m.NodeGraph(p)
}

// Matrix is a dense communication matrix: Bytes[s][d] counts payload bytes
// sent from rank s to rank d, Msgs[s][d] counts messages. Matrices are
// directed; ToCSR().ToGraph() is the undirected view.
//
// Mutate cells through Add, not by writing the exported slices directly:
// TotalBytes/TotalMsgs are maintained as running totals rather than
// rescanning the n×n array per call.
type Matrix struct {
	N     int
	Bytes [][]int64
	Msgs  [][]int64

	totalBytes int64
	totalMsgs  int64
}

var _ Comm = (*Matrix)(nil)

// NewMatrix returns an all-zero n×n matrix.
func NewMatrix(n int) *Matrix {
	m := &Matrix{N: n, Bytes: make([][]int64, n), Msgs: make([][]int64, n)}
	for i := 0; i < n; i++ {
		m.Bytes[i] = make([]int64, n)
		m.Msgs[i] = make([]int64, n)
	}
	return m
}

// Ranks returns the number of ranks the matrix covers.
func (m *Matrix) Ranks() int { return m.N }

// Add accumulates one message of the given size.
func (m *Matrix) Add(src, dst int, bytes int64) error {
	if src < 0 || src >= m.N || dst < 0 || dst >= m.N {
		return fmt.Errorf("trace: message %d->%d outside %d-rank matrix", src, dst, m.N)
	}
	m.Bytes[src][dst] += bytes
	m.Msgs[src][dst]++
	m.totalBytes += bytes
	m.totalMsgs++
	return nil
}

// TotalBytes returns the total traffic volume.
func (m *Matrix) TotalBytes() int64 { return m.totalBytes }

// TotalMsgs returns the total message count.
func (m *Matrix) TotalMsgs() int64 { return m.totalMsgs }

// LoggedFraction returns the share of TotalBytes crossing cluster boundaries
// under part, through the CSR fold.
func (m *Matrix) LoggedFraction(part []int32) (float64, error) {
	return m.ToCSR().LoggedFraction(part)
}

// NodeGraph aggregates the rank matrix under the placement and returns the
// undirected node graph, through the CSR fold.
func (m *Matrix) NodeGraph(p *topology.Placement) (*graph.Graph, error) {
	return m.ToCSR().NodeGraph(p)
}

// CSV renders the byte matrix as comma-separated values (one row per
// sender), suitable for external plotting of Figs. 5a/5b.
func (m *Matrix) CSV() string {
	var sb strings.Builder
	for s := 0; s < m.N; s++ {
		for d := 0; d < m.N; d++ {
			if d > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", m.Bytes[s][d])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
