// Package trace records and analyzes communication matrices — who sent how
// many bytes to whom — the raw material of every clustering decision in the
// paper. The paper instruments MPICH2 to collect this matrix for the tsunami
// application (Figs. 5a/5b); here a Recorder plugs into simmpi's Tracer hook
// and produces the same artifact.
//
// Three sources implement the shared Comm read interface: the dense Matrix
// (natural for heatmaps and submatrix zooms), the sparse CSR (O(n + nnz)
// memory, the layout recorded and file traces use at 100k+ ranks) and the
// implicit Stencil (a synthetic trace in closed form, O(1) memory). All
// serialize to the same HCTR binary format via WriteTo, and ReadCSR reads
// any of them. A frozen matrix — a CSR, a Stencil, or a Matrix once
// recording ends — is immutable: every consumer (partitioning, evaluation, caching) only
// reads, so one trace may back any number of concurrent evaluations. This
// immutability is a pinned repository invariant; the trace cache in
// pkg/hierclust depends on it.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hierclust/internal/graph"
	"hierclust/internal/topology"
)

// Comm is the read-side view of a communication matrix shared by the dense
// Matrix, the sparse CSR and the implicit Stencil: exactly what the
// clustering pipeline reads through the interface (totals, the logged
// fraction, the node-graph fold) without committing callers to a storage
// layout. CutBytes and ToGraph stay methods of the concrete matrix types.
type Comm interface {
	// Ranks returns the number of ranks the matrix covers.
	Ranks() int
	// TotalBytes returns the total traffic volume.
	TotalBytes() int64
	// TotalMsgs returns the total message count.
	TotalMsgs() int64
	// LoggedFraction returns the share of TotalBytes crossing cluster
	// boundaries under part (0 for an empty trace).
	LoggedFraction(part []int) (float64, error)
	// NodeGraph aggregates the rank matrix under a placement and returns
	// the undirected node-based graph the L1 partitioner consumes.
	NodeGraph(p *topology.Placement) (*graph.Graph, error)
}

// Matrix is a dense communication matrix: Bytes[s][d] counts payload bytes
// sent from rank s to rank d, Msgs[s][d] counts messages. Matrices are
// directed; use Symmetrize or ToGraph for undirected views.
//
// Mutate cells through Add (or the in-package helpers), not by writing the
// exported slices directly: TotalBytes/TotalMsgs are maintained as running
// totals rather than rescanning the n×n array per call.
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

// setCell overwrites one cell, keeping the running totals consistent. All
// in-package writers that bypass Add (deserialization, submatrix extraction,
// node aggregation) must go through it.
func (m *Matrix) setCell(src, dst int, bytes, msgs int64) {
	m.totalBytes += bytes - m.Bytes[src][dst]
	m.totalMsgs += msgs - m.Msgs[src][dst]
	m.Bytes[src][dst] = bytes
	m.Msgs[src][dst] = msgs
}

// addCell accumulates into one cell, keeping the running totals consistent.
func (m *Matrix) addCell(src, dst int, bytes, msgs int64) {
	m.Bytes[src][dst] += bytes
	m.Msgs[src][dst] += msgs
	m.totalBytes += bytes
	m.totalMsgs += msgs
}

// TotalBytes returns the total traffic volume.
func (m *Matrix) TotalBytes() int64 { return m.totalBytes }

// TotalMsgs returns the total message count.
func (m *Matrix) TotalMsgs() int64 { return m.totalMsgs }

// CutBytes returns the bytes crossing cluster boundaries under part
// (part[r] = cluster of rank r) — exactly the volume a hybrid protocol
// with those clusters must log.
func (m *Matrix) CutBytes(part []int) (int64, error) {
	if len(part) != m.N {
		return 0, fmt.Errorf("trace: assignment has %d entries for %d ranks", len(part), m.N)
	}
	var cut int64
	for s := 0; s < m.N; s++ {
		for d, b := range m.Bytes[s] {
			if b != 0 && part[s] != part[d] {
				cut += b
			}
		}
	}
	return cut, nil
}

// LoggedFraction returns CutBytes/TotalBytes, the paper's "message logging
// overhead" metric. A matrix with no traffic logs nothing (0).
func (m *Matrix) LoggedFraction(part []int) (float64, error) {
	total := m.TotalBytes()
	if total == 0 {
		return 0, nil
	}
	cut, err := m.CutBytes(part)
	if err != nil {
		return 0, err
	}
	return float64(cut) / float64(total), nil
}

// ToGraph converts the matrix to an undirected weighted graph (summing both
// directions), the input of the partitioner.
func (m *Matrix) ToGraph() *graph.Graph {
	g := graph.New(m.N)
	for s := 0; s < m.N; s++ {
		for d := s; d < m.N; d++ {
			w := float64(m.Bytes[s][d])
			if d != s {
				w += float64(m.Bytes[d][s])
			}
			if w > 0 {
				_ = g.AddEdge(s, d, w)
			}
		}
	}
	return g
}

// NodeMatrix aggregates the rank matrix into a node-based matrix under a
// placement: entry (a,b) sums traffic from ranks on node a to ranks on node
// b. The paper's L1 partitioning runs on this aggregated view so that all
// processes of a node land in one cluster.
func (m *Matrix) NodeMatrix(p *topology.Placement) (*Matrix, error) {
	if p.NumRanks() != m.N {
		return nil, fmt.Errorf("trace: placement has %d ranks, matrix %d", p.NumRanks(), m.N)
	}
	used := p.UsedNodes()
	nm := NewMatrix(len(used))
	for s := 0; s < m.N; s++ {
		ns := p.UsedIndex(p.NodeOf(topology.Rank(s)))
		for d, b := range m.Bytes[s] {
			if b == 0 {
				continue
			}
			nm.addCell(ns, p.UsedIndex(p.NodeOf(topology.Rank(d))), b, m.Msgs[s][d])
		}
	}
	return nm, nil
}

// NodeGraph aggregates the rank matrix under the placement and returns the
// undirected node graph (Comm interface; see CSR.NodeGraph for the sparse
// equivalent).
func (m *Matrix) NodeGraph(p *topology.Placement) (*graph.Graph, error) {
	nm, err := m.NodeMatrix(p)
	if err != nil {
		return nil, err
	}
	return nm.ToGraph(), nil
}

// Recorder is a concurrency-safe simmpi.Tracer accumulating into a Matrix.
type Recorder struct {
	mu sync.Mutex
	m  *Matrix
}

// NewRecorder returns a recorder for n ranks.
func NewRecorder(n int) *Recorder {
	return &Recorder{m: NewMatrix(n)}
}

// Record implements simmpi.Tracer. Out-of-range ranks are ignored rather
// than failing mid-run; the matrix dimension is fixed at creation.
func (r *Recorder) Record(src, dst, bytes int) {
	r.mu.Lock()
	_ = r.m.Add(src, dst, int64(bytes))
	r.mu.Unlock()
}

// Matrix returns the accumulated matrix. Callers must not race this with
// an active run.
func (r *Recorder) Matrix() *Matrix { return r.m }

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

// TopPairs returns the k heaviest directed rank pairs, descending by bytes;
// useful when inspecting a trace's dominant pattern.
type Pair struct {
	Src, Dst int
	Bytes    int64
}

// TopPairs returns up to k heaviest sender→receiver pairs.
func (m *Matrix) TopPairs(k int) []Pair {
	var pairs []Pair
	for s := 0; s < m.N; s++ {
		for d, b := range m.Bytes[s] {
			if b > 0 {
				pairs = append(pairs, Pair{s, d, b})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Bytes != pairs[j].Bytes {
			return pairs[i].Bytes > pairs[j].Bytes
		}
		if pairs[i].Src != pairs[j].Src {
			return pairs[i].Src < pairs[j].Src
		}
		return pairs[i].Dst < pairs[j].Dst
	})
	if len(pairs) > k {
		pairs = pairs[:k]
	}
	return pairs
}
