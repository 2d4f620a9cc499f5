package hierclust

import (
	"hierclust/internal/core"
	"hierclust/internal/erasure"
	"hierclust/internal/reliability"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
)

// The machine/placement layer: the physical structure of an HPC system and
// the mapping of application ranks onto it.
type (
	// Machine describes the fault-relevant physical structure of a
	// cluster: nodes, power-supply pairs, racks, storage bandwidths.
	Machine = topology.Machine
	// Placement maps application ranks to compute nodes.
	Placement = topology.Placement
	// Rank identifies an application process (MPI-style rank).
	Rank = topology.Rank
	// NodeID identifies a compute node within a Machine.
	NodeID = topology.NodeID
)

// The trace layer: who sent how many bytes to whom.
type (
	// Comm is the read-side view of a communication matrix, implemented
	// by the sparse CSR and the implicit stencil a synthetic scenario
	// evaluates.
	Comm = trace.Comm
	// CSR is a frozen sparse communication matrix — the form every
	// recorded, cached and file trace is stored and folded in, and the one
	// the heatmaps draw (ASCIIHeatmap, PGM, GridCSV).
	CSR = trace.CSR
	// TraceRecorder accumulates a message-passing run's traffic; Freeze
	// returns it as a CSR.
	TraceRecorder = trace.Recorder
	// SyntheticOptions tunes generated stencil traces.
	SyntheticOptions = trace.SyntheticOptions
)

// Stencil1D is the synthetic 1-D slab decomposition: rank r exchanges with
// r±1.
const Stencil1D = trace.Stencil1D

// The clustering/evaluation layer: the paper's contribution.
type (
	// Clustering is a complete clustering decision: L1 containment
	// clusters plus L2 erasure-encoding groups.
	Clustering = core.Clustering
	// HierSpec tunes the hierarchical two-level construction; its JSON
	// form is a scenario strategy's "hier" object.
	HierSpec = core.HierOptions
	// Evaluation scores a clustering on the paper's four dimensions.
	Evaluation = core.Evaluation
	// Baseline is the paper's requirement envelope (§III).
	Baseline = core.Baseline
	// Mix is the failure-type distribution of the reliability model.
	Mix = reliability.Mix
)

// NewMachine is not needed: Machine is a plain struct; compose it directly
// or start from Tsubame2.

// Tsubame2 returns the paper's TSUBAME2 machine model (Table I constants).
func Tsubame2() *Machine { return topology.Tsubame2() }

// Block places ranks in consecutive blocks of procsPerNode per node — the
// topology-aware placement of the paper's runs.
func Block(m *Machine, nranks, procsPerNode int) (*Placement, error) {
	return topology.Block(m, nranks, procsPerNode)
}

// NewTraceRecorder returns a concurrency-safe recorder for n ranks,
// pluggable as the Tracer of a traced application run; its memory follows
// the distinct pairs recorded, not n².
func NewTraceRecorder(n int) *TraceRecorder { return trace.NewRecorder(n) }

// SyntheticTrace generates a deterministic stencil communication matrix for
// n ranks directly in sparse form — O(n) memory, no message-passing run.
func SyntheticTrace(n int, opts SyntheticOptions) (*CSR, error) {
	return trace.Synthetic(n, opts)
}

// Naive builds the paper's naive clustering: consecutive-rank clusters at
// the logging/recovery sweet spot, reused as encoding groups.
func Naive(nranks, size int) (*Clustering, error) { return core.Naive(nranks, size) }

// Hierarchical builds the paper's two-level clustering from a communication
// matrix: graph-partitioned L1 containment clusters over the node graph,
// transversal L2 encoding groups inside each.
func Hierarchical(m Comm, p *Placement, opts HierSpec) (*Clustering, error) {
	return core.Hierarchical(m, p, opts)
}

// DefaultMix returns the calibrated failure mix of the paper reproduction.
func DefaultMix() Mix { return reliability.DefaultMix() }

// DefaultBaseline returns the paper's §III requirement envelope.
func DefaultBaseline() Baseline { return core.DefaultBaseline() }

// Evaluate scores a clustering against a communication matrix, a placement,
// and a failure mix on all four dimensions.
func Evaluate(c *Clustering, m Comm, p *Placement, mix Mix) (*Evaluation, error) {
	return core.Evaluate(c, m, p, mix)
}

// RecoveryFraction computes the expected fraction of ranks restarted after
// a uniformly random single-node failure.
func RecoveryFraction(c *Clustering, p *Placement) (float64, error) {
	return core.RecoveryFraction(c, p)
}

// ModelEncodeSeconds returns the modeled Reed–Solomon encode time for one
// group member's bytes at the given group size (the paper-calibrated
// linear-in-k law).
func ModelEncodeSeconds(groupSize int, bytes int64) float64 {
	return erasure.ModelEncodeSeconds(groupSize, bytes)
}

// CompareTable renders evaluations as an aligned Table-II style comparison.
func CompareTable(evals []*Evaluation, b Baseline) string { return core.CompareTable(evals, b) }
