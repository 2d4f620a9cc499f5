package hierclust

import (
	"hierclust/internal/checkpoint"
	"hierclust/internal/hybrid"
	"hierclust/internal/storage"
	"hierclust/internal/tsunami"
)

// The execution layer: the substrates a clustering decision drives at run
// time — multi-level checkpointing, the hybrid rollback-recovery protocol,
// and the traced stencil application used throughout the paper.
type (
	// CheckpointLevel identifies a protection level (L1 local SSD …
	// L4 parallel file system).
	CheckpointLevel = checkpoint.Level
	// CheckpointManager orchestrates multi-level checkpoints.
	CheckpointManager = checkpoint.Manager
	// ClusterStore simulates the machine's storage hierarchy (node-local
	// SSDs plus the parallel file system) with failure injection.
	ClusterStore = storage.Cluster
	// HybridApp is the send-deterministic iterative application contract
	// the hybrid protocol drives.
	HybridApp = hybrid.App
	// HybridConfig assembles a protocol instance from a placement and a
	// clustering decision.
	HybridConfig = hybrid.Config
	// HybridRunner executes a HybridApp under the hybrid protocol.
	HybridRunner = hybrid.Runner
	// HybridReport summarizes a protected run.
	HybridReport = hybrid.Report
	// TsunamiParams configures the shallow-water stencil application.
	TsunamiParams = tsunami.Params
	// TsunamiSource is the initial Gaussian displacement.
	TsunamiSource = tsunami.Source
	// TsunamiApp is the stencil application wired for the hybrid
	// protocol (snapshot/restore per rank).
	TsunamiApp = tsunami.FTApp
	// TracedTsunamiOptions configures a traced execution of the stencil:
	// its world layout, iterations, checkpoint rounds and Tracer.
	TracedTsunamiOptions = tsunami.TracedOptions
)

// L3Encoded is the Reed–Solomon group-encoded checkpoint level.
const L3Encoded = checkpoint.L3Encoded

// NewClusterStore builds the simulated storage hierarchy for a machine.
func NewClusterStore(m *Machine) *ClusterStore { return storage.NewCluster(m) }

// NewCheckpointManager creates a multi-level checkpoint manager over the
// given encoding groups (the L2 clusters of a hierarchical clustering).
func NewCheckpointManager(store *ClusterStore, p *Placement, groups [][]Rank) (*CheckpointManager, error) {
	return checkpoint.New(store, p, groups)
}

// CheckpointUnrecoverable reports whether err means no surviving level
// could restore a rank — the catastrophic failure of the reliability
// dimension.
func CheckpointUnrecoverable(err error) bool { return checkpoint.Unrecoverable(err) }

// NewHybridRunner validates the configuration and builds a protocol runner.
func NewHybridRunner(cfg HybridConfig, app HybridApp) (*HybridRunner, error) {
	return hybrid.NewRunner(cfg, app)
}

// DefaultTsunamiParams returns a stable mid-size simulation configuration.
func DefaultTsunamiParams(ranks int) TsunamiParams { return tsunami.DefaultParams(ranks) }

// TsunamiTraceParams returns the tracing grid the reproduction rigs use —
// thin slabs whose ghost exchange dominates the trace like the paper's
// real domain.
func TsunamiTraceParams(ranks int) TsunamiParams { return tsunami.TraceParams(ranks) }

// NewTsunamiApp builds the stencil application for a protected run.
func NewTsunamiApp(p TsunamiParams) (*TsunamiApp, error) { return tsunami.NewFTApp(p) }

// TraceTsunami feeds the options' Tracer every message of the traced
// stencil execution — its message schedule, which does not depend on the
// solver's values, so the solver does not run.
func TraceTsunami(o TracedTsunamiOptions) error { return tsunami.Schedule(o) }
