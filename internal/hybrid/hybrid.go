// Package hybrid implements the paper's HydEE-style hybrid rollback-recovery
// protocol (reference [13]): checkpoints are coordinated *within* process
// clusters, only *inter-cluster* messages are payload-logged at senders, and
// a failure rolls back exactly the clusters it touches. Surviving clusters
// keep their state; the restarted cluster re-executes from its checkpoint,
// re-receiving inter-cluster messages from sender logs and regenerating
// intra-cluster traffic by deterministic re-execution, while receivers
// outside the cluster suppress the duplicates by sequence number.
//
// The protocol drives a send-deterministic iterative application through
// the App interface — the assumption HydEE makes of MPI HPC codes, and one
// the paper's tsunami stencil satisfies.
package hybrid

import (
	"fmt"
	"sort"
	"time"

	"hierclust/internal/checkpoint"
	"hierclust/internal/msglog"
	"hierclust/internal/storage"
	"hierclust/internal/topology"
)

// Message is one application message within an iteration.
type Message struct {
	// Src and Dest are world ranks.
	Src, Dest int
	// Iter is the iteration the message belongs to.
	Iter int
	// Payload is the body; the runner treats it as opaque.
	Payload []byte
}

// App is a send-deterministic iterative application: Produce and Advance
// must depend only on the rank's restored state (and the inbox), so that
// re-execution from a checkpoint regenerates identical messages — the
// send-determinism HydEE requires.
type App interface {
	// Produce returns the messages rank emits at iteration iter. The
	// runner fills Src and Iter; Dest and Payload come from the app.
	Produce(rank, iter int) ([]Message, error)
	// Advance applies the inbox (sorted by Src) and moves rank from
	// iteration iter to iter+1.
	Advance(rank, iter int, inbox []Message) error
	// Snapshot serializes the rank's state.
	Snapshot(rank int) ([]byte, error)
	// Restore replaces the rank's state from a snapshot.
	Restore(rank int, state []byte) error
}

// Config assembles a protocol instance.
type Config struct {
	// Placement maps ranks to nodes (and exposes the machine).
	Placement *topology.Placement
	// Clusters assigns each rank its L1 cluster id (dense from 0).
	Clusters []int32
	// Groups are the encoding groups (L2 clusters) handed to the
	// checkpoint manager; may be nil when Level < L3.
	Groups [][]topology.Rank
	// CheckpointEvery is the iteration period between coordinated
	// checkpoints (an initial checkpoint is always taken at iteration 0).
	CheckpointEvery int
	// Level is the checkpoint protection level.
	Level checkpoint.Level
}

// FailureEvent describes one handled failure.
type FailureEvent struct {
	// Iter is the iteration boundary where the failure struck.
	Iter int
	// Nodes lists the failed nodes.
	Nodes []topology.NodeID
	// RestartedRanks is the containment cost: how many ranks rolled back.
	RestartedRanks int
	// RestartedFraction is RestartedRanks over world size.
	RestartedFraction float64
	// RestoreLevels counts how many ranks were recovered from each level.
	RestoreLevels map[checkpoint.Level]int
	// ReplayedMessages counts sender-log entries re-delivered.
	ReplayedMessages int
	// SuppressedDuplicates counts re-sent messages dropped at unaffected
	// receivers.
	SuppressedDuplicates int
	// ReExecutedIters is how many iterations the cluster re-ran.
	ReExecutedIters int
	// DecodeWallTime is the measured Reed–Solomon reconstruction time
	// spent restoring this failure's ranks; zero when every rank restored
	// from an intact copy.
	DecodeWallTime time.Duration
}

// Report summarizes a run.
type Report struct {
	Iterations       int
	CheckpointsTaken int
	TotalBytes       int64
	LoggedBytes      int64
	LoggedFraction   float64
	PeakLogBytes     int64
	Failures         []FailureEvent
}

// Runner executes an App under the hybrid protocol.
type Runner struct {
	cfg    Config
	app    App
	nranks int
	mgr    *checkpoint.Manager
	store  *storage.Cluster
	logs   []*msglog.Log
	dedup  []*msglog.Dedup
	epoch  int
	ckptIt int // iteration of the last stable checkpoint
	inbox  [][]Message
	rep    Report
	// snapshots of per-rank cursors taken at the checkpoint line
	seqSnap   []map[int]uint64
	dedupSnap []map[int]uint64
}

// NewRunner validates the configuration and builds a runner on a fresh
// storage cluster of the placement's machine.
func NewRunner(cfg Config, app App) (*Runner, error) {
	if cfg.Placement == nil {
		return nil, fmt.Errorf("hybrid: nil placement")
	}
	n := cfg.Placement.NumRanks()
	if len(cfg.Clusters) != n {
		return nil, fmt.Errorf("hybrid: %d cluster ids for %d ranks", len(cfg.Clusters), n)
	}
	if cfg.CheckpointEvery <= 0 {
		return nil, fmt.Errorf("hybrid: CheckpointEvery %d must be positive", cfg.CheckpointEvery)
	}
	for r, c := range cfg.Clusters {
		if c < 0 {
			return nil, fmt.Errorf("hybrid: rank %d has negative cluster id", r)
		}
	}
	st := storage.NewCluster(cfg.Placement.Machine())
	mgr, err := checkpoint.New(st, cfg.Placement, cfg.Groups)
	if err != nil {
		return nil, err
	}
	run := &Runner{
		cfg: cfg, app: app, nranks: n, mgr: mgr, store: st,
		logs:      make([]*msglog.Log, n),
		dedup:     make([]*msglog.Dedup, n),
		inbox:     make([][]Message, n),
		seqSnap:   make([]map[int]uint64, n),
		dedupSnap: make([]map[int]uint64, n),
	}
	for r := 0; r < n; r++ {
		run.logs[r] = msglog.NewLog()
		run.dedup[r] = msglog.NewDedup()
	}
	return run, nil
}

// interCluster reports whether a message crosses L1 boundaries.
func (ru *Runner) interCluster(src, dest int) bool {
	return ru.cfg.Clusters[src] != ru.cfg.Clusters[dest]
}

// takeCheckpoint coordinates a full checkpoint at iteration it.
func (ru *Runner) takeCheckpoint(it int) error {
	ru.epoch++
	data := make(map[topology.Rank][]byte, ru.nranks)
	for r := 0; r < ru.nranks; r++ {
		blob, err := ru.app.Snapshot(r)
		if err != nil {
			return fmt.Errorf("hybrid: snapshot rank %d: %w", r, err)
		}
		data[topology.Rank(r)] = blob
	}
	if _, err := ru.mgr.Checkpoint(ru.epoch, ru.cfg.Level, data); err != nil {
		return err
	}
	for r := 0; r < ru.nranks; r++ {
		ru.seqSnap[r] = ru.logs[r].SeqSnapshot()
		ru.dedupSnap[r] = ru.dedup[r].Snapshot()
	}
	ru.ckptIt = it
	ru.rep.CheckpointsTaken++
	// Every cluster now has a stable checkpoint of this epoch: earlier log
	// entries can never be replayed.
	var peak int64
	for r := 0; r < ru.nranks; r++ {
		peak += ru.logs[r].Bytes()
	}
	if peak > ru.rep.PeakLogBytes {
		ru.rep.PeakLogBytes = peak
	}
	for r := 0; r < ru.nranks; r++ {
		ru.logs[r].Trim(ru.epoch)
	}
	ru.mgr.GC(ru.epoch)
	return nil
}

// routeNormal produces and delivers all messages of iteration it.
func (ru *Runner) routeNormal(it int) error {
	for r := 0; r < ru.nranks; r++ {
		msgs, err := ru.app.Produce(r, it)
		if err != nil {
			return fmt.Errorf("hybrid: produce rank %d iter %d: %w", r, it, err)
		}
		for _, msg := range msgs {
			if msg.Dest < 0 || msg.Dest >= ru.nranks {
				return fmt.Errorf("hybrid: rank %d sent to invalid rank %d", r, msg.Dest)
			}
			msg.Src, msg.Iter = r, it
			var seq uint64
			if ru.interCluster(r, msg.Dest) {
				e := ru.logs[r].Append(msg.Dest, int64(it), ru.epoch, msg.Payload)
				seq = e.Seq
				ru.rep.LoggedBytes += int64(len(msg.Payload))
			} else {
				seq = ru.logs[r].Advance(msg.Dest)
			}
			ru.rep.TotalBytes += int64(len(msg.Payload))
			ok, err := ru.dedup[msg.Dest].Accept(r, seq)
			if err != nil {
				return err
			}
			if ok {
				ru.inbox[msg.Dest] = append(ru.inbox[msg.Dest], msg)
			}
		}
	}
	return nil
}

// advanceAll applies inboxes and steps every rank once.
func (ru *Runner) advanceAll(it int) error {
	for r := 0; r < ru.nranks; r++ {
		inbox := ru.inbox[r]
		sort.SliceStable(inbox, func(i, j int) bool { return inbox[i].Src < inbox[j].Src })
		if err := ru.app.Advance(r, it, inbox); err != nil {
			return fmt.Errorf("hybrid: advance rank %d iter %d: %w", r, it, err)
		}
		ru.inbox[r] = nil
	}
	return nil
}
