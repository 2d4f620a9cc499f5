package hybrid

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"hierclust/internal/checkpoint"
	"hierclust/internal/msglog"
	"hierclust/internal/topology"
)

// Run executes the application for the given number of iterations, taking
// coordinated checkpoints and handling the injected failures:
// failures[iter] lists nodes that crash at that iteration boundary (before
// the iteration executes). An initial checkpoint is taken at iteration 0.
func (ru *Runner) Run(iterations int, failures map[int][]topology.NodeID) (*Report, error) {
	if iterations < 0 {
		return nil, fmt.Errorf("hybrid: negative iteration count %d", iterations)
	}
	if err := ru.takeCheckpoint(0); err != nil {
		return nil, err
	}
	for it := 0; it < iterations; it++ {
		if nodes := failures[it]; len(nodes) > 0 {
			if err := ru.handleFailure(it, nodes); err != nil {
				return nil, err
			}
		}
		if err := ru.routeNormal(it); err != nil {
			return nil, err
		}
		if err := ru.advanceAll(it); err != nil {
			return nil, err
		}
		if (it+1)%ru.cfg.CheckpointEvery == 0 && it+1 < iterations {
			if err := ru.takeCheckpoint(it + 1); err != nil {
				return nil, err
			}
		}
	}
	ru.rep.Iterations = iterations
	if ru.rep.TotalBytes > 0 {
		ru.rep.LoggedFraction = float64(ru.rep.LoggedBytes) / float64(ru.rep.TotalBytes)
	}
	rep := ru.rep
	return &rep, nil
}

// handleFailure implements failure containment: the nodes crash, the L1
// clusters hosting their ranks roll back to the last coordinated checkpoint
// and re-execute, fed by sender logs; everyone else keeps their state.
func (ru *Runner) handleFailure(it int, nodes []topology.NodeID) error {
	ev := FailureEvent{
		Iter: it, Nodes: append([]topology.NodeID(nil), nodes...),
		RestoreLevels: map[checkpoint.Level]int{},
	}

	// Storage of the failed nodes is lost; the nodes come back empty
	// (replacement hardware or reboot), which is what makes L1-only
	// checkpoints insufficient and L3 encoding valuable.
	for _, n := range nodes {
		if err := ru.store.FailNode(n); err != nil {
			return err
		}
	}
	for _, n := range nodes {
		if err := ru.store.RepairNode(n); err != nil {
			return err
		}
	}

	// Failure containment: restart exactly the clusters touched.
	failedClusters := map[int32]bool{}
	for _, n := range nodes {
		for _, r := range ru.cfg.Placement.RanksOn(n) {
			if int(r) < len(ru.cfg.Clusters) {
				failedClusters[ru.cfg.Clusters[r]] = true
			}
		}
	}
	var restart []topology.Rank
	inRestart := make([]bool, ru.nranks)
	for r := 0; r < ru.nranks; r++ {
		if failedClusters[ru.cfg.Clusters[r]] {
			restart = append(restart, topology.Rank(r))
			inRestart[r] = true
		}
	}
	ev.RestartedRanks = len(restart)
	ev.RestartedFraction = float64(len(restart)) / float64(ru.nranks)

	// Restore state from the cheapest surviving checkpoint level.
	ru.mgr.DrainDecodeTime() // reset so the event sees only this failure
	restored, err := ru.mgr.Restore(ru.epoch, restart)
	if err != nil {
		return fmt.Errorf("hybrid: recovering clusters %v at iter %d: %w", slices.Sorted(maps.Keys(failedClusters)), it, err)
	}
	ev.DecodeWallTime = ru.mgr.DrainDecodeTime()
	for _, re := range restored {
		if err := ru.app.Restore(int(re.Rank), re.Data); err != nil {
			return fmt.Errorf("hybrid: app restore rank %d: %w", re.Rank, err)
		}
		ev.RestoreLevels[re.Level]++
	}
	// Rewind protocol cursors of restarted ranks to the checkpoint line.
	for _, r := range restart {
		ru.logs[r].RestoreSeq(ru.seqSnap[r])
		ru.dedup[r].Restore(ru.dedupSnap[r])
		ru.inbox[r] = nil
	}

	// Pre-fetch replayable inter-cluster messages destined to restarted
	// ranks, remembering the sender (logs are per-sender; entries aren't).
	type replayMsg struct {
		src int
		e   msglog.Entry
	}
	replay := map[int][]replayMsg{}
	for s := 0; s < ru.nranks; s++ {
		if inRestart[s] {
			continue
		}
		for _, d := range ru.logs[s].Dests() {
			if !inRestart[d] {
				continue
			}
			for _, e := range ru.logs[s].Replay(d, ru.dedup[d].Cursor(s)) {
				replay[d] = append(replay[d], replayMsg{src: s, e: e})
			}
		}
	}

	// Re-execute the lost iterations for the restarted cluster(s) only.
	for tt := ru.ckptIt; tt < it; tt++ {
		for _, r := range restart {
			msgs, err := ru.app.Produce(int(r), tt)
			if err != nil {
				return fmt.Errorf("hybrid: re-produce rank %d iter %d: %w", r, tt, err)
			}
			for _, msg := range msgs {
				msg.Src, msg.Iter = int(r), tt
				var seq uint64
				if ru.interCluster(msg.Src, msg.Dest) {
					e := ru.logs[msg.Src].Append(msg.Dest, int64(tt), ru.epoch, msg.Payload)
					seq = e.Seq
				} else {
					seq = ru.logs[msg.Src].Advance(msg.Dest)
				}
				if !inRestart[msg.Dest] {
					// Duplicate of a message the receiver already has.
					ok, err := ru.dedup[msg.Dest].Accept(msg.Src, seq)
					if err != nil {
						return err
					}
					if ok {
						return fmt.Errorf("hybrid: rank %d unexpectedly accepted re-sent message seq %d from %d",
							msg.Dest, seq, msg.Src)
					}
					ev.SuppressedDuplicates++
					continue
				}
				ok, err := ru.dedup[msg.Dest].Accept(msg.Src, seq)
				if err != nil {
					return err
				}
				if ok {
					ru.inbox[msg.Dest] = append(ru.inbox[msg.Dest], msg)
				}
			}
		}
		// Inject the logged inter-cluster messages of this iteration.
		for _, r := range restart {
			for _, rm := range replay[int(r)] {
				if int(rm.e.Tag) != tt {
					continue
				}
				ok, err := ru.dedup[r].Accept(rm.src, rm.e.Seq)
				if err != nil {
					return err
				}
				if ok {
					ru.inbox[r] = append(ru.inbox[r], Message{
						Src: rm.src, Dest: int(r), Iter: tt, Payload: rm.e.Payload,
					})
					ev.ReplayedMessages++
				}
			}
		}
		for _, r := range restart {
			inbox := ru.inbox[r]
			sort.SliceStable(inbox, func(i, j int) bool { return inbox[i].Src < inbox[j].Src })
			if err := ru.app.Advance(int(r), tt, inbox); err != nil {
				return fmt.Errorf("hybrid: re-advance rank %d iter %d: %w", r, tt, err)
			}
			ru.inbox[r] = nil
		}
		ev.ReExecutedIters++
	}

	ru.rep.Failures = append(ru.rep.Failures, ev)
	return nil
}
