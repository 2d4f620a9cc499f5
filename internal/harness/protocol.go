package harness

import (
	"fmt"

	"hierclust/internal/checkpoint"
	"hierclust/internal/core"
	"hierclust/internal/hybrid"
	"hierclust/internal/topology"
	"hierclust/internal/tsunami"
	"hierclust/pkg/hierclust"
)

// Protocol runs the full stack end-to-end — tsunami application, hybrid
// protocol, multi-level checkpointing, real Reed–Solomon — once per
// clustering strategy, injecting a node failure mid-run, and reports what
// each clustering costs in practice: ranks restarted, messages replayed,
// duplicates suppressed, recovery level used, and whether the final state
// matches the failure-free reference bit-for-bit.
//
// This experiment goes beyond the paper's tables: it demonstrates the
// behaviours the paper argues about (size-guided groups dying with their
// node, distributed clusterings restarting everyone) as executable facts.
func Protocol(cfg Config) (*Table, error) {
	cfg.normalize()
	ranks, ppn := 64, 8
	if !cfg.Quick {
		ranks, ppn = 128, 16
	}
	nodes := ranks / ppn
	iters := 20
	ckptEvery := 5
	failAt := 13
	failNode := topology.NodeID(nodes / 2)

	// The traced run of this scale: its placement hosts the protocol, and
	// the hierarchical clustering is built from its matrix.
	r, err := tracedRig(Config{Ranks: ranks, ProcsPerNode: ppn, Iterations: 10, Quick: true})
	if err != nil {
		return nil, err
	}

	// Reference field, failure-free.
	params := tsunami.TraceParams(ranks)
	ref, err := tsunami.NewFTApp(params)
	if err != nil {
		return nil, err
	}
	if err := ref.RunSequential(iters); err != nil {
		return nil, err
	}

	// Clusterings scaled to this rig, built by the strategies a scenario
	// names. The size-guided size equals the node width so each group is
	// co-located — the paper's reliability pathology.
	specs := []hierclust.StrategySpec{
		{Kind: "naive", Size: 2 * ppn}, {Kind: "size-guided", Size: ppn},
		{Kind: "distributed", Size: 2 * ppn}, {Kind: "hierarchical"},
	}

	t := &Table{
		ID:    "protocol",
		Title: fmt.Sprintf("end-to-end recovery, %d ranks on %d nodes, node %d fails at iter %d", ranks, nodes, failNode, failAt),
		Columns: []string{"clustering", "restarted ranks", "restart %", "replayed msgs",
			"suppressed dups", "restore levels", "logged %", "state == reference"},
	}
	for _, spec := range specs {
		st, err := hierclust.NewStrategy(spec)
		if err != nil {
			return nil, err
		}
		c, err := st.Build(r.matrix, r.placement)
		if err != nil {
			return nil, err
		}
		row, err := runProtocolOnce(c, params, r.placement, iters, ckptEvery, failAt, failNode, ref)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"size-guided groups are co-located with their node: the node failure is unrecoverable (the paper's reliability collapse)",
		"distributed clustering recovers but restarts every rank (Fig. 4c's amplification)")
	return t, nil
}

func runProtocolOnce(c *core.Clustering, params tsunami.Params, placement *topology.Placement,
	iters, ckptEvery, failAt int, failNode topology.NodeID, ref *tsunami.FTApp) ([]string, error) {

	app, err := tsunami.NewFTApp(params)
	if err != nil {
		return nil, err
	}
	runner, err := hybrid.NewRunner(hybrid.Config{
		Placement:       placement,
		Clusters:        c.L1,
		Groups:          c.Groups,
		CheckpointEvery: ckptEvery,
		Level:           checkpoint.L3Encoded,
	}, app)
	if err != nil {
		return nil, err
	}
	rep, err := runner.Run(iters, map[int][]topology.NodeID{failAt: {failNode}})
	if err != nil {
		if checkpoint.Unrecoverable(err) {
			return []string{c.Name, "-", "-", "-", "-", "UNRECOVERABLE", "-", "no"}, nil
		}
		return nil, fmt.Errorf("harness: protocol run %s: %w", c.Name, err)
	}
	if len(rep.Failures) != 1 {
		return nil, fmt.Errorf("harness: %s handled %d failures, want 1", c.Name, len(rep.Failures))
	}
	ev := rep.Failures[0]
	match := "yes"
	for rk := 0; rk < params.Ranks && match == "yes"; rk++ {
		s, sr := app.Solver(rk), ref.Solver(rk)
		for j := 0; j < s.Rows(); j++ {
			for i := 0; i < params.NX; i++ {
				if s.Eta(j, i) != sr.Eta(j, i) {
					match = "NO"
				}
			}
		}
	}
	levels := ""
	for _, lv := range []checkpoint.Level{checkpoint.L1Local, checkpoint.L2Partner, checkpoint.L3Encoded, checkpoint.L4PFS} {
		if n := ev.RestoreLevels[lv]; n > 0 {
			if levels != "" {
				levels += " "
			}
			levels += fmt.Sprintf("%s:%d", lv, n)
		}
	}
	return []string{
		c.Name,
		fmt.Sprintf("%d", ev.RestartedRanks),
		fmt.Sprintf("%.1f", ev.RestartedFraction*100),
		fmt.Sprintf("%d", ev.ReplayedMessages),
		fmt.Sprintf("%d", ev.SuppressedDuplicates),
		levels,
		fmt.Sprintf("%.1f", rep.LoggedFraction*100),
		match,
	}, nil
}
