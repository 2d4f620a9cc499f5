package harness

import (
	"bytes"
	"iter"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"hierclust/internal/checkpoint"
	"hierclust/internal/core"
	"hierclust/internal/hybrid"
	"hierclust/internal/reliability"
	"hierclust/internal/storage"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
	"hierclust/internal/tsunami"
	"hierclust/pkg/hierclust"
)

// TestProtocolRecoveryOracle holds the analytic recovery score to what the
// protocol does, on the protocol experiment's quick rig (64 ranks, 8 per
// node) and schedule. For naive-16, distributed-16 and hierarchical,
// core.RecoveryFraction is the mean of hybrid.Runner's RestartedFraction
// over every single-node failure, compared as integer restarted-rank sums;
// size-guided-8's groups sit on one node each, so every node's failure is
// unrecoverable.
func TestProtocolRecoveryOracle(t *testing.T) {
	const ranks, ppn, iters, ckptEvery, failAt = 64, 8, 20, 5, 13
	r, err := tracedRig(Config{Ranks: ranks, ProcsPerNode: ppn, Iterations: 10, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	params := tsunami.TraceParams(ranks)
	used := r.placement.UsedNodes()
	if len(used) != ranks/ppn {
		t.Fatalf("rig uses %d nodes, want %d", len(used), ranks/ppn)
	}
	for _, spec := range []hierclust.StrategySpec{
		{Kind: "naive", Size: 2 * ppn}, {Kind: "size-guided", Size: ppn},
		{Kind: "distributed", Size: 2 * ppn}, {Kind: "hierarchical"},
	} {
		c, err := spec.Build(r.matrix, r.placement)
		if err != nil {
			t.Fatal(err)
		}
		restarted := 0
		for _, node := range used {
			app, err := tsunami.NewFTApp(params)
			if err != nil {
				t.Fatal(err)
			}
			runner, err := hybrid.NewRunner(hybrid.Config{
				Placement:       r.placement,
				Clusters:        c.L1,
				Groups:          c.Groups,
				CheckpointEvery: ckptEvery,
				Level:           checkpoint.L3Encoded,
			}, app)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runner.Run(iters, map[int][]topology.NodeID{failAt: {node}})
			if spec.Kind == "size-guided" {
				if !checkpoint.Unrecoverable(err) {
					t.Errorf("%s, node %d fails: %v, want unrecoverable", c.Name, node, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s, node %d fails: %v", c.Name, node, err)
			}
			if len(rep.Failures) != 1 {
				t.Fatalf("%s, node %d fails: %d failures handled, want 1", c.Name, node, len(rep.Failures))
			}
			restarted += rep.Failures[0].RestartedRanks
		}
		if spec.Kind == "size-guided" {
			continue
		}
		rf, err := core.RecoveryFraction(c, r.placement)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d ranks restarted over %d single-node failures, RecoveryFraction %v", c.Name, restarted, len(used), rf)
		if want := int(math.Round(rf * ranks * float64(len(used)))); restarted != want {
			t.Errorf("%s: %d ranks restarted over %d single-node failures, RecoveryFraction %v predicts %d",
				c.Name, restarted, len(used), rf, want)
		}
	}
}

// TestProtocolLoggedOracle holds the analytic logged score to what the
// protocol logs, on the protocol experiment's quick rig and schedule: every
// message the FT app hands hybrid.Runner in a failure-free run is recorded
// into a trace, and LoggedFraction of that trace under the strategy's L1
// clusters must equal the runner's LoggedBytes / TotalBytes exactly. The
// rig's traced matrix scores higher: it also holds the FTI-init Allgather,
// which the hybrid app never sends (docs/ARCHITECTURE.md, data flow).
func TestProtocolLoggedOracle(t *testing.T) {
	const ranks, ppn, iters, ckptEvery = 64, 8, 20, 5
	r, err := tracedRig(Config{Ranks: ranks, ProcsPerNode: ppn, Iterations: 10, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []hierclust.StrategySpec{
		{Kind: "naive", Size: 2 * ppn}, {Kind: "distributed", Size: 2 * ppn}, {Kind: "hierarchical"},
	} {
		c, err := spec.Build(r.matrix, r.placement)
		if err != nil {
			t.Fatal(err)
		}
		ft, err := tsunami.NewFTApp(tsunami.TraceParams(ranks))
		if err != nil {
			t.Fatal(err)
		}
		app := recordingApp{App: ft, rec: trace.NewRecorder(ranks)}
		runner, err := hybrid.NewRunner(hybrid.Config{
			Placement:       r.placement,
			Clusters:        c.L1,
			Groups:          c.Groups,
			CheckpointEvery: ckptEvery,
			Level:           checkpoint.L3Encoded,
		}, app)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runner.Run(iters, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := app.rec.Freeze().LoggedFraction(c.L1)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := r.matrix.LoggedFraction(c.L1)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(rep.LoggedBytes) / float64(rep.TotalBytes)
		t.Logf("%s: protocol logged %d of %d bytes (%.4f); its recorded stream scores %.4f, the traced matrix %.4f",
			c.Name, rep.LoggedBytes, rep.TotalBytes, want, got, traced)
		if rep.TotalBytes == 0 || got != want {
			t.Errorf("%s: LoggedFraction of the protocol's own messages = %v, runner logged %d of %d bytes (%v)",
				c.Name, got, rep.LoggedBytes, rep.TotalBytes, want)
		}
	}
}

// recordingApp records every message its app produces, as the runner
// routes it, into a trace.
type recordingApp struct {
	hybrid.App
	rec *trace.Recorder
}

func (a recordingApp) Produce(rank, iter int) ([]hybrid.Message, error) {
	msgs, err := a.App.Produce(rank, iter)
	for _, m := range msgs {
		a.rec.Record(rank, m.Dest, len(m.Payload))
	}
	return msgs, err
}

// TestDataPlaneCatastropheOracle holds the reliability model's P(cat) to
// what checkpoint.Restore does with the same groups. On 16 nodes at 4 ranks
// per node it enumerates every failure set of f = 1, 2 and 3 nodes (16, 120
// and 560 sets); for each it takes an L3 checkpoint of every rank through a
// fresh manager, fails the set's nodes (model node i is the placement's
// i-th used node) and restores every rank. The sets that end in
// ErrUnrecoverable must number exactly CatastropheProb × sets, with
// NodeLoss one-hot at f; every other set must give back the bytes
// checkpointed. On the block placement the model scores every strategy in
// closed form; distributed-5 adds odd groups, the only ones on which a
// ⌊k/2⌋ and a ⌈k/2⌉ tolerance differ. The seeded irregular placement —
// 16 of 24 nodes, 1 to 7 ranks each — gives naive groups overlapping,
// non-uniform spans, so the model takes its enumeration path.
func TestDataPlaneCatastropheOracle(t *testing.T) {
	const nodes, ppn, blob = 16, 4, 48
	mach, err := topology.Tsubame2().Subset(nodes)
	if err != nil {
		t.Fatal(err)
	}
	block, err := topology.Block(mach, nodes*ppn, ppn)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := trace.NewStencil(nodes*ppn, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: ppn})
	if err != nil {
		t.Fatal(err)
	}
	data := map[topology.Rank][]byte{}
	for r := range topology.Rank(nodes * ppn) {
		data[r] = bytes.Repeat([]byte{byte(r), byte(r >> 8), 0x5a}, blob/3)
	}
	all := slices.Sorted(maps.Keys(data))
	for _, layout := range []struct {
		p     *topology.Placement
		specs []hierclust.StrategySpec
	}{
		{block, []hierclust.StrategySpec{
			{Kind: "naive", Size: 8}, {Kind: "size-guided", Size: 4},
			{Kind: "distributed", Size: 8}, {Kind: "hierarchical"},
			{Kind: "distributed", Size: 5},
		}},
		{irregularPlacement(t, nodes, ppn), []hierclust.StrategySpec{
			{Kind: "naive", Size: 4}, {Kind: "naive", Size: 8},
		}},
	} {
		p := layout.p
		used := p.UsedNodes()
		if len(used) != nodes {
			t.Fatalf("placement uses %d nodes, want %d", len(used), nodes)
		}
		for _, spec := range layout.specs {
			c, err := spec.Build(comm, p)
			if err != nil {
				t.Fatal(err)
			}
			var groups []reliability.Group
			for _, g := range c.Groups {
				groups = append(groups, reliability.GroupFromRanks(p, g))
			}
			for f := 1; f <= 3; f++ {
				mdl := reliability.Model{Nodes: nodes, Mix: reliability.Mix{NodeLoss: make([]float64, f)}}
				mdl.Mix.NodeLoss[f-1] = 1
				pcat, err := mdl.CatastropheProb(groups)
				if err != nil {
					t.Fatal(err)
				}
				sets, lost := 0, 0
				for set := range failureSets(nodes, f) {
					sets++
					cl := storage.NewCluster(p.Machine())
					mgr, err := checkpoint.New(cl, p, c.Groups)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := mgr.Checkpoint(1, checkpoint.L3Encoded, data); err != nil {
						t.Fatal(err)
					}
					for _, i := range set {
						if err := cl.FailNode(used[i]); err != nil {
							t.Fatal(err)
						}
					}
					restored, err := mgr.Restore(1, all)
					if checkpoint.Unrecoverable(err) {
						lost++
						continue
					}
					if err != nil {
						t.Fatalf("%s, nodes %v fail: %v", c.Name, set, err)
					}
					for _, re := range restored {
						if !bytes.Equal(re.Data, data[re.Rank]) {
							t.Fatalf("%s, nodes %v fail: rank %d restored from %v with wrong bytes", c.Name, set, re.Rank, re.Level)
						}
					}
				}
				t.Logf("%s, f = %d: %d of %d failure sets unrecoverable, P(cat) %v", c.Name, f, lost, sets, pcat)
				if want := int(math.Round(pcat * float64(sets))); lost != want {
					t.Errorf("%s, f = %d: %d of %d failure sets unrecoverable, P(cat) %v predicts %d", c.Name, f, lost, sets, pcat, want)
				}
			}
		}
	}
}

// irregularPlacement scatters nodes*ppn ranks over a seeded random choice
// of nodes out of 1.5 × nodes: every chosen node hosts at least one rank,
// the rest land on chosen nodes at random, and rank order is shuffled.
func irregularPlacement(t *testing.T, nodes, ppn int) *topology.Placement {
	t.Helper()
	mach, err := topology.Tsubame2().Subset(nodes + nodes/2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2012, 45))
	hosts := rng.Perm(mach.Nodes)[:nodes]
	nodeOf := make([]topology.NodeID, nodes*ppn)
	for r := range nodeOf {
		h := r
		if r >= nodes {
			h = rng.IntN(nodes)
		}
		nodeOf[r] = topology.NodeID(hosts[h])
	}
	rng.Shuffle(len(nodeOf), func(i, j int) { nodeOf[i], nodeOf[j] = nodeOf[j], nodeOf[i] })
	p, err := topology.NewPlacement(mach, nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// failureSets yields every set of f distinct nodes out of n, ascending.
func failureSets(n, f int) iter.Seq[[]int] {
	return func(yield func([]int) bool) {
		set := make([]int, f)
		var rec func(i, from int) bool
		rec = func(i, from int) bool {
			if i == f {
				return yield(set)
			}
			for v := from; v < n; v++ {
				set[i] = v
				if !rec(i+1, v+1) {
					return false
				}
			}
			return true
		}
		rec(0, 0)
	}
}
