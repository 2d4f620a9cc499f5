package harness

import (
	"context"
	"fmt"

	"hierclust/pkg/hierclust"
)

// Scaling evaluates the hierarchical clustering from 64 to 1024 ranks —
// the paper's §V notes the tsunami application was launched "from 64 to
// 1024 processes" though it only tabulates the largest. All four dimensions
// should stay inside the baseline at every scale, with logging overhead
// *improving* as the machine grows (more nodes per L1 cut boundary).
//
// With cfg.MaxRanks set, the table continues past the traced sizes on
// synthetically generated 2-D stencil traces (4096 ranks doubling up to
// MaxRanks), running the whole clustering→reliability pipeline on the
// implicit stencil trace, with no rank matrix — the regime where a dense
// matrix would need O(n²) memory and a traced run would need hours of
// simulated MPI.
//
// The experiment defines its own rank/ppn ladder (8 per node up to 256
// ranks, 16 above, for both traced and synthetic rows); cfg.Ranks and
// cfg.ProcsPerNode overrides are ignored here, unlike in the single-scale
// experiments.
func Scaling(cfg Config) (*Table, error) {
	cfg.normalize()
	t := &Table{
		ID:      "scaling",
		Title:   "hierarchical clustering vs. application scale",
		Columns: []string{"ranks", "nodes", "L1 clusters", "logged %", "restart %", "encode s/GB", "P(cat)", "within baseline"},
	}
	sizes := []int{64, 128, 256, 512, 1024}
	if cfg.Quick {
		sizes = []int{64, 128, 256}
	}
	hier := hierclust.StrategySpec{Kind: "hierarchical"}
	var rungs []*hierclust.Scenario
	for _, ranks := range sizes {
		ppn := 16
		if ranks <= 256 {
			ppn = 8 // keep enough nodes that 4-node L1 clusters stay small
		}
		sc, err := Config{Ranks: ranks, ProcsPerNode: ppn, Iterations: cfg.Iterations}.scenario("scaling", hier)
		if err != nil {
			return nil, err
		}
		rungs = append(rungs, sc)
	}
	for ranks := 4096; ranks <= cfg.MaxRanks; ranks *= 2 {
		// A 2-D stencil 16 ranks wide: horizontal ghost exchange stays
		// intra-node under block placement, vertical exchange crosses node
		// boundaries, as in a blocked 2-D domain decomposition.
		sc, err := Config{Ranks: ranks, ProcsPerNode: 16}.scenario("scaling", hier)
		if err != nil {
			return nil, err
		}
		sc.Trace = hierclust.TraceSpec{Source: "synthetic", Pattern: "stencil2d"}
		rungs = append(rungs, sc)
	}
	for _, sc := range rungs {
		res, err := pipeline.Run(context.TODO(), sc)
		if err != nil {
			return nil, err
		}
		e := res.Evaluations[0]
		verdict := "yes"
		if !e.WithinBaseline {
			verdict = fmt.Sprintf("NO (scale too small for 4-node L1: %d nodes)", res.Nodes)
		}
		t.AddRow(res.Ranks, res.Nodes, e.L1Clusters,
			e.LoggedFraction*100, e.RecoveryFraction*100, e.EncodeSecondsPerGB, e.CatastropheProb, verdict)
	}
	t.Notes = append(t.Notes,
		"restart % falls as 4-node L1 clusters shrink relative to the machine; logging falls with boundary count over volume")
	if cfg.MaxRanks >= 4096 {
		t.Notes = append(t.Notes,
			"rows from 4096 ranks up use synthetic 2-D stencil traces, generated implicitly (trace.Stencil) — no rank matrix, no traced run")
	}
	return t, nil
}
