package harness

import (
	"fmt"

	"hierclust/internal/core"
	"hierclust/internal/reliability"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
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
// sparse CSR path — the regime where a dense matrix would need O(n²)
// memory and a traced run would need hours of simulated MPI.
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
	b := core.DefaultBaseline()
	for _, ranks := range sizes {
		ppn := 16
		if ranks <= 256 {
			ppn = 8 // keep enough nodes that 4-node L1 clusters stay small
		}
		r, err := tracedRig(Config{Ranks: ranks, ProcsPerNode: ppn, Iterations: cfg.Iterations, Quick: cfg.Quick})
		if err != nil {
			return nil, err
		}
		if err := scalingRow(t, b, r.matrix, r.placement, cfg.Multilevel); err != nil {
			return nil, err
		}
	}
	for ranks := 4096; ranks <= cfg.MaxRanks; ranks *= 2 {
		m, placement, err := SyntheticRig(ranks, 16)
		if err != nil {
			return nil, err
		}
		if err := scalingRow(t, b, m, placement, cfg.Multilevel); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes,
		"restart % falls as 4-node L1 clusters shrink relative to the machine; logging falls with boundary count over volume")
	if cfg.MaxRanks >= 4096 {
		t.Notes = append(t.Notes,
			"rows from 4096 ranks up use synthetic 2-D stencil traces on the sparse (CSR) pipeline — no dense matrix, no traced run")
	}
	if cfg.Multilevel {
		t.Notes = append(t.Notes,
			"hierarchical rows use the multilevel (coarsen/partition/uncoarsen) node partitioner")
	}
	return t, nil
}

// scalingRow evaluates one machine scale and appends its table row.
func scalingRow(t *Table, b core.Baseline, m trace.Comm, placement *topology.Placement, multilevel bool) error {
	hier, err := core.Hierarchical(m, placement, core.HierOptions{Multilevel: multilevel})
	if err != nil {
		return err
	}
	e, err := core.Evaluate(hier, m, placement, reliability.DefaultMix())
	if err != nil {
		return err
	}
	ok, _ := e.Meets(b)
	verdict := "yes"
	if !ok {
		verdict = fmt.Sprintf("NO (scale too small for 4-node L1: %d nodes)", placement.NumUsed())
	}
	t.AddRow(m.Ranks(), placement.NumUsed(), hier.NumClusters(),
		e.LoggedFraction*100, e.RecoveryFraction*100, e.EncodeSecondsPerGB, e.CatastropheProb, verdict)
	return nil
}

// SyntheticRig builds the large-scale evaluation input the way the pipeline
// does for a synthetic scenario: an implicit 2-D stencil trace (grid width =
// procsPerNode, so horizontal ghost exchange stays intra-node under block
// placement and vertical exchange crosses node boundaries, mirroring a
// blocked 2-D domain decomposition) plus a block placement on a
// TSUBAME2-like machine grown to the required node count. Exported for
// reuse by the benchmark suite.
func SyntheticRig(ranks, procsPerNode int) (trace.Comm, *topology.Placement, error) {
	nodes := (ranks + procsPerNode - 1) / procsPerNode
	mach := topology.Tsubame2()
	if nodes > mach.Nodes {
		scaled := *mach
		scaled.Nodes = nodes
		scaled.Name = fmt.Sprintf("%s-scaled[%d]", mach.Name, nodes)
		mach = &scaled
	}
	placement, err := topology.Block(mach, ranks, procsPerNode)
	if err != nil {
		return nil, nil, err
	}
	m, err := trace.NewStencil(ranks, trace.SyntheticOptions{
		Pattern: trace.Stencil2D,
		Width:   procsPerNode,
	})
	if err != nil {
		return nil, nil, err
	}
	return m, placement, nil
}
