package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hierclust/internal/core"
	"hierclust/internal/reliability"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
)

// The synthetic axis must extend the scaling table with rows that stay
// inside the baseline — the 64k-rank acceptance scenario at test-friendly
// scale — and the whole pipeline must run on the sparse path (the rig here
// never materializes a dense matrix).
func TestScalingSyntheticAxis(t *testing.T) {
	table, err := Scaling(Config{Quick: true, MaxRanks: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 { // 64, 128, 256 traced + 4096, 8192 synthetic
		t.Fatalf("rows = %d, want 5 (%v)", len(table.Rows), table.Rows)
	}
	last := table.Rows[len(table.Rows)-1]
	if last[0] != "8192" {
		t.Fatalf("last row ranks = %s, want 8192", last[0])
	}
	for _, row := range table.Rows[3:] {
		if row[len(row)-1] != "yes" {
			t.Errorf("synthetic row %v outside baseline", row)
		}
	}
	found := false
	for _, n := range table.Notes {
		if strings.Contains(n, "synthetic") {
			found = true
		}
	}
	if !found {
		t.Error("synthetic rows present but no note explains them")
	}
}

// MaxRanks = 0 must leave the scaling table exactly as before — the
// backwards-compatibility contract for existing figure output.
func TestScalingDefaultUnchangedByMaxRanks(t *testing.T) {
	base, err := Scaling(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) != 3 {
		t.Fatalf("default quick scaling rows = %d, want 3", len(base.Rows))
	}
	for _, n := range base.Notes {
		if strings.Contains(n, "synthetic") {
			t.Errorf("default scaling table mentions synthetic rows: %q", n)
		}
	}
}

// referenceRig is a synthetic rung as the scaling experiment composed it
// before it ran its rungs on the Pipeline: an implicit 2-D stencil ppn ranks
// wide and a block placement on TSUBAME2, grown to the rung's node count.
func referenceRig(ranks, ppn int) (trace.Comm, *topology.Placement, error) {
	mach := topology.Tsubame2()
	if nodes := ranks / ppn; nodes > mach.Nodes {
		grown := *mach
		grown.Nodes = nodes
		mach = &grown
	}
	placement, err := topology.Block(mach, ranks, ppn)
	if err != nil {
		return nil, nil, err
	}
	m, err := trace.NewStencil(ranks, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: ppn})
	return m, placement, err
}

// TestScalingMatchesReference holds every cell of the scaling table, traced
// and synthetic rows, to the composition the experiment used before its
// rungs became Pipeline scenarios: the rung's trace and block placement,
// core.Hierarchical and core.Evaluate, rendered as that code rendered a row.
func TestScalingMatchesReference(t *testing.T) {
	cfg := Config{Quick: true, MaxRanks: 8192}
	got, err := Scaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.normalize()
	want := &Table{}
	row := func(m trace.Comm, placement *topology.Placement) {
		t.Helper()
		hier, err := core.Hierarchical(m, placement, core.HierOptions{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.Evaluate(hier, m, placement, reliability.DefaultMix())
		if err != nil {
			t.Fatal(err)
		}
		verdict := "yes"
		if ok, _ := e.Meets(core.DefaultBaseline()); !ok {
			verdict = fmt.Sprintf("NO (scale too small for 4-node L1: %d nodes)", placement.NumUsed())
		}
		want.AddRow(m.Ranks(), placement.NumUsed(), hier.NumClusters(),
			e.LoggedFraction*100, e.RecoveryFraction*100, e.EncodeSecondsPerGB, e.CatastropheProb, verdict)
	}
	for _, ranks := range []int{64, 128, 256} {
		r, err := tracedRig(Config{Ranks: ranks, ProcsPerNode: 8, Iterations: cfg.Iterations})
		if err != nil {
			t.Fatal(err)
		}
		row(r.matrix, r.placement)
	}
	for _, ranks := range []int{4096, 8192} {
		m, placement, err := referenceRig(ranks, 16)
		if err != nil {
			t.Fatal(err)
		}
		row(m, placement)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("scaling rows differ from the reference composition\n got %v\nwant %v", got.Rows, want.Rows)
	}
}

// A synthetic rung end to end at a 16k-rank scale: hierarchical
// clustering plus full evaluation against the default baseline, all sparse.
func TestSyntheticRigPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("16k-rank pipeline in -short mode")
	}
	m, placement, err := referenceRig(16384, 16)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := core.Hierarchical(m, placement, core.HierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := hier.Validate(16384); err != nil {
		t.Fatal(err)
	}
	e, err := core.Evaluate(hier, m, placement, reliability.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	if ok, viol := e.Meets(core.DefaultBaseline()); !ok {
		t.Errorf("16k-rank synthetic evaluation violates baseline: %v", viol)
	}
	// Logging should stay near the 2-D stencil's analytic cut share and
	// recovery near one L1 cluster's share of the machine.
	if e.LoggedFraction <= 0 || e.LoggedFraction > 0.2 {
		t.Errorf("logged fraction %g outside (0, 0.2]", e.LoggedFraction)
	}
	if e.RecoveryFraction <= 0 || e.RecoveryFraction > 0.01 {
		t.Errorf("recovery fraction %g outside (0, 0.01]", e.RecoveryFraction)
	}
}

// The 262,144-rank / 16,384-node acceptance scenario: the full clustering →
// reliability pipeline through the node partitioner and the flat-span
// placement, end to end, with every number — the L1 assignment and all four
// evaluation dimensions — bit-identical at any worker count.
func TestSynthetic256kWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("262k-rank pipeline in -short mode")
	}
	const ranks = 262144
	m, placement, err := referenceRig(ranks, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(placement.UsedNodes()); got != 16384 {
		t.Fatalf("rig uses %d nodes, want 16384", got)
	}
	type result struct {
		l1 []int32
		e  *core.Evaluation
	}
	// The partitioner sizes its pool from GOMAXPROCS, so that is what varies.
	run := func(workers int) result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		hier, err := core.Hierarchical(m, placement, core.HierOptions{Multilevel: true})
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.EvaluateOpts(hier, m, placement, reliability.DefaultMix(),
			core.EvalOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return result{l1: hier.L1, e: e}
	}
	ref := run(1)
	if ok, viol := ref.e.Meets(core.DefaultBaseline()); !ok {
		t.Errorf("256k-rank evaluation violates baseline: %v", viol)
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		for r := range ref.l1 {
			if ref.l1[r] != got.l1[r] {
				t.Fatalf("workers=%d: rank %d in cluster %d, want %d", workers, r, got.l1[r], ref.l1[r])
			}
		}
		if *got.e != *ref.e {
			t.Fatalf("workers=%d: evaluation %+v differs from serial %+v", workers, got.e, ref.e)
		}
	}
}
