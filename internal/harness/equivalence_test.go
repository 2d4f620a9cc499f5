package harness

import (
	"testing"

	"hierclust/internal/core"
	"hierclust/internal/reliability"
)

// TestTable2PaperScaleMultilevelEquivalence pins, at the paper's full
// 1024-rank/64-node configuration, how the four Table II dimensions behave
// when the hierarchical strategy runs multilevel.
//
// Two regimes are covered:
//
//  1. Default options. The paper-scale node graph (64 nodes) sits below the
//     default CoarsenThreshold (128), where Partition guarantees the
//     multilevel flag is inert — so every metric must be EXACTLY equal.
//     table2 and fig5c score the built-in table2 scenario, whose
//     hierarchical strategy takes the default (single-level) partitioner;
//     this regime is why their cells at 64 nodes or fewer are the same
//     with multilevel forced on or not.
//
//  2. Forced coarsening (CoarsenThreshold 16), the regime the flag exists
//     for. The clustering may legitimately differ; the documented tolerance
//     is that the multilevel evaluation stays within the paper's baseline
//     on all four dimensions and within bounded drift of single-level:
//     logged fraction and recovery fraction within 1.3×, catastrophe
//     probability within 2×, encode seconds within 2× (coarse clusters can
//     shift the L2 group-size distribution, which quantizes encode time).
func TestTable2PaperScaleMultilevelEquivalence(t *testing.T) {
	cfg := Config{} // zero value = the paper's full 1024-rank configuration
	cfg.normalize()
	r, err := tracedRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evaluate := func(opts core.HierOptions) *core.Evaluation {
		t.Helper()
		h, err := core.Hierarchical(r.matrix, r.placement, opts)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.Evaluate(h, r.matrix, r.placement, reliability.DefaultMix())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	base := evaluate(core.HierOptions{})

	// Regime 1: inert below the threshold — exact equality, bit for bit.
	ml := evaluate(core.HierOptions{Multilevel: true})
	if ml.LoggedFraction != base.LoggedFraction ||
		ml.RecoveryFraction != base.RecoveryFraction ||
		ml.EncodeSecondsPerGB != base.EncodeSecondsPerGB ||
		ml.CatastropheProb != base.CatastropheProb {
		t.Fatalf("multilevel at default threshold changed paper-scale metrics:\n single %+v\n multi  %+v",
			metricRow(base), metricRow(ml))
	}

	// Regime 2: forced coarsening — within baseline, bounded drift.
	deep := evaluate(core.HierOptions{Multilevel: true, CoarsenThreshold: 16})
	if ok, viol := deep.Meets(core.DefaultBaseline()); !ok {
		t.Fatalf("forced-coarsening multilevel leaves the paper baseline: %v", viol)
	}
	withinFactor := func(name string, got, want, factor float64) {
		t.Helper()
		if want == 0 {
			if got != 0 {
				t.Errorf("%s: got %g, single-level 0", name, got)
			}
			return
		}
		if r := got / want; r > factor || r < 1/factor {
			t.Errorf("%s: multilevel %g vs single-level %g (ratio %.3f outside 1/%g..%g)",
				name, got, want, r, factor, factor)
		}
	}
	withinFactor("logged fraction", deep.LoggedFraction, base.LoggedFraction, 1.3)
	withinFactor("recovery fraction", deep.RecoveryFraction, base.RecoveryFraction, 1.3)
	withinFactor("catastrophe probability", deep.CatastropheProb, base.CatastropheProb, 2)
	withinFactor("encode seconds/GB", deep.EncodeSecondsPerGB, base.EncodeSecondsPerGB, 2)
}

func metricRow(e *core.Evaluation) [4]float64 {
	return [4]float64{e.LoggedFraction, e.RecoveryFraction, e.EncodeSecondsPerGB, e.CatastropheProb}
}
