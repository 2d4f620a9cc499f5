package core

import (
	"testing"

	"hierclust/internal/reliability"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
)

// pairRig builds a power-paired machine: 32 nodes (16 pairs), 8 ranks per
// node, 256 ranks, stencil traffic.
func pairRig(t *testing.T) (*trace.CSR, *topology.Placement) {
	t.Helper()
	mach := &topology.Machine{Name: "t", Nodes: 32, PowerPairs: true}
	p, err := topology.Block(mach, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	return ring(256, 1000), p
}

func TestAlignPowerPairsKeepsPairsTogether(t *testing.T) {
	m, p := pairRig(t)
	c, err := Hierarchical(m, p, HierOptions{AlignPowerPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(256); err != nil {
		t.Fatal(err)
	}
	for base := topology.NodeID(0); int(base)+1 < 32; base += 2 {
		r0 := p.RanksOn(base)[0]
		r1 := p.RanksOn(base + 1)[0]
		if c.L1[r0] != c.L1[r1] {
			t.Errorf("power pair (%d,%d) split across clusters %d and %d",
				base, base+1, c.L1[r0], c.L1[r1])
		}
	}
}

func TestAlignPowerPairsNoOpWithoutPairs(t *testing.T) {
	mach := &topology.Machine{Name: "t", Nodes: 32, PowerPairs: false}
	p, err := topology.Block(mach, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(256)
	for r := 0; r+1 < 256; r++ {
		rec.Record(r, r+1, 1000)
	}
	m := rec.Freeze()
	aligned, err := Hierarchical(m, p, HierOptions{AlignPowerPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Hierarchical(m, p, HierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for r := range plain.L1 {
		if aligned.L1[r] != plain.L1[r] {
			t.Fatal("AlignPowerPairs changed the clustering on a pairless machine")
		}
	}
}

func TestPairCorrelationRaisesNaiveCatastropheRisk(t *testing.T) {
	// Naive-32 groups occupy exactly one power pair under 16-rank nodes.
	// With correlated pair failures, P(cat) jumps by orders of magnitude;
	// hierarchical transversal groups of 4 (tolerance 2) survive a pair
	// loss and barely move.
	mach := &topology.Machine{Name: "t", Nodes: 64, PowerPairs: true}
	p, err := topology.Block(mach, 1024, 16)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Naive(1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	var naiveGroups []reliability.Group
	for _, g := range naive.Groups {
		naiveGroups = append(naiveGroups, reliability.GroupFromRanks(p, g))
	}

	plain := reliability.DefaultMix()
	correlated := reliability.DefaultMix()
	correlated.PairCorrelation = 1.0

	mdlPlain := &reliability.Model{Nodes: 64, Mix: plain}
	mdlCorr := &reliability.Model{Nodes: 64, Mix: correlated}
	pPlain, err := mdlPlain.CatastropheProb(naiveGroups)
	if err != nil {
		t.Fatal(err)
	}
	pCorr, err := mdlCorr.CatastropheProb(naiveGroups)
	if err != nil {
		t.Fatal(err)
	}
	if pCorr < 10*pPlain {
		t.Errorf("correlated pair failures should raise naive-32 P(cat) by ≫10x: %g -> %g", pPlain, pCorr)
	}

	// Hierarchical groups of 4 across 4 nodes tolerate 2 losses: an
	// aligned pair failure removes exactly 2 members — survivable.
	hier, err := Hierarchical(ring(1024, 1000), p, HierOptions{AlignPowerPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	var hierGroups []reliability.Group
	for _, g := range hier.Groups {
		hierGroups = append(hierGroups, reliability.GroupFromRanks(p, g))
	}
	hPlain, err := mdlPlain.CatastropheProb(hierGroups)
	if err != nil {
		t.Fatal(err)
	}
	hCorr, err := mdlCorr.CatastropheProb(hierGroups)
	if err != nil {
		t.Fatal(err)
	}
	if hCorr > 2*hPlain+1e-9 {
		t.Errorf("hierarchical should absorb pair correlation: %g -> %g", hPlain, hCorr)
	}
	if hCorr > pCorr/100 {
		t.Errorf("under correlated failures hierarchical (%g) should beat naive (%g) by ≫100x", hCorr, pCorr)
	}
}

func TestRecoveryFractionPairAlignment(t *testing.T) {
	m, p := pairRig(t)
	aligned, err := Hierarchical(m, p, HierOptions{AlignPowerPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := RecoveryFractionPair(aligned, p)
	if err != nil {
		t.Fatal(err)
	}
	// An offset clustering that deliberately straddles pairs: clusters of
	// 4 nodes starting at node 1 (ranks shifted by one node width).
	straddle := &Clustering{Name: "straddle", L1: make([]int32, 256)}
	for r := 0; r < 256; r++ {
		straddle.L1[r] = int32((r/8 + 1) / 4) // node+1 grouped by 4
	}
	rs, err := RecoveryFractionPair(straddle, p)
	if err != nil {
		t.Fatal(err)
	}
	if ra >= rs {
		t.Errorf("pair-aligned recovery %g should beat straddling %g", ra, rs)
	}
	// Node-failure recovery must not regress vs the plain construction.
	plainRec, err := RecoveryFraction(aligned, p)
	if err != nil {
		t.Fatal(err)
	}
	if plainRec > 0.25 {
		t.Errorf("aligned hierarchical node recovery = %g, too large", plainRec)
	}
}

func TestMixPairCorrelationValidation(t *testing.T) {
	bad := reliability.DefaultMix()
	bad.PairCorrelation = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("accepted PairCorrelation > 1")
	}
	bad.PairCorrelation = -0.1
	if err := bad.Validate(); err == nil {
		t.Error("accepted negative PairCorrelation")
	}
}
