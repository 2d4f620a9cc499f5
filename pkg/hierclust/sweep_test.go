package hierclust

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// sweepBase is a small, fast base scenario for sweep tests: 64 ranks on 8
// nodes, one strategy (sweeps usually bring their own strategies axis).
func sweepBase() Scenario {
	return Scenario{
		Name:       "sweep-base",
		Machine:    MachineSpec{Nodes: 8},
		Placement:  PlacementSpec{Ranks: 64, ProcsPerNode: 8},
		Trace:      TraceSpec{Source: "synthetic", Pattern: "stencil2d"},
		Strategies: []StrategySpec{{Kind: "naive", Size: 8}},
	}
}

// allAxesSweep exercises every axis type at once.
func allAxesSweep() *Sweep {
	return &Sweep{
		Name: "all-axes",
		Base: sweepBase(),
		Axes: SweepAxes{
			Machines:   []MachinePoint{{Nodes: 8}, {Nodes: 16, Ranks: 128, ProcsPerNode: 8}},
			Placements: []string{"block", "round-robin"},
			Strategies: [][]StrategySpec{
				{{Kind: "naive", Size: 8}},
				{{Kind: "hierarchical"}, {Kind: "size-guided", Size: 8}},
			},
			Mixes: []MixSpec{
				{Transient: 0.05, NodeLoss: []float64{0.9, 0.05}},
				{Transient: 0.5, NodeLoss: []float64{0.5}},
			},
			Traces: []TracePoint{{Width: 4}, {Width: 8, BytesPerMsg: 2048}},
		},
	}
}

func TestSweepCellCount(t *testing.T) {
	sw := allAxesSweep()
	if n := sw.CellCount(); n != 2*2*2*2*2 {
		t.Fatalf("CellCount = %d, want 32", n)
	}
	if n := (&Sweep{Name: "one", Base: sweepBase()}).CellCount(); n != 1 {
		t.Fatalf("axis-less CellCount = %d, want 1", n)
	}
}

// TestSweepCellCountSaturates pins the overflow guard: axes whose product
// wraps int64 (four 65536-entry axes multiply to 2^64 ≡ 0) must saturate
// above SweepMaxCells, and Validate must reject the sweep before expanding
// 2^64 cells. Guards against an unauthenticated DoS via POST /v1/sweeps.
func TestSweepCellCountSaturates(t *testing.T) {
	const n = SweepMaxCells // 2^16 per axis, 4 axes → product wraps to 0
	sw := &Sweep{Name: "huge", Base: sweepBase()}
	sw.Axes.Machines = make([]MachinePoint, n)
	for i := range sw.Axes.Machines {
		sw.Axes.Machines[i] = MachinePoint{Nodes: i + 1}
	}
	sw.Axes.Placements = make([]string, n)
	sw.Axes.Mixes = make([]MixSpec, n)
	sw.Axes.Traces = make([]TracePoint, n)
	if got := sw.CellCount(); got <= SweepMaxCells {
		t.Fatalf("CellCount = %d, want > %d (saturated, not wrapped)", got, SweepMaxCells)
	}
	if err := sw.Validate(); err == nil {
		t.Fatal("Validate accepted a sweep whose cell count overflows int")
	}
	// A single over-long axis must also saturate rather than report its
	// exact (but bound-exceeding) product.
	one := &Sweep{Name: "long-axis", Base: sweepBase()}
	one.Axes.Placements = make([]string, SweepMaxCells+1)
	if got := one.CellCount(); got != SweepMaxCells+1 {
		t.Fatalf("single-axis CellCount = %d, want %d", got, SweepMaxCells+1)
	}
	if err := one.Validate(); err == nil {
		t.Fatal("Validate accepted an over-bound single axis")
	}
}

func TestSweepEncodeDecodeRoundTrip(t *testing.T) {
	sw := allAxesSweep()
	b1, err := EncodeSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSweep(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeSweep(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("encode/decode/encode is not byte-stable:\n%s\nvs\n%s", b1, b2)
	}
	k1, err := sw.SweepKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := dec.SweepKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("SweepKey changed across round trip:\n%s\nvs\n%s", k1, k2)
	}
}

func TestSweepDecodeRejectsUnknownFields(t *testing.T) {
	sw := &Sweep{Name: "typo", Base: sweepBase()}
	b, err := EncodeSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(b, []byte(`"axes"`), []byte(`"axis"`), 1)
	if !bytes.Contains(bad, []byte(`"axis"`)) {
		t.Fatal("test setup: no axes field to corrupt")
	}
	if _, err := DecodeSweep(bad); err == nil {
		t.Fatal("decoder accepted an unknown field")
	}
}

func TestSweepValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Sweep)
	}{
		{"no name", func(sw *Sweep) { sw.Name = "" }},
		{"future version", func(sw *Sweep) { sw.Version = SweepVersion + 1 }},
		{"bad machine point", func(sw *Sweep) { sw.Axes.Machines = []MachinePoint{{Nodes: 0}} }},
		{"empty strategy set", func(sw *Sweep) { sw.Axes.Strategies = [][]StrategySpec{{}} }},
		{"bad policy", func(sw *Sweep) { sw.Axes.Placements = []string{"scatter"} }},
		{"bad cell", func(sw *Sweep) { sw.Axes.Traces = []TracePoint{{Pattern: "torus"}} }},
		{"negative trace point", func(sw *Sweep) { sw.Axes.Traces = []TracePoint{{Iterations: -3}} }},
		{"cell bound", func(sw *Sweep) {
			pts := make([]MachinePoint, 300)
			mixes := make([]MixSpec, 300)
			for i := range pts {
				pts[i] = MachinePoint{Nodes: i + 1}
				mixes[i] = MixSpec{Transient: 1}
			}
			sw.Axes.Machines = pts
			sw.Axes.Mixes = mixes
		}},
	}
	for _, tc := range cases {
		sw := allAxesSweep()
		tc.mut(sw)
		if err := sw.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid sweep", tc.name)
		}
	}
}

// TestSweepCellNamesAndOrder pins the expansion order (machines outermost,
// traces innermost) and the index-based naming scheme.
func TestSweepCellNamesAndOrder(t *testing.T) {
	sw := &Sweep{
		Name: "order",
		Base: sweepBase(),
		Axes: SweepAxes{
			Machines:   []MachinePoint{{Nodes: 8}, {Nodes: 16}},
			Strategies: [][]StrategySpec{{{Kind: "naive", Size: 8}}, {{Kind: "hierarchical"}}},
		},
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"sweep-base/m0/s0", "sweep-base/m0/s1",
		"sweep-base/m1/s0", "sweep-base/m1/s1",
	}
	if len(cells) != len(want) {
		t.Fatalf("expanded %d cells, want %d", len(cells), len(want))
	}
	for i, sc := range cells {
		if sc.Name != want[i] {
			t.Errorf("cell %d named %q, want %q", i, sc.Name, want[i])
		}
	}
	// Inactive axes contribute no name segment.
	if strings.Contains(cells[0].Name, "/p") || strings.Contains(cells[0].Name, "/x") || strings.Contains(cells[0].Name, "/t") {
		t.Errorf("inactive axes leaked into cell name %q", cells[0].Name)
	}
}

// TestSweepCellCacheKeyCoherence is the cache-key coherence property: for
// every cell of a sweep spanning every axis type, a hand-written scenario
// with the same content must produce the same CacheKey (so sweep cells hit
// and warm the same result cache as single evaluates).
func TestSweepCellCacheKeyCoherence(t *testing.T) {
	sw := allAxesSweep()
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 32 {
		t.Fatalf("expanded %d cells, want 32", len(cells))
	}
	i := 0
	for mi, m := range sw.Axes.Machines {
		for pi, pol := range sw.Axes.Placements {
			for si, set := range sw.Axes.Strategies {
				for xi, mix := range sw.Axes.Mixes {
					for ti, tp := range sw.Axes.Traces {
						// Hand-write the scenario this cell should equal,
						// from the documented semantics alone.
						hand := sweepBase()
						hand.Name = fmt.Sprintf("sweep-base/m%d/p%d/s%d/x%d/t%d", mi, pi, si, xi, ti)
						hand.Machine.Nodes = m.Nodes
						if m.Ranks > 0 {
							hand.Placement.Ranks = m.Ranks
						}
						if m.ProcsPerNode > 0 {
							hand.Placement.ProcsPerNode = m.ProcsPerNode
						}
						hand.Placement.Policy = pol
						hand.Strategies = set
						mixCopy := mix
						hand.Mix = &mixCopy
						if tp.Iterations > 0 {
							hand.Trace.Iterations = tp.Iterations
						}
						if tp.Pattern != "" {
							hand.Trace.Pattern = tp.Pattern
						}
						if tp.Width > 0 {
							hand.Trace.Width = tp.Width
						}
						if tp.BytesPerMsg > 0 {
							hand.Trace.BytesPerMsg = tp.BytesPerMsg
						}

						wantKey, err := hand.CacheKey()
						if err != nil {
							t.Fatalf("cell %d: hand-written CacheKey: %v", i, err)
						}
						gotKey, err := cells[i].CacheKey()
						if err != nil {
							t.Fatalf("cell %d: sweep cell CacheKey: %v", i, err)
						}
						if gotKey != wantKey {
							t.Errorf("cell %d (%s): sweep cell key diverges from hand-written scenario:\n%s\nvs\n%s",
								i, cells[i].Name, gotKey, wantKey)
						}
						i++
					}
				}
			}
		}
	}
}

// TestSweepCellsDoNotAliasBase: expanding must never mutate the base (or
// share mutable slices with it across cells).
func TestSweepCellsDoNotAliasBase(t *testing.T) {
	sw := allAxesSweep()
	before, err := EncodeScenario(&sw.Base)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	cells[0].Strategies[0].Size = 99
	cells[0].Mix.NodeLoss[0] = 0.123
	after, err := EncodeScenario(&sw.Base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("mutating an expanded cell changed the sweep base")
	}
	if cells[16].Mix.NodeLoss[0] == 0.123 {
		t.Fatal("cells share a NodeLoss slice")
	}
}

// TestPlanSweepTraceDedup: cells differing only in strategies/mixes share
// one trace node, and exactly the first referencing cell is the builder.
func TestPlanSweepTraceDedup(t *testing.T) {
	sw := &Sweep{
		Name: "dedup",
		Base: sweepBase(),
		Axes: SweepAxes{
			Strategies: [][]StrategySpec{{{Kind: "naive", Size: 8}}, {{Kind: "hierarchical"}}},
			Mixes: []MixSpec{
				{Transient: 0.05, NodeLoss: []float64{0.9}},
				{Transient: 0.5, NodeLoss: []float64{0.5}},
			},
		},
	}
	plan, err := PlanSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 4 {
		t.Fatalf("planned %d cells, want 4", len(plan.Cells))
	}
	if plan.TraceBuilds != 1 || plan.TraceRefs != 4 {
		t.Fatalf("trace builds/refs = %d/%d, want 1/4", plan.TraceBuilds, plan.TraceRefs)
	}
	builders := 0
	for _, c := range plan.Cells {
		if c.TraceNode != 0 {
			t.Fatalf("cell %d on trace node %d, want 0", c.Index, c.TraceNode)
		}
		if c.TraceBuilder {
			builders++
			if c.Index != 0 {
				t.Fatalf("cell %d designated trace builder, want cell 0", c.Index)
			}
		}
	}
	if builders != 1 {
		t.Fatalf("%d designated builders, want 1", builders)
	}
	// Partitions: strategy sets differ per cell but mixes don't affect the
	// clustering, so cells 0/1 (naive) share one node and cells 2/3
	// (hierarchical) share another.
	if plan.PartitionBuilds != 2 || plan.PartitionRefs != 4 {
		t.Fatalf("partition builds/refs = %d/%d, want 2/4", plan.PartitionBuilds, plan.PartitionRefs)
	}
	if plan.Cells[0].PartNodes[0] != plan.Cells[1].PartNodes[0] {
		t.Fatal("same-strategy cells did not share a partition node")
	}
	if plan.Cells[0].PartNodes[0] == plan.Cells[2].PartNodes[0] {
		t.Fatal("different-strategy cells shared a partition node")
	}
	if r := plan.DedupRatio(); r <= 0.5 || r >= 1 {
		t.Fatalf("dedup ratio = %g, want in (0.5, 1) for 3 builds / 8 refs", r)
	}
}

// TestPlanSweepFileTracePrivate: an uncacheable ("file") trace plans as a
// private build per cell, and so does every clustering that may read it
// and every logged fraction over it — no cross-cell poisoning. A flat
// strategy's clustering reads no trace, so its cells still share one.
func TestPlanSweepFileTracePrivate(t *testing.T) {
	base := sweepBase()
	base.Trace = TraceSpec{Source: "file", Path: "/tmp/nonexistent.hctr"}
	sw := &Sweep{
		Name: "private",
		Base: base,
		Axes: SweepAxes{
			Strategies: [][]StrategySpec{{{Kind: "naive", Size: 8}}, {{Kind: "hierarchical"}}},
			Mixes: []MixSpec{
				{Transient: 0.05, NodeLoss: []float64{0.9}},
				{Transient: 0.5, NodeLoss: []float64{0.5}},
			},
		},
	}
	plan, err := PlanSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TraceBuilds != 4 || plan.TraceRefs != 4 {
		t.Fatalf("trace builds/refs = %d/%d, want 4/4 (private)", plan.TraceBuilds, plan.TraceRefs)
	}
	if plan.PartitionBuilds != 1+2 || plan.PartitionRefs != 4 {
		t.Fatalf("partition builds/refs = %d/%d, want 3/4 (naive shared, hierarchical private)", plan.PartitionBuilds, plan.PartitionRefs)
	}
	for _, c := range plan.Cells {
		if c.TraceNode != -1 || !c.TraceBuilder {
			t.Fatalf("cell %d: TraceNode=%d TraceBuilder=%v, want private builder", c.Index, c.TraceNode, c.TraceBuilder)
		}
		want := -1 // hierarchical: private
		if c.Scenario.Strategies[0].Kind == "naive" {
			want = 0
		}
		if c.PartNodes[0] != want {
			t.Fatalf("cell %d (%s): partition node %d, want %d", c.Index, c.Scenario.Strategies[0].Kind, c.PartNodes[0], want)
		}
		if c.loggedNodes[0] != -1 {
			t.Fatalf("cell %d: logged fraction shared over an uncacheable trace", c.Index)
		}
	}
	if r := plan.DedupRatio(); r != 1-7.0/8 {
		t.Fatalf("dedup ratio = %g, want 1/8", r)
	}
}
