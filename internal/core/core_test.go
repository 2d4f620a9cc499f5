package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"hierclust/internal/reliability"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
)

// paperRig reproduces the paper's evaluation platform: 1024 ranks on 64
// nodes (16 per node, block placement) running a 1-D neighbor-exchange
// tsunami stencil (the ±1 double diagonal of Fig. 5b).
func paperRig(t *testing.T) (*trace.CSR, *topology.Placement) {
	t.Helper()
	mach := &topology.Machine{Name: "t", Nodes: 64}
	p, err := topology.Block(mach, 1024, 16)
	if err != nil {
		t.Fatal(err)
	}
	return ring(1024, 1_000_000), p
}

// ring records the ±1 neighbour exchange of n ranks, bytes each way.
func ring(n, bytes int) *trace.CSR {
	rec := trace.NewRecorder(n)
	for r := 0; r+1 < n; r++ {
		rec.Record(r, r+1, bytes)
		rec.Record(r+1, r, bytes)
	}
	return rec.Freeze()
}

func TestNaiveClusteringShape(t *testing.T) {
	c, err := Naive(1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(1024); err != nil {
		t.Fatal(err)
	}
	if c.NumClusters() != 32 {
		t.Errorf("NumClusters = %d, want 32", c.NumClusters())
	}
	if c.MaxGroupSize() != 32 {
		t.Errorf("MaxGroupSize = %d, want 32", c.MaxGroupSize())
	}
	if c.L1[0] != 0 || c.L1[31] != 0 || c.L1[32] != 1 {
		t.Error("naive clusters not consecutive")
	}
	if _, err := Naive(10, 0); err == nil {
		t.Error("accepted size 0")
	}
	if _, err := Naive(10, 11); err == nil {
		t.Error("accepted size > nranks")
	}
}

func TestDistributedClusteringShape(t *testing.T) {
	_, p := paperRig(t)
	c, err := Distributed(1024, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(1024); err != nil {
		t.Fatal(err)
	}
	if c.NumClusters() != 64 {
		t.Errorf("NumClusters = %d, want 64", c.NumClusters())
	}
	// Every group's members must all live on different nodes.
	for gi, g := range c.Groups {
		seen := map[topology.NodeID]bool{}
		for _, r := range g {
			n := p.NodeOf(r)
			if seen[n] {
				t.Fatalf("group %d has two members on node %d", gi, n)
			}
			seen[n] = true
		}
	}
	if _, err := Distributed(10, 0); err == nil {
		t.Error("accepted size 0")
	}
}

func TestHierarchicalConstruction(t *testing.T) {
	m, p := paperRig(t)
	c, err := Hierarchical(m, p, HierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(1024); err != nil {
		t.Fatal(err)
	}
	// 64 path-connected nodes with min/target 4 → 16 L1 clusters of 64
	// consecutive ranks.
	if c.NumClusters() != 16 {
		t.Errorf("NumClusters = %d, want 16", c.NumClusters())
	}
	for _, size := range c.clusterSizes(nil) {
		if size != 64 {
			t.Fatalf("L1 cluster size %d, want 64", size)
		}
	}
	// L2 groups: 4 ranks each, one per node, inside one L1 cluster.
	if len(c.Groups) != 256 { // 16 clusters × 16 process levels
		t.Errorf("groups = %d, want 256", len(c.Groups))
	}
	for gi, g := range c.Groups {
		if len(g) != 4 {
			t.Fatalf("group %d size %d, want 4", gi, len(g))
		}
		nodes := map[topology.NodeID]bool{}
		for _, r := range g {
			nodes[p.NodeOf(r)] = true
		}
		if len(nodes) != 4 {
			t.Fatalf("group %d spans %d nodes, want 4 (distribution)", gi, len(nodes))
		}
	}
	if c.MaxGroupSize() != 4 {
		t.Errorf("MaxGroupSize = %d, want 4", c.MaxGroupSize())
	}
}

func TestHierarchicalValidation(t *testing.T) {
	m, p := paperRig(t)
	short := trace.NewRecorder(10).Freeze()
	if _, err := Hierarchical(short, p, HierOptions{}); err == nil {
		t.Error("accepted mismatched matrix")
	}
	tiny := &topology.Machine{Name: "t", Nodes: 2}
	tp, _ := topology.Block(tiny, 4, 2)
	tm := trace.NewRecorder(4).Freeze()
	if _, err := Hierarchical(tm, tp, HierOptions{MinNodesPerL1: 4}); err == nil {
		t.Error("accepted fewer nodes than MinNodesPerL1")
	}
	_ = m
}

func TestSplitSubgroups(t *testing.T) {
	cases := []struct {
		n    int
		want []int
	}{
		{8, []int{4, 4}},
		{6, []int{6}},
		{9, []int{5, 4}},
		{4, []int{4}},
		{3, []int{3}}, // degenerate: fewer nodes than size → single group
		{13, []int{5, 4, 4}},
	}
	for _, c := range cases {
		// One cluster of c.n nodes behind an empty one: empty buckets
		// contribute no sub-group.
		bounds := subgroupBounds([]int32{0, 0, int32(c.n)}, 4, nil)
		if len(bounds)-1 != len(c.want) {
			t.Errorf("n=%d: %d subgroups, want %d", c.n, len(bounds)-1, len(c.want))
			continue
		}
		for i, want := range c.want {
			if got := int(bounds[i+1] - bounds[i]); got != want {
				t.Errorf("n=%d: subgroup %d size %d, want %d", c.n, i, got, want)
			}
		}
	}
	if got := subgroupBounds([]int32{0, 0}, 4, nil); len(got) != 1 {
		t.Errorf("empty input → %v", got)
	}
	// Two clusters: boundaries continue across buckets.
	if got := subgroupBounds([]int32{0, 9, 13}, 4, nil); !reflect.DeepEqual(got, []int32{0, 5, 9, 13}) {
		t.Errorf("two clusters → %v", got)
	}
}

func TestValidateRejectsCrossClusterGroups(t *testing.T) {
	c := &Clustering{
		Name:   "bad",
		L1:     []int32{0, 0, 1, 1},
		Groups: [][]topology.Rank{{1, 2}}, // spans clusters 0 and 1
	}
	if err := c.Validate(4); err == nil {
		t.Error("accepted group spanning L1 clusters")
	}
	dup := &Clustering{
		Name:   "dup",
		L1:     []int32{0, 0},
		Groups: [][]topology.Rank{{0, 1}, {1}},
	}
	if err := dup.Validate(2); err == nil {
		t.Error("accepted duplicated group membership")
	}
	empty := &Clustering{Name: "e", L1: []int32{0}, Groups: [][]topology.Rank{{}}}
	if err := empty.Validate(1); err == nil {
		t.Error("accepted empty group")
	}
}

// ---------- the Table II reproduction ----------

var (
	evalCache     map[string]*Evaluation
	evalCacheOnce sync.Once
)

// evalAll computes the four Table-II evaluations once per test binary; the
// reliability model dominates the cost and is deterministic.
func evalAll(t *testing.T) map[string]*Evaluation {
	t.Helper()
	evalCacheOnce.Do(func() { evalCache = computeEvalAll(t) })
	if evalCache == nil {
		t.Fatal("evaluation cache failed to build")
	}
	return evalCache
}

func computeEvalAll(t *testing.T) map[string]*Evaluation {
	t.Helper()
	m, p := paperRig(t)
	mix := reliability.DefaultMix()
	out := map[string]*Evaluation{}
	naive, err := Naive(1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := SizeGuided(1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Distributed(1024, 16)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := Hierarchical(m, p, HierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Clustering{naive, sg, dist, hier} {
		e, err := Evaluate(c, m, p, mix)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		out[c.Name] = e
	}
	return out
}

func TestTableIINaive(t *testing.T) {
	e := evalAll(t)["naive-32"]
	// Paper: 3.5% logged, 3.1% recovery, 204s, ~1e-4.
	if math.Abs(e.LoggedFraction-31.0/1023.0) > 1e-9 {
		t.Errorf("logged = %.4f, want %.4f (paper ~3.5%%)", e.LoggedFraction, 31.0/1023.0)
	}
	if math.Abs(e.RecoveryFraction-0.03125) > 1e-9 {
		t.Errorf("recovery = %.4f, want 0.03125 (paper 3.1%%)", e.RecoveryFraction)
	}
	if e.EncodeSecondsPerGB != 204 {
		t.Errorf("encode = %g, want 204", e.EncodeSecondsPerGB)
	}
	if e.CatastropheProb < 2e-5 || e.CatastropheProb > 5e-4 {
		t.Errorf("P(cat) = %g, want ~1e-4", e.CatastropheProb)
	}
}

func TestTableIISizeGuided(t *testing.T) {
	e := evalAll(t)["size-guided-8"]
	// Paper: 12.9% logged, 0.7% recovery, 51s, 0.95. The paper's 0.7% is
	// the single-process-failure metric (one 8-rank cluster of 1024); the
	// node-failure metric doubles it because a 16-core node hosts two
	// 8-rank clusters.
	if math.Abs(e.LoggedFraction-127.0/1023.0) > 1e-9 {
		t.Errorf("logged = %.4f, want %.4f (paper ~12.9%%)", e.LoggedFraction, 127.0/1023.0)
	}
	sg, _ := SizeGuided(1024, 8)
	procRec, err := RecoveryFractionProcess(sg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(procRec-8.0/1024.0) > 1e-9 {
		t.Errorf("process recovery = %.4f, want %.4f (paper 0.7%%)", procRec, 8.0/1024.0)
	}
	if math.Abs(e.RecoveryFraction-16.0/1024.0) > 1e-9 {
		t.Errorf("node recovery = %.4f, want %.4f (two clusters per node)", e.RecoveryFraction, 16.0/1024.0)
	}
	if e.EncodeSecondsPerGB != 51 {
		t.Errorf("encode = %g, want 51", e.EncodeSecondsPerGB)
	}
	if e.CatastropheProb < 0.9 {
		t.Errorf("P(cat) = %g, want ~0.95 (groups die with their node)", e.CatastropheProb)
	}
}

func TestTableIIDistributed(t *testing.T) {
	e := evalAll(t)["distributed-16"]
	// Paper: 100% logged, 25% recovery, 102s, ~1e-15.
	if e.LoggedFraction < 0.99 {
		t.Errorf("logged = %.4f, want ~1.0", e.LoggedFraction)
	}
	if math.Abs(e.RecoveryFraction-0.25) > 1e-9 {
		t.Errorf("recovery = %.4f, want 0.25", e.RecoveryFraction)
	}
	if e.EncodeSecondsPerGB != 102 {
		t.Errorf("encode = %g, want 102", e.EncodeSecondsPerGB)
	}
	if e.CatastropheProb > 1e-9 {
		t.Errorf("P(cat) = %g, want ≲1e-10", e.CatastropheProb)
	}
}

func TestTableIIHierarchical(t *testing.T) {
	e := evalAll(t)["hierarchical"]
	// Paper: 1.9% logged, 6.25% recovery, 25s, ~1e-6.
	if math.Abs(e.LoggedFraction-15.0/1023.0) > 1e-9 {
		t.Errorf("logged = %.4f, want %.4f (paper ~1.9%%)", e.LoggedFraction, 15.0/1023.0)
	}
	if math.Abs(e.RecoveryFraction-0.0625) > 1e-9 {
		t.Errorf("recovery = %.4f, want 0.0625 (paper 6.25%%)", e.RecoveryFraction)
	}
	if e.EncodeSecondsPerGB != 25.5 {
		t.Errorf("encode = %g, want 25.5 (paper rounds to 25)", e.EncodeSecondsPerGB)
	}
	if e.CatastropheProb < 1e-8 || e.CatastropheProb > 1e-4 {
		t.Errorf("P(cat) = %g, want ~1e-6", e.CatastropheProb)
	}
}

func TestOnlyHierarchicalMeetsBaseline(t *testing.T) {
	// The paper's headline claim (Fig. 5c): hierarchical is the only
	// strategy inside the baseline envelope.
	evals := evalAll(t)
	b := DefaultBaseline()
	ok, violations := evals["hierarchical"].Meets(b)
	if !ok {
		t.Errorf("hierarchical violates baseline: %v", violations)
	}
	for _, name := range []string{"naive-32", "size-guided-8", "distributed-16"} {
		if ok, _ := evals[name].Meets(b); ok {
			t.Errorf("%s unexpectedly meets the baseline", name)
		}
	}
}

func TestBaselineViolationMessages(t *testing.T) {
	evals := evalAll(t)
	_, v := evals["distributed-16"].Meets(DefaultBaseline())
	if len(v) < 2 {
		t.Errorf("distributed should violate ≥2 dimensions, got %v", v)
	}
}

func TestNormalizedRadar(t *testing.T) {
	evals := evalAll(t)
	b := DefaultBaseline()
	h := evals["hierarchical"].Normalized(b)
	for i, v := range h {
		if v > 1 {
			t.Errorf("hierarchical dimension %s = %.2f > 1", DimensionNames()[i], v)
		}
	}
	d := evals["distributed-16"].Normalized(b)
	if d[0] <= 1 || d[1] <= 1 {
		t.Errorf("distributed should exceed 1 on logging (%.2f) and recovery (%.2f)", d[0], d[1])
	}
}

func TestRecoveryFractionDistributedAmplification(t *testing.T) {
	// Fig. 4c: at cluster size 32 distributed recovery hits 50% while
	// non-distributed stays at 3.1%.
	_, p := paperRig(t)
	dist, _ := Distributed(1024, 32)
	rd, err := RecoveryFraction(dist, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rd-0.5) > 1e-9 {
		t.Errorf("distributed-32 recovery = %g, want 0.50", rd)
	}
	naive, _ := Naive(1024, 32)
	rn, _ := RecoveryFraction(naive, p)
	if math.Abs(rn-0.03125) > 1e-9 {
		t.Errorf("naive-32 recovery = %g, want 0.03125", rn)
	}
}

func TestCompareTableRendering(t *testing.T) {
	evals := evalAll(t)
	table := CompareTable([]*Evaluation{evals["naive-32"], evals["hierarchical"]}, DefaultBaseline())
	if len(table) == 0 {
		t.Fatal("empty table")
	}
	for _, want := range []string{"naive-32", "hierarchical", "FAIL", "ok"} {
		if !contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if s := evals["hierarchical"].String(); !contains(s, "hierarchical") {
		t.Errorf("String() = %q", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
