package harness

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hierclust/internal/core"
	"hierclust/internal/erasure"
	"hierclust/internal/reliability"
	"hierclust/internal/topology"
)

// referenceFigs34 composes the rows of Figs. 3a, 3b (without -timings), 4a,
// 4b and 4c as the harness did before they ran on the Pipeline: core.Naive
// and core.Distributed scored by hand on tracedRig's run, and for Fig. 4a
// consecutive and striped (g + j·k) groups on 128 × 8 block-placed ranks
// (32 × 4 under Quick) weighed by a reliability.Model of its own.
func referenceFigs34(t *testing.T, cfg Config) map[string]*Table {
	t.Helper()
	cfg.normalize()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	r, err := tracedRig(cfg)
	must(err)
	logged := func(c *core.Clustering) float64 {
		v, err := r.matrix.LoggedFraction(c.L1)
		must(err)
		return v * 100
	}
	restart := func(c *core.Clustering) float64 {
		v, err := core.RecoveryFraction(c, r.placement)
		must(err)
		return v * 100
	}
	want := map[string]*Table{"fig3a": {}, "fig3b": {}, "fig4a": {}, "fig4b": {}, "fig4c": {}}
	for _, size := range sweepSizes(cfg.Ranks/2, 1) {
		c, err := core.Naive(cfg.Ranks, size)
		must(err)
		proc, err := core.RecoveryFractionProcess(c)
		must(err)
		want["fig3a"].AddRow(size, logged(c), restart(c), proc*100)
		if size >= 4 && size <= 128 {
			want["fig3b"].AddRow(size, logged(c), erasure.ModelEncodeSeconds(size, 1e9), "-")
		}
	}
	for _, size := range sweepSizes(min(cfg.Ranks/2, 64), 2) {
		nonDist, err := core.Naive(cfg.Ranks, size)
		must(err)
		dist, err := core.Distributed(cfg.Ranks, size)
		must(err)
		want["fig4b"].AddRow(size, logged(nonDist), logged(dist))
		want["fig4c"].AddRow(size, restart(nonDist), restart(dist))
	}

	nodes, ppn := 128, 8
	if cfg.Quick {
		nodes, ppn = 32, 4
	}
	mach, err := topology.Tsubame2().Subset(nodes)
	must(err)
	p, err := topology.Block(mach, nodes*ppn, ppn)
	must(err)
	mdl := &reliability.Model{Nodes: p.NumUsed(), Mix: reliability.DefaultMix()}
	want["fig4a"].Title = fmt.Sprintf("reliability, %d nodes x %d procs", p.NumUsed(), ppn)
	for _, size := range []int{4, 8, 16} {
		k := p.NumRanks() / size
		var consecutive, striped []reliability.Group
		for g := 0; g < k; g++ {
			var cons, str []topology.Rank
			for j := 0; j < size; j++ {
				cons = append(cons, topology.Rank(g*size+j))
				str = append(str, topology.Rank(g+j*k))
			}
			consecutive = append(consecutive, reliability.GroupFromRanks(p, cons))
			striped = append(striped, reliability.GroupFromRanks(p, str))
		}
		pn, err := mdl.CatastropheProb(consecutive)
		must(err)
		pd, err := mdl.CatastropheProb(striped)
		must(err)
		improvement := "inf"
		if pd > 0 {
			improvement = fmt.Sprintf("%.2g", pn/pd)
		}
		want["fig4a"].AddRow(size, pn, pd, improvement)
	}
	return want
}

// TestFigs34MatchReference holds every row of Figs. 3a, 3b, 4a, 4b and 4c,
// at the quick and the paper scale, to the composition the figures used
// before they became Pipeline scenarios, and at paper scale pins the claims
// their notes make.
func TestFigs34MatchReference(t *testing.T) {
	figs := map[string]func(Config) (*Table, error){"fig3a": Fig3a, "fig3b": Fig3b, "fig4a": Fig4a, "fig4b": Fig4b, "fig4c": Fig4c}
	for _, cfg := range []Config{{Quick: true}, {}} {
		want := referenceFigs34(t, cfg)
		got := map[string]*Table{}
		for id, fig := range figs {
			table, err := fig(cfg)
			if err != nil {
				t.Fatalf("quick=%v: %s: %v", cfg.Quick, id, err)
			}
			got[id] = table
			if !reflect.DeepEqual(table.Rows, want[id].Rows) {
				t.Errorf("quick=%v: %s rows differ from the reference composition\n got %v\nwant %v", cfg.Quick, id, table.Rows, want[id].Rows)
			}
		}
		if got["fig4a"].Title != want["fig4a"].Title {
			t.Errorf("quick=%v: fig4a title %q, want %q", cfg.Quick, got["fig4a"].Title, want["fig4a"].Title)
		}
		if cfg.Quick {
			continue
		}
		if note := got["fig3a"].Notes[0]; !strings.Contains(note, "at cluster size 32;") {
			t.Errorf("fig3a sweet spot: %q, want cluster size 32", note)
		}
		for _, row := range got["fig4c"].Rows {
			if row[0] == "32" && (row[1] != "3.125" || row[2] != "50.000") {
				t.Errorf("fig4c size 32: %s%% vs %s%%, want 3.125%% vs 50.000%%", row[1], row[2])
			}
		}
		for _, row := range got["fig4a"].Rows {
			pn, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			if (row[0] == "4" || row[0] == "8") && pn < 0.9 {
				t.Errorf("fig4a size %s: non-distributed P(cat) %g, want >= 0.9", row[0], pn)
			}
			if gain, err := strconv.ParseFloat(row[3], 64); err != nil || gain < 1e6 {
				t.Errorf("fig4a size %s: distributed %s x safer, want >= 1e6", row[0], row[3])
			}
		}
	}
	// At 2 ranks fig3b has no size from 4 up, and fig4b and fig4c none from
	// 2 up to half the ranks: each prints its header with no rows, not an
	// error.
	for _, id := range []string{"fig3b", "fig4b", "fig4c"} {
		table, err := figs[id](Config{Ranks: 2, ProcsPerNode: 1, Iterations: 2})
		if err != nil {
			t.Fatalf("2 ranks: %s: %v", id, err)
		}
		if len(table.Rows) != 0 || len(table.Columns) == 0 {
			t.Errorf("2 ranks: %s has %d rows and %d columns, want a header-only table", id, len(table.Rows), len(table.Columns))
		}
	}
}
