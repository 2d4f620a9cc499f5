package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"hierclust/internal/erasure"
	"hierclust/internal/faultinject"
	"hierclust/internal/trace"
	"hierclust/pkg/hierclust"
)

var quick = Config{Quick: true}

// runExp runs one experiment in quick mode and sanity-checks the table.
func runExp(t *testing.T, id string) *Table {
	t.Helper()
	exp, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	table, err := exp.Run(quick)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if table.ID != id {
		t.Errorf("table ID = %q, want %q", table.ID, id)
	}
	if len(table.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	ascii := table.ASCII()
	if !strings.Contains(ascii, id) {
		t.Errorf("%s ASCII missing id:\n%s", id, ascii)
	}
	if csv := table.CSV(); !strings.Contains(csv, table.Columns[0]) {
		t.Errorf("%s CSV missing header", id)
	}
	return table
}

// cell parses a float cell.
func cell(t *testing.T, table *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(table.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, table.Rows[row][col], err)
	}
	return v
}

func findRow(t *testing.T, table *Table, key string) []string {
	t.Helper()
	for _, row := range table.Rows {
		if row[0] == key || strings.HasPrefix(row[0], key) {
			return row
		}
	}
	t.Fatalf("row %q not found in %s:\n%s", key, table.ID, table.ASCII())
	return nil
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("nonsense"); err == nil {
		t.Error("ByID accepted unknown id")
	}
	if len(All()) < 10 {
		t.Errorf("All() returned %d experiments", len(All()))
	}
}

func TestTable1(t *testing.T) {
	table := runExp(t, "table1")
	row := findRow(t, table, "nodes")
	if row[1] != "1408" {
		t.Errorf("nodes = %q, want 1408", row[1])
	}
}

func TestFig3aShape(t *testing.T) {
	table := runExp(t, "fig3a")
	// logged % must decrease monotonically with size; restart % (node)
	// must be non-decreasing.
	for i := 1; i < len(table.Rows); i++ {
		prevLogged, curLogged := cell(t, table, i-1, 1), cell(t, table, i, 1)
		if curLogged > prevLogged+1e-9 {
			t.Errorf("logged %% increased from %g to %g at row %d", prevLogged, curLogged, i)
		}
		prevRec, curRec := cell(t, table, i-1, 2), cell(t, table, i, 2)
		if curRec < prevRec-1e-9 {
			t.Errorf("restart %% decreased from %g to %g at row %d", prevRec, curRec, i)
		}
	}
}

func TestFig3bEncodeLinear(t *testing.T) {
	exp, err := ByID("fig3b")
	if err != nil {
		t.Fatal(err)
	}
	table, err := exp.Run(Config{Quick: true, Timings: true})
	if err != nil {
		t.Fatal(err)
	}
	// model column doubles with size
	for i := 1; i < len(table.Rows); i++ {
		prev, cur := cell(t, table, i-1, 2), cell(t, table, i, 2)
		if cur/prev < 1.9 || cur/prev > 2.1 {
			t.Errorf("model encode time not linear: %g -> %g", prev, cur)
		}
	}
	// measured column must grow with size too (loosely: last > first)
	first, last := cell(t, table, 0, 3), cell(t, table, len(table.Rows)-1, 3)
	if last <= first {
		t.Errorf("measured encode not growing: first %gms last %gms", first, last)
	}
	// a filled column is fractional ms (k=4 takes far under 1 ms), names the
	// shard size it encoded and the kernel that did it
	if first <= 0 {
		t.Errorf("measured encode at the smallest group = %g ms, want > 0 (truncated?)", first)
	}
	if got := table.Columns[3]; !strings.Contains(got, "64KiB shards") {
		t.Errorf("measured column header %q does not name the -quick shard size", got)
	}
	if notes := strings.Join(table.Notes, "\n"); !strings.Contains(notes, erasure.Kernel()+" multiply kernel") {
		t.Errorf("notes do not name the %s kernel:\n%s", erasure.Kernel(), notes)
	}
	// without Timings the measured column is deterministic
	plain := runExp(t, "fig3b")
	for i := range plain.Rows {
		if got := plain.Rows[i][3]; got != "-" {
			t.Errorf("row %d measured cell = %q without Timings, want \"-\"", i, got)
		}
	}
}

func TestFig4aDistributionWins(t *testing.T) {
	table := runExp(t, "fig4a")
	for i := range table.Rows {
		nonDist, dist := cell(t, table, i, 1), cell(t, table, i, 2)
		if dist*100 > nonDist {
			t.Errorf("row %d: distributed %g not ≫ better than non-distributed %g", i, dist, nonDist)
		}
	}
}

func TestFig4bDistributedLogsEverything(t *testing.T) {
	table := runExp(t, "fig4b")
	for i := range table.Rows {
		if d := cell(t, table, i, 2); d < 90 {
			t.Errorf("distributed logged%% = %g, want ~100", d)
		}
		if n := cell(t, table, i, 1); n >= cell(t, table, i, 2) {
			t.Errorf("non-distributed (%g) should log less than distributed", n)
		}
	}
}

func TestFig4cAmplification(t *testing.T) {
	table := runExp(t, "fig4c")
	// At some cluster size the distributed restart cost must be at least
	// 4x the non-distributed one (paper: 3% vs 50% at size 32).
	best := 0.0
	for i := range table.Rows {
		nd, d := cell(t, table, i, 1), cell(t, table, i, 2)
		if nd > 0 && d/nd > best {
			best = d / nd
		}
	}
	if best < 4 {
		t.Errorf("max distributed/non-distributed restart ratio = %g, want >= 4\n%s", best, table.ASCII())
	}
}

func TestFig5aDiagonalDominates(t *testing.T) {
	table := runExp(t, "fig5a")
	row := findRow(t, table, "diagonal share %")
	share, err := strconv.ParseFloat(row[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if share < 50 {
		t.Errorf("double diagonal carries %g%% of bytes, want >50%%", share)
	}
}

func TestFig5bFeaturesPresent(t *testing.T) {
	table := runExp(t, "fig5b")
	for _, row := range table.Rows {
		if row[1] != "yes" {
			t.Errorf("feature %q = %q, want yes", row[0], row[1])
		}
	}
}

// fig5a and fig5b each record the encoder-rank run, so the two records of
// one config must be the same matrix byte for byte; Quick (a different
// checkpoint size) records another.
func TestEncodedRigDeterministic(t *testing.T) {
	hctr := func(c *trace.CSR) []byte {
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, err := encodedRig(quick)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodedRig(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hctr(a), hctr(b)) {
		t.Error("two encodedRig calls with one config recorded different matrices")
	}
	full, err := encodedRig(Config{Ranks: 256, ProcsPerNode: 8, Iterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	if full.TotalBytes() == a.TotalBytes() {
		t.Error("quick and full checkpoint sizes recorded the same traffic")
	}
}

// A traced run is recorded once whichever side asks first: the pipeline
// finds a run tracedRig recorded, and tracedRig reads the one the pipeline
// stored.
func TestTracedRunsShared(t *testing.T) {
	naive := hierclust.StrategySpec{Kind: "naive", Size: 8}
	for _, rigFirst := range []bool{true, false} {
		cfg := Config{Ranks: 64, ProcsPerNode: 8, Iterations: 3}
		if rigFirst {
			cfg.Iterations = 4 // a key no other test records
		}
		sc, err := cfg.scenario("shared", naive)
		if err != nil {
			t.Fatal(err)
		}
		var r *rig
		if rigFirst {
			if r, err = tracedRig(cfg); err != nil {
				t.Fatal(err)
			}
		}
		res, err := pipeline.Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if !rigFirst {
			if r, err = tracedRig(cfg); err != nil {
				t.Fatal(err)
			}
		}
		c, _, err := pipeline.Trace(context.Background(), sc)
		if err != nil || c != hierclust.Comm(r.matrix) || res.TotalBytes != r.matrix.TotalBytes() {
			t.Errorf("rig first %v: the pipeline and tracedRig hold different runs (%v)", rigFirst, err)
		}
	}
}

// A tracedRig call that starts while pipeline.Run builds the same fresh key
// joins that build instead of tracing the run again: the build passes its
// fault point once, and the run it cached is the one tracedRig returned.
func TestTracedRigJoinsPipelineBuild(t *testing.T) {
	// Hold the pipeline's build open so tracedRig arrives while it is in flight.
	faultinject.Arm("pipeline.trace.build", faultinject.Fault{Kind: faultinject.KindLatency, Delay: 100 * time.Millisecond})
	defer faultinject.DisarmAll()
	// A fresh pipeline: the key is fresh at every -count.
	defer func(shared *hierclust.Pipeline) { pipeline = shared }(pipeline)
	pipeline = hierclust.NewPipeline(hierclust.WithTraceCache(hierclust.NewMemoryTraceCache(1)))
	cfg := Config{Ranks: 64, ProcsPerNode: 8, Iterations: 6}
	sc, err := cfg.scenario("race", hierclust.StrategySpec{Kind: "naive", Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() {
		_, err := pipeline.Run(context.Background(), sc)
		ran <- err
	}()
	time.Sleep(5 * time.Millisecond)
	r, err := tracedRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	if n := faultinject.Triggered("pipeline.trace.build"); n != 1 {
		t.Errorf("%d traced runs of one key, want 1", n)
	}
	if c, _, err := pipeline.Trace(context.Background(), sc); err != nil || c != hierclust.Comm(r.matrix) {
		t.Errorf("tracedRig returned a run other than the one the pipeline cached (%v)", err)
	}
}

func TestFig5cOnlyHierarchicalPasses(t *testing.T) {
	table := runExp(t, "fig5c")
	passes := map[string]string{}
	for _, row := range table.Rows {
		passes[row[0]] = row[len(row)-1]
	}
	if passes["hierarchical"] != "yes" {
		t.Errorf("hierarchical verdict = %q, want yes\n%s", passes["hierarchical"], table.ASCII())
	}
	for name, verdict := range passes {
		if name != "hierarchical" && verdict == "yes" {
			t.Errorf("%s unexpectedly within baseline", name)
		}
	}
}

func TestTable2QuickShape(t *testing.T) {
	table := runExp(t, "table2")
	if len(table.Rows) != 4 {
		t.Fatalf("table2 has %d rows, want 4", len(table.Rows))
	}
	hier := findRow(t, table, "hierarchical")
	logged, _ := strconv.ParseFloat(hier[1], 64)
	if logged > 20 {
		t.Errorf("hierarchical logged %% = %g, want small", logged)
	}
	// paper columns present for all strategies at quick scale except the
	// renamed quick sizes
	if table.Columns[5] != "paper logged %" {
		t.Errorf("missing paper columns: %v", table.Columns)
	}
}

func TestProtocolEndToEnd(t *testing.T) {
	table := runExp(t, "protocol")
	if len(table.Rows) != 4 {
		t.Fatalf("protocol rows = %d, want 4", len(table.Rows))
	}
	for _, row := range table.Rows {
		name, match := row[0], row[len(row)-1]
		switch {
		case strings.HasPrefix(name, "size-guided"):
			if row[5] != "UNRECOVERABLE" {
				t.Errorf("size-guided should be unrecoverable, got %v", row)
			}
		default:
			if match != "yes" {
				t.Errorf("%s final state does not match reference: %v", name, row)
			}
		}
	}
	// distributed restarts everything; hierarchical restarts less.
	dist := findRow(t, table, "distributed")
	hier := findRow(t, table, "hierarchical")
	distPct, _ := strconv.ParseFloat(dist[2], 64)
	hierPct, _ := strconv.ParseFloat(hier[2], 64)
	if distPct != 100 {
		t.Errorf("distributed restart %% = %g, want 100", distPct)
	}
	if hierPct >= distPct {
		t.Errorf("hierarchical restart %% (%g) should be below distributed (%g)", hierPct, distPct)
	}
}

func TestAblation(t *testing.T) {
	table := runExp(t, "ablation")
	if len(table.Rows) < 4 {
		t.Fatalf("ablation rows = %d, want >= 4", len(table.Rows))
	}
	base := table.Rows[0]
	basePcat, err := strconv.ParseFloat(base[3], 64)
	if err != nil {
		t.Fatalf("base P(cat) %q: %v", base[3], err)
	}
	coloc := findRow(t, table, "co-located L2 groups")
	colocPcat, err := strconv.ParseFloat(coloc[3], 64)
	if err != nil {
		t.Fatal(err)
	}
	if colocPcat < 100*basePcat {
		t.Errorf("co-located L2 P(cat) %g should be ≫ default %g", colocPcat, basePcat)
	}
	small := findRow(t, table, "min 2 nodes per L1")
	smallPcat, err := strconv.ParseFloat(small[3], 64)
	if err != nil {
		t.Fatal(err)
	}
	if smallPcat <= basePcat {
		t.Errorf("2-node L1 P(cat) %g should exceed default %g", smallPcat, basePcat)
	}
}

func TestScaling(t *testing.T) {
	table := runExp(t, "scaling")
	if len(table.Rows) < 3 {
		t.Fatalf("scaling rows = %d", len(table.Rows))
	}
	// Restart % must be non-increasing with scale; the largest quick scale
	// must be within the baseline.
	for i := 1; i < len(table.Rows); i++ {
		prev, cur := cell(t, table, i-1, 4), cell(t, table, i, 4)
		if cur > prev+1e-9 {
			t.Errorf("restart %% grew with scale: %g -> %g", prev, cur)
		}
	}
	last := table.Rows[len(table.Rows)-1]
	if last[len(last)-1] != "yes" {
		t.Errorf("largest scale not within baseline: %v", last)
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	tb.AddRow(1, 2.5)
	tb.AddRow("with,comma", 1e-7)
	ascii := tb.ASCII()
	if !strings.Contains(ascii, "2.500") {
		t.Errorf("float formatting wrong:\n%s", ascii)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, `"with,comma"`) {
		t.Errorf("CSV quoting wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "1e-07") {
		t.Errorf("small float formatting wrong:\n%s", csv)
	}
}

// TestSyntheticHeatmapArtifacts: with the synthetic axis configured,
// fig5a/fig5b artifact dumps must include the sparse-downsampled PGM and
// triplet CSV rendered from the generated CSR — no dense recorder at the
// synthetic scale.
func TestSyntheticHeatmapArtifacts(t *testing.T) {
	dir := t.TempDir()
	table := &Table{ID: "fig5a", Title: "t", Columns: []string{"a"}}
	table.AddRow("x")
	cfg := Config{Quick: true, MaxRanks: 4096}
	if err := WriteArtifacts(dir, table, cfg, "fig5a"); err != nil {
		t.Fatal(err)
	}
	pgm, err := os.ReadFile(filepath.Join(dir, "fig5a_synthetic.pgm"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(pgm), "P2\n1024 1024\n255\n") {
		t.Fatalf("synthetic PGM header = %q", string(pgm[:24]))
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig5a_synthetic.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "src,dst,bytes,msgs\n") {
		t.Fatal("synthetic CSV missing triplet header")
	}
	// fig5b: the zoom artifact covers the first four nodes' ranks only.
	if err := WriteArtifacts(dir, table, cfg, "fig5b"); err != nil {
		t.Fatal(err)
	}
	zoom, err := os.ReadFile(filepath.Join(dir, "fig5b_synthetic.pgm"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(zoom), "P2\n32 32\n255\n") { // 4 nodes × 8 ranks (quick)
		t.Fatalf("fig5b synthetic PGM header = %q", string(zoom[:16]))
	}
}

// TestHeatmapArtifactsAreTheTablesRun: the fig5 -out matrix is the run the
// fig5a table summarizes — its cells sum to the table's "total bytes" —
// and fig5b's is the 4·(ppn+1)-rank corner of that same matrix.
func TestHeatmapArtifactsAreTheTablesRun(t *testing.T) {
	cfg := Config{Quick: true}
	table, err := Fig5a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, id := range []string{"fig5a", "fig5b"} {
		if err := WriteArtifacts(dir, table, cfg, id); err != nil {
			t.Fatal(err)
		}
	}
	grid := func(id string) [][]string {
		raw, err := os.ReadFile(filepath.Join(dir, id+"_matrix.csv"))
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]string
		for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
			rows = append(rows, strings.Split(line, ","))
		}
		return rows
	}
	full, zoom := grid("fig5a"), grid("fig5b")
	var sum int64
	for _, row := range full {
		for _, cell := range row {
			b, err := strconv.ParseInt(cell, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			sum += b
		}
	}
	total := ""
	for _, row := range table.Rows {
		if row[0] == "total bytes" {
			total = row[1]
		}
	}
	if total != strconv.FormatInt(sum, 10) {
		t.Errorf("fig5a_matrix.csv cells sum to %d; the fig5a table says total bytes = %q", sum, total)
	}
	cfg.normalize()
	if want := 4 * (cfg.ProcsPerNode + 1); len(zoom) != want {
		t.Fatalf("fig5b_matrix.csv has %d rows, want %d", len(zoom), want)
	}
	for s, row := range zoom {
		if !slices.Equal(row, full[s][:len(zoom)]) {
			t.Fatalf("fig5b_matrix.csv row %d is not the corner of fig5a_matrix.csv", s)
		}
	}
}
