package harness

import (
	"context"
	"fmt"
	"sort"

	"hierclust/internal/topology"
	"hierclust/internal/trace"
	"hierclust/pkg/hierclust"
)

// Config scales the experiments. The zero value is upgraded to the paper's
// full configuration (1024 ranks, 64 nodes × 16); Quick shrinks everything
// for tests and laptops.
type Config struct {
	// Ranks is the application process count (paper: 1024).
	Ranks int
	// ProcsPerNode is the application ranks per node (paper: 16).
	ProcsPerNode int
	// Iterations is the traced stencil length (paper: 100).
	Iterations int
	// Quick shrinks the run for fast smoke tests.
	Quick bool
	// MaxRanks extends the scaling experiment beyond traced runs with
	// synthetically generated stencil traces, doubling from 4096 ranks up
	// to this bound (hcrun -maxranks). 0 disables the synthetic axis, and
	// the scaling table is then byte-identical to previous releases. The
	// synthetic rows run the pipeline end to end on the implicit stencil
	// trace (trace.Stencil): no rank matrix, dense or sparse, and no simmpi
	// run is involved at any size.
	MaxRanks int
	// Timings enables wall-clock measurement columns (fig3b's measured
	// encode times). Off by default so experiment tables are deterministic
	// and byte-comparable across runs and worker counts; turn on (hcrun
	// -timings) to validate the measured linear-in-k encode law.
	Timings bool
}

func (c *Config) normalize() {
	if c.Quick {
		// 256 ranks on 32 nodes: the smallest scale where a 4-node L1
		// cluster (32 ranks) stays under the 20% restart baseline.
		if c.Ranks == 0 {
			c.Ranks = 256
		}
		if c.ProcsPerNode == 0 {
			c.ProcsPerNode = 8
		}
		if c.Iterations == 0 {
			c.Iterations = 20
		}
		return
	}
	if c.Ranks == 0 {
		c.Ranks = 1024
	}
	if c.ProcsPerNode == 0 {
		c.ProcsPerNode = 16
	}
	if c.Iterations == 0 {
		c.Iterations = 100
	}
}

// Experiment pairs an identifier with its generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "TSUBAME2 architecture (paper Table I)", Table1},
		{"fig3a", "Recovery cost vs. message logging overhead (naive clustering)", Fig3a},
		{"fig3b", "Encoding time vs. message logging overhead", Fig3b},
		{"fig4a", "Reliability: distributed vs. non-distributed groups", Fig4a},
		{"fig4b", "Logging overhead: distributed vs. non-distributed", Fig4b},
		{"fig4c", "Restart cost: distributed vs. non-distributed", Fig4c},
		{"fig5a", "Traced communication matrix, full run", Fig5a},
		{"fig5b", "Traced communication matrix, zoom on first 4 nodes", Fig5b},
		{"fig5c", "Normalized four-dimension comparison vs. baseline", Fig5c},
		{"table2", "Clustering comparison (paper Table II)", Table2},
		{"protocol", "Hybrid protocol end-to-end with failure injection (extension)", Protocol},
		{"ablation", "Design-choice ablations from DESIGN.md (extension)", Ablation},
		{"scaling", "Hierarchical clustering from 64 to 1024 ranks (extension)", Scaling},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var known []string
	for _, e := range All() {
		known = append(known, e.ID)
	}
	sort.Strings(known)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, known)
}

// pipeline is the process's one owner of traced runs: it scores the
// four-dimension tables (table2, fig5c, scaling) and the size studies
// (fig3a, fig3b, fig4a–fig4c) — the engine behind hcserve and sweeps — and
// the experiments that read a raw trace take theirs from it (tracedRig), so
// each run is traced once per process, whichever experiment asks first. Its
// cache holds 7 runs: the most one hcrun process traces is cfg's run, the
// protocol rig's, and the five tsunami rungs of scaling. fig4a's synthetic
// trace needs no entry: the cache keeps only traced (tsunami) runs.
var pipeline = hierclust.NewPipeline(hierclust.WithTraceCache(hierclust.NewMemoryTraceCache(7)))

// scenario is the traced application run cfg describes, as a Pipeline
// scenario scoring strategies: cfg.Ranks block-placed cfg.ProcsPerNode per
// node on as many TSUBAME2 nodes, tracing cfg.Iterations tsunami steps.
func (c Config) scenario(name string, strategies ...hierclust.StrategySpec) (*hierclust.Scenario, error) {
	if c.Ranks%c.ProcsPerNode != 0 {
		return nil, fmt.Errorf("harness: %d ranks not divisible by %d per node", c.Ranks, c.ProcsPerNode)
	}
	return &hierclust.Scenario{
		Name:       name,
		Machine:    hierclust.MachineSpec{Model: "tsubame2", Nodes: c.Ranks / c.ProcsPerNode},
		Placement:  hierclust.PlacementSpec{Policy: "block", Ranks: c.Ranks, ProcsPerNode: c.ProcsPerNode},
		Trace:      hierclust.TraceSpec{Source: "tsunami", Iterations: c.Iterations},
		Strategies: strategies,
	}, nil
}

// rig is one application-only traced run: the frozen matrix and the block
// placement of its ranks.
type rig struct {
	matrix    *trace.CSR
	placement *topology.Placement
}

// tracedRig is the raw application-only run of cfg's scenario, for the
// experiments that read a trace rather than score strategies: the run the
// pipeline evaluates, with its placement.
func tracedRig(cfg Config) (*rig, error) {
	cfg.normalize()
	sc, err := cfg.scenario("rig")
	if err != nil {
		return nil, err
	}
	comm, placement, err := pipeline.Trace(context.TODO(), sc)
	if err != nil {
		return nil, err
	}
	return &rig{matrix: comm.(*trace.CSR), placement: placement}, nil // a recorded run is a CSR
}

// Table1 renders the TSUBAME2 constants used by the models (paper Table I).
func Table1(cfg Config) (*Table, error) {
	m := topology.Tsubame2()
	t := &Table{
		ID:      "table1",
		Title:   "TSUBAME2 architecture model",
		Columns: []string{"parameter", "value"},
	}
	t.AddRow("nodes", m.Nodes)
	t.AddRow("cores/node", m.CoresPerNode)
	t.AddRow("SSD write (MB/s)", m.SSDWriteBps/1e6)
	t.AddRow("SSD read (MB/s)", m.SSDReadBps/1e6)
	t.AddRow("Lustre write (GB/s)", m.PFSWriteBps/1e9)
	t.AddRow("network (GB/s, dual-rail QDR)", m.NetBps/1e9)
	t.AddRow("memory/node (GB)", float64(m.MemPerNode)/1e9)
	t.Notes = append(t.Notes, "constants from paper Table I; consumed by internal/storage and internal/checkpoint")
	return t, nil
}
