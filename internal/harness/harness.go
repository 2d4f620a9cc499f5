package harness

import (
	"fmt"
	"sort"
	"sync"

	"hierclust/internal/topology"
	"hierclust/internal/trace"
	"hierclust/internal/tsunami"
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
	// synthetic rows exercise the sparse (CSR) pipeline end to end: no
	// dense matrix and no simmpi run is involved at any size.
	MaxRanks int
	// Multilevel runs every hierarchical clustering of the scaling
	// experiment through the multilevel node partitioner (hcrun
	// -multilevel) — the scalable path for the 100k+-node synthetic rows.
	// Off (the default) keeps the single-level partitioner and the
	// historical table bytes.
	Multilevel bool
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

// tracedRig is the shared backbone: the tsunami communication matrix traced
// on the simmpi runtime, plus the matching placement. Cached per (ranks,
// procsPerNode, iterations) because several experiments reuse it; ckptBytes
// keys the encoder-rank run of Figures 5a/5b (encodedRig) in the same cache.
// The lock only guards the map; each entry builds under its own sync.Once,
// so the parallel runner can construct rigs with different keys concurrently
// while same-key experiments still share one build.
type rigKey struct {
	ranks, ppn, iters int
	ckptBytes         int // 0: application ranks only
}

var (
	rigMu    sync.Mutex
	rigCache = map[rigKey]*rigEntry{}
)

type rigEntry struct {
	once sync.Once
	rig  *rig
	err  error
}

// rig is one traced run: the frozen matrix and, for the application-only
// run, the block placement of its ranks.
type rig struct {
	matrix    *trace.CSR
	placement *topology.Placement
}

// tsunamiParams picks the tracing grid; the choice lives in the tsunami
// package (TraceParams) so the public pipeline traces identically.
func tsunamiParams(ranks int) tsunami.Params {
	return tsunami.TraceParams(ranks)
}

func tracedRig(cfg Config) (*rig, error) {
	cfg.normalize()
	return cachedRig(rigKey{cfg.Ranks, cfg.ProcsPerNode, cfg.Iterations, 0}, func() (*rig, error) { return buildRig(cfg) })
}

func cachedRig(key rigKey, build func() (*rig, error)) (*rig, error) {
	rigMu.Lock()
	e, ok := rigCache[key]
	if !ok {
		e = &rigEntry{}
		rigCache[key] = e
	}
	rigMu.Unlock()
	e.once.Do(func() { e.rig, e.err = build() })
	return e.rig, e.err
}

func buildRig(cfg Config) (*rig, error) {
	if cfg.Ranks%cfg.ProcsPerNode != 0 {
		return nil, fmt.Errorf("harness: %d ranks not divisible by %d per node", cfg.Ranks, cfg.ProcsPerNode)
	}
	nodes := cfg.Ranks / cfg.ProcsPerNode
	mach, err := topology.Tsubame2().Subset(nodes)
	if err != nil {
		return nil, err
	}
	placement, err := topology.Block(mach, cfg.Ranks, cfg.ProcsPerNode)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(cfg.Ranks)
	if _, err := tsunami.RunTraced(tsunami.TracedOptions{
		Params:     tsunamiParams(cfg.Ranks),
		Iterations: cfg.Iterations,
		Tracer:     rec,
	}); err != nil {
		return nil, err
	}
	return &rig{matrix: rec.Freeze(), placement: placement}, nil
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
	t.Notes = append(t.Notes, "constants from paper Table I; consumed by internal/storage and internal/models")
	return t, nil
}
