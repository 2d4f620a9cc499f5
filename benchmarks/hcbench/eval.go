package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"hierclust/internal/core"
	"hierclust/internal/graph"
	"hierclust/internal/reliability"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
	"hierclust/pkg/hierclust"
)

// scale sizes the four workloads: fullScale is what a run measures, toyScale
// is the same code small enough for the package tests.
type scale struct {
	evalRanks, evalPPN, evalVariants int

	sweepRanks, sweepPPN, sweepVariants int

	serveHot        int // hot-set documents
	serveLRU        int // result LRU capacity
	serveHotRanks   int
	serveMissRanks  int
	serveWarmCycles int
	diskDocs        int // documents in the disk-tier side measurement

	ckptNodes, ckptPPN int
	ckptGroupNodes     int // nodes per L1 cluster and per encoding group
	ckptBlob           int // checkpoint bytes per rank
	ckptWarm           int

	wnOps   int    // ops in each ungated all-cores measurement
	scratch string // directory for the disk-tier side measurement
}

var fullScale = scale{
	evalRanks: 131072, evalPPN: 4, evalVariants: 8,
	sweepRanks: 16384, sweepPPN: 4, sweepVariants: 4,
	serveHot: 256, serveLRU: 512, serveHotRanks: 1024, serveMissRanks: 4096,
	serveWarmCycles: 100, diskDocs: 200,
	ckptNodes: 32, ckptPPN: 4, ckptGroupNodes: 16, ckptBlob: 128 << 10, ckptWarm: 3,
	wnOps: 10, scratch: ".bench_build",
}

var toyScale = scale{
	evalRanks: 4096, evalPPN: 4, evalVariants: 3,
	sweepRanks: 512, sweepPPN: 4, sweepVariants: 2,
	serveHot: 16, serveLRU: 32, serveHotRanks: 64, serveMissRanks: 128,
	serveWarmCycles: 2, diskDocs: 4,
	ckptNodes: 8, ckptPPN: 2, ckptGroupNodes: 4, ckptBlob: 4 << 10, ckptWarm: 1,
	wnOps: 1,
}

// evalWL is eval-128k: op = Pipeline.Run of one large synthetic scenario
// through the multilevel partitioner, one worker, no caches. The variants
// differ only in iterations and bytes_per_msg, so the numbers in the trace
// change and the work does not.
type evalWL struct {
	sc       scale
	seed     uint64
	pl       *hierclust.Pipeline
	variants []*hierclust.Scenario
	want     []*hierclust.Result // reference result per variant

	// Counts read from the staged replay; they repeat exactly.
	nnz, graphNodes int
	cutWeight       float64
}

func newEval(seed uint64, sc scale) (*evalWL, error) {
	w := &evalWL{sc: sc, seed: seed, pl: hierclust.NewPipeline(hierclust.WithWorkers(1))}
	for v := 0; v < sc.evalVariants; v++ {
		s := &hierclust.Scenario{
			Name:      fmt.Sprintf("eval/v%d", v),
			Machine:   hierclust.MachineSpec{Model: "tsubame2", Nodes: sc.evalRanks / sc.evalPPN},
			Placement: hierclust.PlacementSpec{Policy: "block", Ranks: sc.evalRanks, ProcsPerNode: sc.evalPPN},
			Trace: hierclust.TraceSpec{
				Source:      "synthetic",
				Pattern:     "stencil2d",
				Iterations:  50 + int(mix64(seed, streamEval, uint64(2*v))%100),
				BytesPerMsg: 1024 + int64(mix64(seed, streamEval, uint64(2*v+1))%3072),
			},
			Strategies: []hierclust.StrategySpec{
				{Kind: "hierarchical", Hier: &hierclust.HierSpec{Multilevel: true}},
			},
		}
		// The reference run is also the variant's warm-up op.
		res, err := w.pl.Run(context.Background(), s)
		if err != nil {
			return nil, err
		}
		w.variants = append(w.variants, s)
		w.want = append(w.want, res)
	}
	return w, nil
}

func (w *evalWL) variant(idx int) int {
	return int(mix64(w.seed, streamEval, 1<<32+uint64(idx)) % uint64(len(w.variants)))
}

func (w *evalWL) step(idx int, lat []time.Duration) ([]time.Duration, int) {
	v := w.variant(idx)
	t0 := time.Now()
	res, err := w.pl.Run(context.Background(), w.variants[v])
	lat = append(lat, time.Since(t0))
	if err != nil || !reflect.DeepEqual(res, w.want[v]) {
		return lat, 1
	}
	return lat, 0
}

func (w *evalWL) opSpans() []string { return []string{"pipeline.run"} }

func (w *evalWL) input(idx int) ([]byte, string) {
	key, _ := w.variants[w.variant(idx)].CacheKey()
	return []byte(key), "run"
}

func (w *evalWL) close() error { return nil }

// traced runs the op, then replays the same evaluation stage by stage
// through the public functions Pipeline.Run composes, then times the stages'
// own callees on the replay's values. The replay's scores must be bit-equal
// to the op's, or the trace would describe a different program.
func (w *evalWL) traced(idx int, tr *tracer) (int, int) {
	v := w.variant(idx)
	s := w.variants[v]
	ctx := context.Background()
	failed := 0
	tr.do("eval.unit", idx, false, func() {
		var res *hierclust.Result
		var err error
		tr.do("pipeline.run", idx, false, func() { res, err = w.pl.Run(ctx, s) })
		if err != nil || !reflect.DeepEqual(res, w.want[v]) {
			failed = 1
			return
		}

		ranks, ppn := s.Placement.Ranks, s.Placement.ProcsPerNode
		var placement *topology.Placement
		var comm *trace.CSR
		var c *core.Clustering
		var e *core.Evaluation
		mix := reliability.DefaultMix()
		tr.do("eval.staged", idx, false, func() {
			tr.do("topology.block", idx, false, func() {
				mach := *topology.Tsubame2()
				mach.Nodes = s.Machine.Nodes
				placement, err = topology.Block(&mach, ranks, ppn)
			})
			if err != nil {
				return
			}
			tr.do("trace.synthetic", idx, true, func() {
				comm, err = trace.Synthetic(ranks, trace.SyntheticOptions{
					Pattern:     trace.Stencil2D,
					Width:       ppn,
					Iterations:  s.Trace.Iterations,
					BytesPerMsg: s.Trace.BytesPerMsg,
				})
			})
			if err != nil {
				return
			}
			tr.do("core.hierarchical", idx, true, func() {
				c, err = core.Hierarchical(comm, placement, core.HierOptions{Multilevel: true})
			})
			if err != nil {
				return
			}
			tr.do("core.evaluate", idx, false, func() {
				e, err = core.EvaluateOpts(c, comm, placement, mix, core.EvalOptions{Workers: 1, Ctx: ctx})
			})
		})
		got := res.Evaluations[0]
		if err != nil || e.LoggedFraction != got.LoggedFraction ||
			e.RecoveryFraction != got.RecoveryFraction || e.CatastropheProb != got.CatastropheProb {
			failed = 1
			return
		}

		tr.do("eval.split", idx, false, func() {
			var ng *graph.Graph
			var part []int
			tr.do("trace.nodegraph", idx, true, func() { ng, err = comm.NodeGraph(placement) })
			if err != nil {
				return
			}
			tr.do("graph.partition", idx, true, func() {
				// core.Hierarchical's defaults: 4-node minimum and target.
				part, err = graph.Partition(ng, graph.PartitionOptions{
					MinSize: 4, TargetSize: 4, Multilevel: true, Workers: 1,
				})
			})
			if err != nil {
				return
			}
			w.nnz, w.graphNodes = comm.NNZ(), ng.N()
			// In units of one rank pair's traffic, so that the count is the
			// same for every variant and seed.
			w.cutWeight, err = ng.CutWeight(part)
			if err != nil {
				return
			}
			w.cutWeight /= float64(int64(s.Trace.Iterations) * s.Trace.BytesPerMsg)
			tr.do("core.validate", idx, false, func() { err = c.Validate(ranks) })
			tr.do("trace.logged", idx, false, func() { _, err = comm.LoggedFraction(c.L1) })
			tr.do("core.recovery", idx, true, func() { _, err = core.RecoveryFraction(c, placement) })
			var groups []reliability.Group
			tr.do("reliability.groups", idx, true, func() {
				for _, g := range c.Groups {
					groups = append(groups, reliability.GroupFromRanks(placement, g))
				}
			})
			tr.do("reliability.catastrophe", idx, true, func() {
				mdl := &reliability.Model{Nodes: len(placement.UsedNodes()), Mix: mix, Workers: 1}
				_, err = mdl.CatastropheProbCtx(ctx, groups)
			})
		})
		if err != nil {
			failed = 1
		}
	})
	return 1, failed
}

func (w *evalWL) layers(tr *tracer, out map[string]float64) error {
	for _, name := range []string{
		"topology.block", "trace.synthetic", "trace.nodegraph", "graph.partition",
		"core.hierarchical", "core.validate", "trace.logged", "core.recovery",
		"reliability.groups", "reliability.catastrophe", "core.evaluate", "pipeline.run",
	} {
		out[name+"_ms"] = tr.medianMS(name)
	}
	for _, name := range []string{
		"trace.synthetic", "trace.nodegraph", "graph.partition", "core.hierarchical",
		"core.recovery", "reliability.groups", "reliability.catastrophe",
	} {
		out[name+"_allocs"] = tr.allocs(name)
	}
	out["trace.nnz"] = float64(w.nnz)
	out["graph.nodes"] = float64(w.graphNodes)
	out["graph.cut_weight"] = w.cutWeight
	// Computed self times: a parent minus its separately measured callees.
	out["core.hier_glue_ms"] = out["core.hierarchical_ms"] - out["trace.nodegraph_ms"] - out["graph.partition_ms"]
	out["pipeline.glue_ms"] = out["pipeline.run_ms"] - out["topology.block_ms"] -
		out["trace.synthetic_ms"] - out["core.hierarchical_ms"] - out["core.evaluate_ms"]

	wn, err := allCores(w.sc.wnOps, func(i int) error {
		_, err := hierclust.NewPipeline().Run(context.Background(), w.variants[i%len(w.variants)])
		return err
	})
	out["pipeline.run_wn_ms"] = wn
	return err
}

// allCores times n calls of op with every core and default worker counts —
// the ungated multi-core view — and restores the single P afterwards.
func allCores(n int, op func(i int) error) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times), nil
}
