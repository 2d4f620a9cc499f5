package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"hierclust/pkg/hierclust"
)

// sweepWL is sweep-grid: op = Pipeline.RunSweep, planning included, of a
// 24-cell document — 4 strategy sets × 3 mixes × 2 trace points — with one
// worker and no result cache. The plan shares 2 trace builds and 8
// clustering builds among the 24 scorings.
type sweepWL struct {
	sc       scale
	seed     uint64
	pl       *hierclust.Pipeline
	variants []*hierclust.Sweep
	want     [][][]byte // per variant, per cell: the reference document

	// Counts of the last traced op; they repeat exactly.
	cells, traceBuilds, partBuilds int
	dedup                          float64
}

func sweepMixes() []hierclust.MixSpec {
	loss := []float64{0.9429, 6.3e-3, 6.6e-4, 6.6e-5, 6.6e-6, 6.6e-7}
	return []hierclust.MixSpec{
		{Transient: 0.05, NodeLoss: loss},
		{Transient: 0.20, NodeLoss: loss},
		{Transient: 0.05, NodeLoss: loss, PairCorrelation: 0.5},
	}
}

func newSweep(seed uint64, sc scale) (*sweepWL, error) {
	w := &sweepWL{sc: sc, seed: seed, pl: hierclust.NewPipeline(hierclust.WithWorkers(1))}
	for v := 0; v < sc.sweepVariants; v++ {
		point := func(k int) hierclust.TracePoint {
			return hierclust.TracePoint{
				Iterations:  50 + int(mix64(seed, streamSweep, uint64(4*v+2*k))%100),
				BytesPerMsg: 1024 + int64(mix64(seed, streamSweep, uint64(4*v+2*k+1))%3072),
			}
		}
		sw := &hierclust.Sweep{
			Name: fmt.Sprintf("grid/v%d", v),
			Base: hierclust.Scenario{
				Name:      "grid",
				Machine:   hierclust.MachineSpec{Model: "tsubame2", Nodes: sc.sweepRanks / sc.sweepPPN},
				Placement: hierclust.PlacementSpec{Policy: "block", Ranks: sc.sweepRanks, ProcsPerNode: sc.sweepPPN},
				Trace:     hierclust.TraceSpec{Source: "synthetic", Pattern: "stencil2d"},
			},
			Axes: hierclust.SweepAxes{
				Strategies: [][]hierclust.StrategySpec{
					{{Kind: "naive", Size: 32}},
					{{Kind: "size-guided", Size: 8}},
					{{Kind: "distributed", Size: 16}},
					{{Kind: "hierarchical", Hier: &hierclust.HierSpec{Multilevel: true}}},
				},
				Mixes:  sweepMixes(),
				Traces: []hierclust.TracePoint{point(0), point(1)},
			},
		}
		// Reference: every expanded cell alone through Pipeline.Run, the
		// path a sweep cell must match byte for byte.
		docs, err := w.naive(sw)
		if err != nil {
			return nil, err
		}
		w.variants = append(w.variants, sw)
		w.want = append(w.want, docs)
	}
	// One warm-up op per variant, checked like a measured one.
	for v := range w.variants {
		if _, failed := w.step(-1-v, nil); failed != 0 {
			return nil, fmt.Errorf("warm-up sweep %d failed its check", v)
		}
	}
	return w, nil
}

// naive evaluates the sweep's cells one by one, sharing nothing.
func (w *sweepWL) naive(sw *hierclust.Sweep) ([][]byte, error) {
	cells, err := sw.Cells()
	if err != nil {
		return nil, err
	}
	docs := make([][]byte, len(cells))
	for i, cell := range cells {
		res, err := w.pl.Run(context.Background(), cell)
		if err != nil {
			return nil, err
		}
		if docs[i], err = json.Marshal(res); err != nil {
			return nil, err
		}
	}
	return docs, nil
}

func (w *sweepWL) variant(idx int) int {
	return int(mix64(w.seed, streamSweep, 1<<32+uint64(int64(idx))) % uint64(len(w.variants)))
}

// check holds a report against the plan and the reference documents.
func (w *sweepWL) check(v int, plan *hierclust.SweepPlan, rep *hierclust.SweepReport) bool {
	if rep.CellsFailed != 0 || rep.CellsCompleted != len(plan.Cells) ||
		rep.TraceBuilds != int64(plan.TraceBuilds) || rep.PartitionBuilds != int64(plan.PartitionBuilds) ||
		len(rep.Cells) != len(w.want[v]) {
		return false
	}
	for i := range rep.Cells {
		if !bytes.Equal(rep.Cells[i].Doc, w.want[v][i]) {
			return false
		}
	}
	return true
}

func (w *sweepWL) step(idx int, lat []time.Duration) ([]time.Duration, int) {
	v := w.variant(idx)
	t0 := time.Now()
	rep, err := w.pl.RunSweep(context.Background(), w.variants[v], hierclust.SweepOptions{Workers: 1})
	lat = append(lat, time.Since(t0))
	if err != nil || !w.check(v, rep.Plan, rep) {
		return lat, 1
	}
	return lat, 0
}

func (w *sweepWL) opSpans() []string { return []string{"sweep.op"} }

func (w *sweepWL) input(idx int) ([]byte, string) {
	key, _ := w.variants[w.variant(idx)].SweepKey()
	return []byte(key), "sweep"
}

func (w *sweepWL) close() error { return nil }

func (w *sweepWL) traced(idx int, tr *tracer) (int, int) {
	v := w.variant(idx)
	sw := w.variants[v]
	ctx := context.Background()
	failed := 0
	tr.do("sweep.unit", idx, false, func() {
		var plan *hierclust.SweepPlan
		var rep *hierclust.SweepReport
		var err error
		tr.do("sweep.op", idx, false, func() {
			tr.do("sweep.plan", idx, false, func() { plan, err = hierclust.PlanSweep(sw) })
			if err != nil {
				return
			}
			tr.do("sweep.run", idx, false, func() {
				rep, err = w.pl.RunPlannedSweep(ctx, plan, hierclust.SweepOptions{Workers: 1})
			})
		})
		if err != nil || !w.check(v, plan, rep) {
			failed = 1
			return
		}
		w.cells, w.traceBuilds, w.partBuilds = len(plan.Cells), int(rep.TraceBuilds), int(rep.PartitionBuilds)
		w.dedup = plan.DedupRatio()
		tr.do("sweep.naive", idx, false, func() { _, err = w.naive(sw) })
		if err != nil {
			failed = 1
		}
	})
	return 1, failed
}

func (w *sweepWL) layers(tr *tracer, out map[string]float64) error {
	for _, name := range []string{"sweep.plan", "sweep.run", "sweep.naive"} {
		out[name+"_ms"] = tr.medianMS(name)
	}
	out["sweep.cells"] = float64(w.cells)
	out["sweep.trace_builds"] = float64(w.traceBuilds)
	out["sweep.partition_builds"] = float64(w.partBuilds)
	out["sweep.dedup_ratio"] = w.dedup
	op := tr.medianMS("sweep.op")
	out["sweep.sharing_speedup"] = out["sweep.naive_ms"] / op
	out["sweep.cells_per_s"] = float64(w.cells) / (op / 1e3)

	wn, err := allCores(w.sc.wnOps, func(i int) error {
		_, err := hierclust.NewPipeline().RunSweep(context.Background(), w.variants[i%len(w.variants)], hierclust.SweepOptions{})
		return err
	})
	out["sweep.run_wn_ms"] = wn
	return err
}
