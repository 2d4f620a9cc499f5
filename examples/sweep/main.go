// sweep: a table2-style strategy × machine-size grid run through the
// library sweep API — no server involved. One declarative Sweep value
// expands to a cartesian grid of scenarios, the planner deduplicates the
// shared work (every machine size's trace is built once and fanned out to
// all four strategies), and the executor evaluates the cells on a worker
// pool with bit-identical results at any worker count. The output ranks
// every (machine, strategy) cell by P(catastrophe), the paper's headline
// reliability dimension.
//
// Run with: go run ./examples/sweep
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"sort"

	"hierclust/pkg/hierclust"
)

func main() {
	sw := &hierclust.Sweep{
		Name: "table2-grid",
		Base: hierclust.Scenario{
			Name:      "grid",
			Placement: hierclust.PlacementSpec{ProcsPerNode: 8},
			Trace:     hierclust.TraceSpec{Source: "synthetic", Pattern: "stencil2d", Iterations: 50},
		},
		Axes: hierclust.SweepAxes{
			// Three machine sizes × four strategies = twelve cells, but
			// only three traces and three placements ever get built.
			Machines: []hierclust.MachinePoint{
				{Nodes: 32, Ranks: 256},
				{Nodes: 64, Ranks: 512},
				{Nodes: 128, Ranks: 1024},
			},
			Strategies: [][]hierclust.StrategySpec{
				{{Kind: "naive"}},
				{{Kind: "size-guided"}},
				{{Kind: "distributed"}},
				{{Kind: "hierarchical"}},
			},
		},
	}

	plan, err := hierclust.PlanSweep(sw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned %d cells: %d trace builds for %d trace refs, %d partition builds for %d refs (dedup %.0f%%)\n\n",
		len(plan.Cells), plan.TraceBuilds, plan.TraceRefs,
		plan.PartitionBuilds, plan.PartitionRefs, 100*plan.DedupRatio())

	report, err := hierclust.NewPipeline().RunPlannedSweep(context.Background(), plan, hierclust.SweepOptions{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}

	type row struct {
		scenario, strategy string
		nodes              int
		pCat               float64
	}
	var rows []row
	for _, cell := range report.Cells {
		if cell.Err != nil {
			log.Fatalf("%s: %v", cell.Scenario, cell.Err)
		}
		var res hierclust.Result
		if err := json.Unmarshal(cell.Doc, &res); err != nil {
			log.Fatal(err)
		}
		for _, ev := range res.Evaluations {
			rows = append(rows, row{res.Scenario, ev.Strategy, res.Nodes, ev.CatastropheProb})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].pCat < rows[j].pCat })

	fmt.Println("cells ranked by P(catastrophe), best first:")
	fmt.Printf("%4s  %-22s %6s  %-14s %14s\n", "rank", "cell", "nodes", "strategy", "P(catastrophe)")
	for i, r := range rows {
		fmt.Printf("%4d  %-22s %6d  %-14s %14.3e\n", i+1, r.scenario, r.nodes, r.strategy, r.pCat)
	}
}
