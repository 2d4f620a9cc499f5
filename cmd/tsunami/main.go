// Command tsunami runs the shallow-water simulation standalone, optionally
// under the hybrid fault-tolerance protocol with an injected node failure.
//
// Usage:
//
//	tsunami -ranks 16 -iters 100                 # plain run, prints diagnostics
//	tsunami -ranks 16 -iters 100 -fail-at 42     # inject a node failure
//	tsunami -ranks 16 -ascii                     # render the final wave field
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"hierclust/pkg/hierclust"
)

func main() {
	var (
		ranks     = flag.Int("ranks", 16, "number of slab ranks")
		ppn       = flag.Int("ppn", 4, "ranks per node")
		iters     = flag.Int("iters", 100, "iterations")
		nx        = flag.Int("nx", 128, "grid columns")
		failAt    = flag.Int("fail-at", -1, "iteration to fail a node (-1 = none)")
		failNode  = flag.Int("fail-node", 1, "node to fail")
		ckptEvery = flag.Int("ckpt-every", 10, "checkpoint period (iterations)")
		ascii     = flag.Bool("ascii", false, "render the final wave field")
	)
	flag.Parse()

	params := hierclust.DefaultTsunamiParams(*ranks)
	params.NX = *nx
	params.NY = *ranks * max(2, 64/max(1, *ranks/8))
	if params.NY%*ranks != 0 {
		params.NY = 2 * *ranks
	}
	params.Source = hierclust.TsunamiSource{
		CX: float64(params.NX) / 2, CY: float64(params.NY) / 2,
		Amplitude: 2, Sigma: float64(params.NY) / 16,
	}

	app, err := hierclust.NewTsunamiApp(params)
	if err != nil {
		fail(err)
	}
	mass0, energy0 := app.TotalMass(), app.TotalEnergy()

	if *failAt < 0 {
		if err := app.RunSequential(*iters); err != nil {
			fail(err)
		}
		report(app, params, mass0, energy0, nil)
	} else {
		if *ranks%*ppn != 0 {
			fail(fmt.Errorf("ranks %d not divisible by ppn %d", *ranks, *ppn))
		}
		nodes := *ranks / *ppn
		mach, err := hierclust.Tsubame2().Subset(nodes)
		if err != nil {
			fail(err)
		}
		placement, err := hierclust.Block(mach, *ranks, *ppn)
		if err != nil {
			fail(err)
		}
		// Hierarchical clustering from a synthetic nearest-neighbor trace
		// (one exchange round mirrors the solver's ghost-row pattern).
		m, err := hierclust.SyntheticTrace(*ranks, hierclust.SyntheticOptions{
			Pattern: hierclust.Stencil1D, Iterations: 1, BytesPerMsg: 1000,
		})
		if err != nil {
			fail(err)
		}
		minNodes := 4
		if nodes < 4 {
			minNodes = nodes
		}
		cl, err := hierclust.Hierarchical(m, placement, hierclust.HierSpec{
			MinNodesPerL1: minNodes, SubgroupNodes: minNodes,
		})
		if err != nil {
			fail(err)
		}
		runner, err := hierclust.NewHybridRunner(hierclust.HybridConfig{
			Placement:       placement,
			Clusters:        cl.L1,
			Groups:          cl.Groups,
			CheckpointEvery: *ckptEvery,
			Level:           hierclust.L3Encoded,
		}, app)
		if err != nil {
			fail(err)
		}
		rep, err := runner.Run(*iters, map[int][]hierclust.NodeID{
			*failAt: {hierclust.NodeID(*failNode)},
		})
		if err != nil {
			fail(err)
		}
		report(app, params, mass0, energy0, rep)
	}

	if *ascii {
		fmt.Println(renderField(app, params))
	}
}

func report(app *hierclust.TsunamiApp, params hierclust.TsunamiParams, mass0, energy0 float64, rep *hierclust.HybridReport) {
	mass1, energy1 := app.TotalMass(), app.TotalEnergy()
	fmt.Printf("grid %dx%d, %d ranks\n", params.NX, params.NY, params.Ranks)
	fmt.Printf("mass:   %14.6g -> %14.6g (drift %.2g)\n", mass0, mass1, math.Abs(mass1-mass0)/math.Abs(mass0))
	fmt.Printf("energy: %14.6g -> %14.6g (LxF dissipation)\n", energy0, energy1)
	if rep != nil {
		fmt.Printf("checkpoints: %d, logged %.1f%% of %d bytes\n",
			rep.CheckpointsTaken, rep.LoggedFraction*100, rep.TotalBytes)
		for _, f := range rep.Failures {
			fmt.Printf("failure at iter %d: nodes %v, restarted %d ranks (%.1f%%), replayed %d msgs, re-ran %d iters\n",
				f.Iter, f.Nodes, f.RestartedRanks, f.RestartedFraction*100, f.ReplayedMessages, f.ReExecutedIters)
			for lv, n := range f.RestoreLevels {
				fmt.Printf("  restored %d ranks from %s\n", n, lv)
			}
		}
	}
}

// renderField draws the global η field as ASCII, one character per cell
// block.
func renderField(app *hierclust.TsunamiApp, params hierclust.TsunamiParams) string {
	shades := []byte(" .:-=+*#%@")
	rows := params.NY / params.Ranks
	var peak float64
	for r := 0; r < params.Ranks; r++ {
		for j := 0; j < rows; j++ {
			for i := 0; i < params.NX; i++ {
				if v := math.Abs(app.Solver(r).Eta(j, i)); v > peak {
					peak = v
				}
			}
		}
	}
	if peak == 0 {
		peak = 1
	}
	var sb strings.Builder
	stepY := max(1, params.NY/32)
	stepX := max(1, params.NX/64)
	for gy := 0; gy < params.NY; gy += stepY {
		r, j := gy/rows, gy%rows
		for i := 0; i < params.NX; i += stepX {
			v := math.Abs(app.Solver(r).Eta(j, i)) / peak
			idx := int(v * float64(len(shades)-1))
			sb.WriteByte(shades[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tsunami:", err)
	os.Exit(1)
}
