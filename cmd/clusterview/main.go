// Command clusterview builds and compares clustering strategies for a
// traced communication matrix, printing the four-dimension evaluation and
// an ASCII heatmap of the traffic. It is a client of the public
// pkg/hierclust API: the comparison is one scenario run by a Pipeline.
//
// Usage:
//
//	clusterview -ranks 256 -ppn 8          # trace the tsunami app and compare
//	clusterview -ranks 256 -heatmap        # also draw the traffic heatmap
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"hierclust/pkg/hierclust"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "clusterview:", err)
		os.Exit(1)
	}
}

// run parses args, evaluates the four strategies on the traced run they
// describe and writes the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("clusterview", flag.ContinueOnError)
	var (
		ranks   = fs.Int("ranks", 256, "application ranks")
		ppn     = fs.Int("ppn", 8, "ranks per node")
		iters   = fs.Int("iters", 20, "traced iterations")
		naive   = fs.Int("naive", 32, "naive cluster size")
		sg      = fs.Int("size-guided", 8, "size-guided cluster size")
		dist    = fs.Int("distributed", 16, "distributed cluster size")
		heatmap = fs.Bool("heatmap", false, "print the traffic heatmap")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp { // -h printed the usage
			return nil
		}
		return err
	}
	if *ppn <= 0 || *ranks%*ppn != 0 {
		return fmt.Errorf("ranks %d not divisible by ppn %d", *ranks, *ppn)
	}
	// The scenario reads 0 as the paper default, so 0 must not reach it.
	if min(*iters, *naive, *sg, *dist) <= 0 {
		return fmt.Errorf("-iters, -naive, -size-guided and -distributed must be positive")
	}
	sc := &hierclust.Scenario{
		Name:      "clusterview",
		Machine:   hierclust.MachineSpec{Nodes: *ranks / *ppn},
		Placement: hierclust.PlacementSpec{Policy: "block", Ranks: *ranks, ProcsPerNode: *ppn},
		Trace:     hierclust.TraceSpec{Source: "tsunami", Iterations: *iters},
		Strategies: []hierclust.StrategySpec{
			{Kind: "naive", Size: *naive},
			{Kind: "size-guided", Size: *sg},
			{Kind: "distributed", Size: *dist},
			{Kind: "hierarchical"},
		},
	}
	// The cache keeps the run Run traced for the heatmap's Trace.
	pl := hierclust.NewPipeline(hierclust.WithTraceCache(hierclust.NewMemoryTraceCache(1)))
	ctx := context.Background()
	res, err := pl.Run(ctx, sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "traced %d ranks on %d nodes: %d messages, %d bytes\n",
		res.Ranks, res.Nodes, res.TotalMsgs, res.TotalBytes)
	if *heatmap {
		m, _, err := pl.Trace(ctx, sc)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, m.(*hierclust.CSR).ASCIIHeatmap(64)) // a recorded run is a CSR
	}
	evals := make([]*hierclust.Evaluation, len(res.Evaluations))
	for i, e := range res.Evaluations {
		evals[i] = &hierclust.Evaluation{Name: e.Strategy, LoggedFraction: e.LoggedFraction,
			RecoveryFraction: e.RecoveryFraction, EncodeSecondsPerGB: e.EncodeSecondsPerGB, CatastropheProb: e.CatastropheProb}
	}
	_, err = fmt.Fprint(w, hierclust.CompareTable(evals, hierclust.DefaultBaseline()))
	return err
}
