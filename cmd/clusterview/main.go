// Command clusterview builds and compares clustering strategies for a
// traced communication matrix, printing the four-dimension evaluation and
// an ASCII heatmap of the traffic. It is a client of the public
// pkg/hierclust API.
//
// Usage:
//
//	clusterview -ranks 256 -ppn 8          # trace the tsunami app and compare
//	clusterview -ranks 256 -heatmap        # also draw the traffic heatmap
package main

import (
	"flag"
	"fmt"
	"os"

	"hierclust/pkg/hierclust"
)

func main() {
	var (
		ranks   = flag.Int("ranks", 256, "application ranks")
		ppn     = flag.Int("ppn", 8, "ranks per node")
		iters   = flag.Int("iters", 20, "traced iterations")
		naive   = flag.Int("naive", 32, "naive cluster size")
		sg      = flag.Int("size-guided", 8, "size-guided cluster size")
		dist    = flag.Int("distributed", 16, "distributed cluster size")
		heatmap = flag.Bool("heatmap", false, "print the traffic heatmap")
	)
	flag.Parse()

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

	params := hierclust.TsunamiTraceParams(*ranks)
	rec := hierclust.NewTraceRecorder(*ranks)
	if _, err := hierclust.RunTracedTsunami(hierclust.TracedTsunamiOptions{
		Params: params, Iterations: *iters, Tracer: rec,
	}); err != nil {
		fail(err)
	}
	m := rec.Freeze()
	fmt.Printf("traced %d ranks on %d nodes: %d messages, %d bytes\n",
		*ranks, nodes, m.TotalMsgs(), m.TotalBytes())
	if *heatmap {
		fmt.Println(m.ASCIIHeatmap(64))
	}

	var evals []*hierclust.Evaluation
	mix := hierclust.DefaultMix()
	for _, build := range []func() (*hierclust.Clustering, error){
		func() (*hierclust.Clustering, error) { return hierclust.Naive(*ranks, *naive) },
		func() (*hierclust.Clustering, error) { return hierclust.SizeGuided(*ranks, *sg) },
		func() (*hierclust.Clustering, error) { return hierclust.Distributed(*ranks, *dist) },
		func() (*hierclust.Clustering, error) {
			return hierclust.Hierarchical(m, placement, hierclust.HierOptions{})
		},
	} {
		c, err := build()
		if err != nil {
			fail(err)
		}
		e, err := hierclust.Evaluate(c, m, placement, mix)
		if err != nil {
			fail(err)
		}
		evals = append(evals, e)
	}
	fmt.Print(hierclust.CompareTable(evals, hierclust.DefaultBaseline()))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "clusterview:", err)
	os.Exit(1)
}
