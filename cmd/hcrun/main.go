// Command hcrun regenerates the paper's tables and figures: it prints the
// experiments of internal/harness, whose four-dimension tables (table2,
// fig5c, scaling) and size studies (fig3a, fig3b, fig4a–fig4c) are
// scenarios run by pkg/hierclust's Pipeline, the engine behind hcserve.
//
// Usage:
//
//	hcrun -exp table2              # one experiment at paper scale
//	hcrun -exp all -quick          # every experiment, laptop scale
//	hcrun -exp all -quick -json    # machine-readable results
//	hcrun -exp fig5a -out results  # also write PGM/CSV artifacts
//	hcrun -exp scaling -maxranks 65536  # synthetic-trace scaling to 64k ranks
//	hcrun -exp scaling -maxranks 262144  # 256k ranks / 16k nodes
//	hcrun -list                    # list experiment ids
//	hcrun -sweep grid.json -server http://localhost:8080  # sweep client:
//	                               # submit, poll, stream result NDJSON
//
// The experiments run at once on a GOMAXPROCS-wide worker pool, and their
// tables print in experiment order once all have finished, so the output
// does not depend on the host's cores. A failed experiment's error is
// printed after the tables before it, and hcrun exits 1.
//
// -cpuprofile/-memprofile write pprof profiles covering the experiment
// runs (the heap profile is captured after everything finishes), so
// partition/evaluation profiling needs no ad-hoc harness edits. Every
// evaluation stage runs under a goroutine label, so pprof splits time by
// stage, and the partitioner's grow and refine are symbols of their own:
//
//	hcrun -exp scaling -maxranks 262144 -cpuprofile cpu.prof -memprofile mem.prof
//	go tool pprof -tagfocus stage=partition -focus 'graph\.refine' cpu.prof
//
// -timings also prints the pipeline's stage table to stderr.
//
// Experiments: table1, fig3a, fig3b, fig4a, fig4b, fig4c, fig5a, fig5b,
// fig5c, table2, protocol, ablation, scaling.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"hierclust/internal/harness"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id or 'all'")
		quick      = flag.Bool("quick", false, "shrink to laptop scale")
		maxRanks   = flag.Int("maxranks", 0, "extend the scaling experiment with synthetic traces up to this rank count (doubling from 4096)")
		ranks      = flag.Int("ranks", 0, "override application rank count")
		ppn        = flag.Int("ppn", 0, "override processes per node")
		iters      = flag.Int("iters", 0, "override traced iterations")
		out        = flag.String("out", "", "directory for CSV/PGM artifacts")
		list       = flag.Bool("list", false, "list experiments and exit")
		csvFlag    = flag.Bool("csv", false, "print CSV instead of ASCII tables")
		jsonFlag   = flag.Bool("json", false, "print one JSON document of all results")
		timings    = flag.Bool("timings", false, "include wall-clock measurement columns (non-deterministic)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after all experiments) to this file")
		sweepFile  = flag.String("sweep", "", "sweep client mode: submit this sweep JSON document to -server, poll, stream result NDJSON to stdout")
		server     = flag.String("server", "http://localhost:8080", "hcserve base URL for -sweep")
		pollEvery  = flag.Duration("poll", 500*time.Millisecond, "status poll interval for -sweep")
	)
	flag.Parse()

	if *sweepFile != "" {
		if err := runSweepClient(*server, *sweepFile, *pollEvery); err != nil {
			fail(err)
		}
		return
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	// fail exits through os.Exit, which skips deferred functions — flush
	// the profiles explicitly on both paths, or an error in the profiled
	// run (the exact situation worth profiling) would truncate cpu.prof
	// and never write mem.prof.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		flushProfiles = append(flushProfiles, func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "hcrun:", err)
			}
		})
	}
	if *memprofile != "" {
		path := *memprofile
		flushProfiles = append(flushProfiles, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hcrun:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hcrun:", err)
			}
		})
	}
	defer runFlushProfiles()

	cfg := harness.Config{Ranks: *ranks, ProcsPerNode: *ppn, Iterations: *iters, Quick: *quick, Timings: *timings, MaxRanks: *maxRanks}

	var exps []harness.Experiment
	if *exp == "all" {
		exps = harness.All()
	} else {
		e, err := harness.ByID(*exp)
		if err != nil {
			fail(err)
		}
		exps = []harness.Experiment{e}
	}

	results := harness.Run(cfg, exps)
	if *timings {
		harness.Stages().WriteTo(os.Stderr)
	}
	if *jsonFlag {
		doc, err := harness.ResultsJSON(results)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(doc))
		failed := false
		for _, r := range results {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "hcrun: %s: %v\n", r.Experiment.ID, r.Err)
				failed = true
				continue
			}
			if *out != "" {
				if err := harness.WriteArtifacts(*out, r.Table, cfg, r.Experiment.ID); err != nil {
					fail(err)
				}
			}
		}
		if failed {
			runFlushProfiles()
			os.Exit(1)
		}
		return
	}
	for _, r := range results {
		if r.Err != nil {
			fail(fmt.Errorf("%s: %w", r.Experiment.ID, r.Err))
		}
		if *csvFlag {
			fmt.Printf("# %s: %s\n%s\n", r.Table.ID, r.Table.Title, r.Table.CSV())
		} else {
			fmt.Println(r.Table.ASCII())
		}
		if *out != "" {
			if err := harness.WriteArtifacts(*out, r.Table, cfg, r.Experiment.ID); err != nil {
				fail(err)
			}
		}
	}
}

// flushProfiles holds the profile finishers; fail runs them before exiting
// so a failed experiment still leaves valid profiles behind.
var flushProfiles []func()

func runFlushProfiles() {
	for _, f := range flushProfiles {
		f()
	}
	flushProfiles = nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hcrun:", err)
	runFlushProfiles()
	os.Exit(1)
}
