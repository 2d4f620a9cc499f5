// Command hcrun regenerates the paper's tables and figures: it prints the
// experiments of internal/harness, whose four-dimension tables (table2,
// fig5c, scaling) and size studies (fig3a, fig3b, fig4a–fig4c) are
// scenarios run by pkg/hierclust's Pipeline, the engine behind hcserve.
//
// Usage:
//
//	hcrun -exp table2              # one experiment at paper scale
//	hcrun -exp all -quick          # every experiment, laptop scale
//	hcrun -exp all -quick -workers 0  # pooled runner, identical output
//	hcrun -exp all -quick -json    # machine-readable results
//	hcrun -exp fig5a -out results  # also write PGM/CSV artifacts
//	hcrun -exp scaling -maxranks 65536  # synthetic-trace scaling to 64k ranks
//	hcrun -exp scaling -maxranks 262144  # 256k ranks / 16k nodes
//	hcrun -list                    # list experiment ids
//	hcrun -sweep grid.json -server http://localhost:8080  # sweep client:
//	                               # submit, poll, stream result NDJSON
//
// -workers N runs the experiments on an N-wide worker pool (0 means
// GOMAXPROCS; the default 1 runs them serially, streaming each table as it
// completes); results still print in experiment order, so the output is
// byte-identical to a serial run.
//
// -cpuprofile/-memprofile write pprof profiles covering the experiment
// runs (the heap profile is captured after everything finishes), so
// partition/evaluation profiling needs no ad-hoc harness edits. CPU
// profiles carry goroutine labels for the partitioner's phases
// (phase=grow/refine), so pprof can split time by pipeline stage:
//
//	hcrun -exp scaling -maxranks 262144 -cpuprofile cpu.prof -memprofile mem.prof
//	go tool pprof -tagfocus phase=refine cpu.prof
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
	"hierclust/pkg/hierclust"
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
		workers    = flag.Int("workers", 1, "experiments run at once (1 = serial, streaming; 0 = GOMAXPROCS)")
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
		// Label partition phases (match/contract/grow/refine, per level)
		// in the profile; the labels allocate, so they are tied to
		// -cpuprofile rather than always on.
		hierclust.SetPartitionPhaseLabels(true)
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

	emit := func(r harness.RunResult) {
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

	// Serial non-JSON runs stream each table as it completes and abort at
	// the first failure; pooled and JSON runs batch (JSON is one document,
	// and pooled results must print in experiment order).
	if *workers == 1 && !*jsonFlag {
		for _, e := range exps {
			emit(harness.RunOne(cfg, e))
		}
		return
	}
	results := harness.Run(cfg, exps, *workers)
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
		emit(r)
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
