// Command hcbench is the repository's end-to-end benchmark: four workloads
// — one large evaluation, one sweep, one hcserve request mix, one
// checkpoint/failure/restore cycle — driven as single-client closed loops
// on one P, measured in interleaved slices, checked op by op, and reduced
// to six end-to-end metrics per workload. A traced run (-trace 1) records a
// span around every call into a layer's public function and reports
// per-layer metrics instead. -aa runs the benchmark against itself to read
// the noise floor. See ../README.md for what each number is for.
//
// Nothing inside the program is instrumented or configured for the
// benchmark: the driver calls the same public functions a user would.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// options is one invocation's settings.
type options struct {
	workload  string  // "" = all four, interleaved
	seed      uint64  // the -seed flag's bits
	seconds   float64 // measured time per workload
	trace     bool
	timings   bool   // a gated run's JSON carries the ungated timings too
	spans     string // where a traced run writes its spans; "" = nowhere
	rounds    int
	setupReps int
	sc        scale
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	aa := flag.Int("aa", 0, "run two sets of `N` runs of this binary alternately and compare them against the bounds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = gated run reporting end-to-end metrics")
	flag.StringVar(&o.workload, "workload", "", "run one workload alone (default: all four, interleaved)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload")
	flag.StringVar(&o.spans, "spans", ".bench_build/spans.json", "file a traced run writes its spans to")
	flag.BoolVar(&o.timings, "timings", false, "put a gated run's ungated timings in the JSON report too (-aa reads them)")
	flag.Parse()
	o.trace, o.seed = *trace != 0, uint64(*seed)
	o.rounds, o.setupReps, o.sc = 10, 5, fullScale

	if *aa > 0 {
		if !runAA(os.Stdout, *aa, o) {
			os.Exit(1)
		}
		return
	}
	rep, err := execute(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcbench:", err)
		os.Exit(2)
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		os.Exit(1)
	}
}

// execute performs one run and writes the text report to w. Metric names
// carry a "workload/" prefix only where several workloads report the same
// metric.
func execute(w io.Writer, o options) (*report, error) {
	// One P: the plain single-threaded baseline. Two shared cores cannot
	// repeat a parallel section to within the bounds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	focus := workloadNames
	if o.workload != "" {
		focus = []string{o.workload}
	}
	var runs []*run
	defer func() {
		for _, r := range runs {
			if r.w != nil {
				r.w.close()
			}
		}
	}()
	for _, name := range focus {
		r, err := setUp(name, o.seed, o.sc, o.setupReps)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	prefix := func(r *run) string {
		if len(focus) > 1 {
			return r.name + "/"
		}
		return ""
	}

	slice := time.Duration(o.seconds / float64(o.rounds) * float64(time.Second))
	h := &host{}
	rep := &report{Correct: true, Metrics: map[string]metricValue{}}
	put := func(name string, m metricSpec, v float64) {
		rep.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, v, m.Unit)
	}

	if !o.trace {
		interleave(runs, o.rounds, slice, h)
		fmt.Fprintf(w, "host: calib_alu_ms %.2f  calib_mem_ms %.2f  nproc %d  peak_rss_mb %.0f\n",
			median(h.alu), median(h.mem), runtime.NumCPU(), peakRSSMB())
		for _, r := range runs {
			finish(w, r, rep)
			fmt.Fprintf(w, "  slices, ops/s:")
			for _, s := range r.slices {
				fmt.Fprintf(w, " %.4g", float64(s.ops)/s.wall.Seconds())
			}
			fmt.Fprintln(w)
			values := r.metrics()
			for _, m := range endToEnd {
				put(prefix(r)+m.Name, m, values[m.Name])
			}
			for _, m := range timings {
				fmt.Fprintf(w, "  %-34s %14.6g %s (ungated)\n", prefix(r)+m.Name, values[m.Name], m.Unit)
				if o.timings {
					rep.Metrics[prefix(r)+m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
				}
			}
		}
		return rep, nil
	}

	// A traced run reports every layer whichever workload it was asked for:
	// the workloads in focus get -seconds each, the others a fifth of it.
	layers := map[string]float64{}
	driver := map[string]float64{}
	var spans []span
	for _, r := range runs {
		d, s, err := r.traceFocus(o.rounds, slice, h, layers)
		if err != nil {
			return nil, err
		}
		spans = append(spans, s...)
		for name, v := range d {
			driver[prefix(r)+name] = v
		}
	}
	for _, name := range workloadNames {
		if o.workload == "" || name == o.workload {
			continue
		}
		r, err := setUp(name, o.seed, o.sc, 1)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		s, err := r.traceAside(2*slice, h, layers)
		if err != nil {
			return nil, err
		}
		spans = append(spans, s...)
	}
	if o.spans != "" {
		if err := writeSpans(o.spans, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "wrote %d spans to %s\n", len(spans), o.spans)
	}
	for _, r := range runs {
		finish(w, r, rep)
	}
	layers["process.peak_rss_mb"] = peakRSSMB()
	layers["host.calib_alu_ms"] = median(h.alu)
	layers["host.calib_mem_ms"] = median(h.mem)
	layers["host.nproc"] = float64(runtime.NumCPU())
	for _, m := range perLayer {
		if !strings.HasPrefix(m.Name, "driver.") {
			put(m.Name, m, layers[m.Name])
			continue
		}
		for _, r := range runs[:len(focus)] { // one value per workload in focus
			put(prefix(r)+m.Name, m, driver[prefix(r)+m.Name])
		}
	}
	return rep, nil
}

// finish closes a run's workload — its whole-run invariants are part of the
// correctness check — and adds the run's op counts to the report.
func finish(w io.Writer, r *run, rep *report) {
	err := r.w.close()
	r.w = nil
	if err != nil {
		fmt.Fprintf(w, "%s: %v\n", r.name, err)
		rep.Correct = false
	}
	fmt.Fprintf(w, "%s: ops_attempted %d  ops_failed %d  op samples %d  slices %d\n",
		r.name, r.attempted, r.failed, len(r.lat), len(r.slices))
	rep.Attempted += r.attempted
	rep.Failed += r.failed
	if r.failed > 0 {
		rep.Correct = false
	}
}
