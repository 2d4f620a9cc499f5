package main

import (
	"fmt"
	"runtime"
	"time"
)

// workload is one closed loop with one client. Its schedule is a sequence
// of units — one op, or for serve-mix one ten-request cycle — whose inputs
// are a pure function of the seed and the unit index.
type workload interface {
	// step runs unit idx, appends the wall time of each of its ops to lat,
	// and returns lat with the number of ops whose output failed its check.
	step(idx int, lat []time.Duration) ([]time.Duration, int)
	// traced runs unit idx with a span around every call into a layer's
	// public function, and returns the ops attempted and failed.
	traced(idx int, tr *tracer) (attempted, failed int)
	// opSpans names the spans of traced that time exactly what step times.
	opSpans() []string
	// layers derives the workload's per-layer metrics from the spans of its
	// traced units, running the ungated side measurements it owns.
	layers(tr *tracer, out map[string]float64) error
	// input returns bytes that identify unit idx's input and its schedule
	// class, for the seed-determinism checks.
	input(idx int) (data []byte, class string)
	// close checks whole-run invariants and releases what setup started.
	close() error
}

// newWorkload sets a workload up: inputs generated from the seed, reference
// results, and a fixed count of warm-up ops.
func newWorkload(name string, seed uint64, sc scale) (workload, error) {
	switch name {
	case "eval-128k":
		return newEval(seed, sc)
	case "sweep-grid":
		return newSweep(seed, sc)
	case "serve-mix":
		return newServe(seed, sc)
	case "ckpt-cycle":
		return newCkpt(seed, sc)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// sliceStat is one timed slice of one workload.
type sliceStat struct {
	ops  int
	wall time.Duration
	cpu  time.Duration
}

// run accumulates what one workload measured in one run.
type run struct {
	name      string
	w         workload
	next      int // next schedule unit
	setups    []float64
	slices    []sliceStat
	lat       []time.Duration
	attempted int
	failed    int
	allocB    uint64
	mallocs   uint64
}

// setUp sets the workload up reps times, keeps the last instance and every
// set-up's wall time: setup_s is their median, so that one loud second on
// the host does not stand for the run.
func setUp(name string, seed uint64, sc scale, reps int) (*run, error) {
	r := &run{name: name}
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		w, err := newWorkload(name, seed, sc)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		if i+1 < reps {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", name, err)
			}
			continue
		}
		r.w = w
	}
	return r, nil
}

// slice runs the workload for at least d, ending on a unit boundary. The
// collection before it and the memory statistics around it are outside the
// timed window.
func (r *run) slice(d time.Duration) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := len(r.lat)
	cpu0 := cpuTime()
	t0 := time.Now()
	for time.Since(t0) < d {
		var failed int
		r.lat, failed = r.w.step(r.next, r.lat)
		r.failed += failed
		r.next++
	}
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ops := len(r.lat) - before
	r.attempted += ops
	r.allocB += m1.TotalAlloc - m0.TotalAlloc
	r.mallocs += m1.Mallocs - m0.Mallocs
	r.slices = append(r.slices, sliceStat{ops: ops, wall: wall, cpu: cpu})
}

// host records the two calibration kernels, once per round.
type host struct {
	alu, mem []float64
}

func (h *host) round() {
	h.alu = append(h.alu, ms(calibALU()))
	h.mem = append(h.mem, ms(calibMem()))
}

// interleave measures the runs round-robin: every round gives each
// workload one slice, in fixed order, so host drift lands on all of them
// alike instead of on whichever ran last.
func interleave(runs []*run, rounds int, slice time.Duration, h *host) {
	for i := 0; i < rounds; i++ {
		h.round()
		for _, r := range runs {
			r.slice(slice)
		}
	}
}

// metrics reduces the untraced slices to the end-to-end metrics and the
// timings: timings are medians over the slices or quantiles over all ops
// pooled, counts are totals per op.
func (r *run) metrics() map[string]float64 {
	var rate, cpu []float64
	for _, s := range r.slices {
		rate = append(rate, float64(s.ops)/s.wall.Seconds())
		cpu = append(cpu, ms(s.cpu)/float64(s.ops))
	}
	ops := float64(len(r.lat))
	lat := durationsMS(r.lat)
	return map[string]float64{
		"setup_s":         median(r.setups),
		"cpu_ms_per_op":   median(cpu),
		"alloc_mb_per_op": float64(r.allocB) / 1e6 / ops,
		"allocs_per_op":   float64(r.mallocs) / ops,
		"ops_per_s":       median(rate),
		"op_p50_ms":       median(lat),
		"op_p90_ms":       quantile(lat, 0.9),
	}
}

// tracedSlice runs units with spans for at least d and returns how many ops
// they covered.
func (r *run) tracedSlice(tr *tracer, d time.Duration) int {
	runtime.GC()
	ops := 0
	for t0 := time.Now(); time.Since(t0) < d; r.next++ {
		attempted, failed := r.w.traced(r.next, tr)
		r.attempted += attempted
		r.failed += failed
		ops += attempted
	}
	return ops
}

// traceFocus is the per-layer run of a workload in focus: untraced and
// traced slices alternate, so that the untraced half — the reference for the
// tail and for what tracing costs — sees the same host as the traced half.
// It adds the workload's layer metrics to layers and returns the driver's
// own metrics for it.
func (r *run) traceFocus(rounds int, slice time.Duration, h *host, layers map[string]float64) (map[string]float64, []span, error) {
	tr := newTracer(r.name)
	ops := 0
	for i := 0; i < rounds; i += 2 {
		h.round()
		r.slice(slice)
		ops += r.tracedSlice(tr, slice)
	}
	if err := r.w.layers(tr, layers); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", r.name, err)
	}
	var traced []float64
	for _, name := range r.w.opSpans() {
		traced = append(traced, tr.durations(name)...)
	}
	untraced := r.metrics()
	driver := map[string]float64{
		"driver.traced_ops":         float64(ops),
		"driver.trace_overhead_pct": 100 * (median(traced) - untraced["op_p50_ms"]) / untraced["op_p50_ms"],
	}
	for _, m := range timings {
		driver["driver."+m.Name] = untraced[m.Name]
	}
	return driver, tr.spans, nil
}

// traceAside traces a workload that is not in focus for one slice, so that a
// traced run reports every layer's metrics whichever workload it was asked
// for.
func (r *run) traceAside(slice time.Duration, h *host, layers map[string]float64) ([]span, error) {
	tr := newTracer(r.name)
	h.round()
	r.tracedSlice(tr, slice)
	if err := r.w.layers(tr, layers); err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	return tr.spans, nil
}
