package main

import (
	"crypto/sha256"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// toyOptions is a whole run at toy scale: every workload, one round of
// 100 ms slices, one set-up.
func toyOptions(t *testing.T) options {
	sc := toyScale
	sc.scratch = t.TempDir()
	return options{seed: 7, seconds: 0.1, rounds: 1, setupReps: 1, sc: sc}
}

func TestGatedRunReportsEveryEndToEndMetric(t *testing.T) {
	rep, err := execute(io.Discard, toyOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < len(workloadNames) {
		t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	if want := len(workloadNames) * len(endToEnd); len(rep.Metrics) != want {
		t.Fatalf("%d metrics reported, want %d", len(rep.Metrics), want)
	}
	for _, wl := range workloadNames {
		for _, m := range endToEnd {
			got, ok := rep.Metrics[wl+"/"+m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("%s/%s = %+v (present %v), want a positive value in %s", wl, m.Name, got, ok, m.Unit)
			}
		}
	}
}

func TestSingleWorkloadUsesBareNames(t *testing.T) {
	o := toyOptions(t)
	o.workload = "ckpt-cycle"
	rep, err := execute(io.Discard, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics) != len(endToEnd) {
		t.Fatalf("%d metrics reported, want %d", len(rep.Metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if _, ok := rep.Metrics[m.Name]; !ok {
			t.Errorf("no metric named %s", m.Name)
		}
	}
}

// perWorkload names the per-layer metrics each workload in focus reports for
// itself; every other per-layer metric belongs to one layer and is reported
// once.
var perWorkload = map[string]bool{
	"driver.traced_ops": true, "driver.trace_overhead_pct": true,
	"driver.cpu_ms_per_op": true, "driver.ops_per_s": true, "driver.op_p50_ms": true, "driver.op_p90_ms": true,
}

func TestTracedRun(t *testing.T) {
	o := toyOptions(t)
	o.trace = true
	o.rounds = 2
	o.spans = filepath.Join(o.sc.scratch, "spans.json")
	rep, err := execute(io.Discard, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", rep.Correct, rep.Failed)
	}
	want := len(perLayer) + (len(workloadNames)-1)*len(perWorkload)
	if len(rep.Metrics) != want {
		t.Fatalf("%d metrics reported, want %d", len(rep.Metrics), want)
	}
	for _, m := range perLayer {
		names := []string{m.Name}
		if perWorkload[m.Name] {
			names = nil
			for _, wl := range workloadNames {
				names = append(names, wl+"/"+m.Name)
			}
		}
		for _, name := range names {
			got, ok := rep.Metrics[name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s = %+v (present %v), want unit %s", name, got, ok, m.Unit)
			}
			// Every layer is driven by some workload, so nothing reads zero
			// but the count of shed requests and the computed differences.
			computed := strings.HasSuffix(m.Name, "glue_ms") || strings.HasSuffix(m.Name, "overhead_ms") ||
				strings.HasSuffix(m.Name, "overhead_pct") || m.Name == "serve.net_ms"
			if m.Name != "serve.shed" && !computed && !(got.Value > 0) {
				t.Errorf("%s = %v, want a positive value", name, got.Value)
			}
		}
	}

	data, err := os.ReadFile(o.spans)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	checkSpans(t, spans)
}

// A traced run asked for one workload still reports every per-layer
// metric, under bare names, and traces the other workloads' layers too.
func TestTracedRunOfOneWorkloadReportsEveryLayer(t *testing.T) {
	o := toyOptions(t)
	o.trace = true
	o.rounds = 2
	o.workload = "sweep-grid"
	rep, err := execute(io.Discard, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || len(rep.Metrics) != len(perLayer) {
		t.Fatalf("correct=%v, %d metrics, want %d", rep.Correct, len(rep.Metrics), len(perLayer))
	}
	for _, name := range []string{"core.hierarchical_ms", "serve.handler_hit_ms", "sweep.run_ms", "erasure.encode_ms", "driver.op_p90_ms"} {
		if v := rep.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want a positive value", name, v)
		}
	}
}

// checkSpans holds the span file to the tracing rules: a child lies inside
// its parent, belongs to the same workload and shares its op id.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	byID := map[string]map[int]span{}
	for _, s := range spans {
		if byID[s.Workload] == nil {
			byID[s.Workload] = map[int]span{}
		}
		byID[s.Workload][s.ID] = s
	}
	if len(byID) != len(workloadNames) {
		t.Fatalf("spans from %d workloads, want %d", len(byID), len(workloadNames))
	}
	children := 0
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Parent < 0 {
			continue
		}
		children++
		p, ok := byID[s.Workload][s.Parent]
		if !ok || p.Op != s.Op || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Fatalf("span %+v does not nest in its parent %+v", s, p)
		}
	}
	if children == 0 {
		t.Fatal("no nested spans recorded")
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the tables this package reports
// from, and both to the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmarks"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, spec.go has %+v", kind, i, m, w)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: %q (unit %q) is invalid or repeated", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: %s: bound present = %v", kind, m.Name, m.Bound != nil)
			}
			if bounded && (*m.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25) {
				t.Errorf("%s: %s: bound %v in BENCHMARK.json, %v in spec.go", kind, m.Name, *m.Bound, w.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// digest hashes the inputs and the schedule classes of a workload's first
// units.
func digest(t *testing.T, name string, seed uint64, sc scale) (inputs, classes [sha256.Size]byte) {
	t.Helper()
	w, err := newWorkload(name, seed, sc)
	if err != nil {
		t.Fatal(err)
	}
	hi, hc := sha256.New(), sha256.New()
	for idx := 0; idx < 40; idx++ {
		data, class := w.input(idx)
		hi.Write(data)
		hc.Write([]byte(class))
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	hi.Sum(inputs[:0])
	hc.Sum(classes[:0])
	return inputs, classes
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	sc := toyScale
	sc.scratch = t.TempDir()
	for _, name := range workloadNames {
		in1, cl1 := digest(t, name, 11, sc)
		in2, cl2 := digest(t, name, 11, sc)
		in3, cl3 := digest(t, name, 12, sc)
		if in1 != in2 || cl1 != cl2 {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if in1 == in3 {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
		if cl1 != cl3 {
			t.Errorf("%s: the schedule depends on the seed", name)
		}
	}
}

// TestCorruptReferenceCountsAsFailed breaks each workload's reference and
// expects the op that meets it to be counted as failed, not passed over.
func TestCorruptReferenceCountsAsFailed(t *testing.T) {
	sc := toyScale
	sc.scratch = t.TempDir()
	corrupt := map[string]func(w workload){
		"eval-128k": func(w workload) {
			for _, res := range w.(*evalWL).want {
				res.Evaluations[0].CatastropheProb *= 2
			}
		},
		"sweep-grid": func(w workload) {
			for _, docs := range w.(*sweepWL).want {
				docs[len(docs)-1][0] ^= 0xff
			}
		},
		"serve-mix": func(w workload) {
			for _, resp := range w.(*serveWL).hotWant {
				resp[len(resp)/2] ^= 0xff
			}
		},
		"ckpt-cycle": func(w workload) {
			for _, blob := range w.(*ckptWL).want {
				blob[len(blob)-1] ^= 0xff
			}
		},
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, 5, sc)
		if err != nil {
			t.Fatal(err)
		}
		lat, failed := w.step(0, nil)
		if failed != 0 || len(lat) == 0 {
			t.Fatalf("%s: %d of %d ops failed before any corruption", name, failed, len(lat))
		}
		corrupt[name](w)
		if _, failed = w.step(1, nil); failed == 0 {
			t.Errorf("%s: corrupt reference, yet no op counted as failed", name)
		}
		if _, failed := w.traced(2, newTracer(name)); failed == 0 {
			t.Errorf("%s: corrupt reference, yet no traced op counted as failed", name)
		}
		w.close()
	}
}

func TestServeCountersAreHeldAgainstTheSchedule(t *testing.T) {
	sc := toyScale
	sc.scratch = t.TempDir()
	w, err := newServe(3, sc)
	if err != nil {
		t.Fatal(err)
	}
	w.step(0, nil)
	w.expHits-- // pretend one hit was answered by another cache level
	if err := w.close(); err == nil {
		t.Fatal("counters off the schedule were accepted")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread %v, want %v", got, want)
	}
}
