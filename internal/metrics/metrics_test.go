package metrics

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hierclust/internal/racedetect"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(2)
	r.GaugeFunc("test_entries", "a gauge func", func() float64 { return 7 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_total a counter",
		"# TYPE test_total counter",
		"test_total 3",
		"# TYPE test_entries gauge",
		"test_entries 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if c.Value() != 3 {
		t.Fatalf("Value() = %d, want 3", c.Value())
	}
}

func TestCounterFuncExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("ext_errors_total", "errors counted elsewhere", func() float64 { return 12 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ext_errors_total counter",
		"ext_errors_total 12",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "endpoint", "status")
	v.With("evaluate", "200").Add(2)
	v.With("evaluate", "429").Inc()
	// Same label values resolve to the same series.
	v.With("evaluate", "200").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `req_total{endpoint="evaluate",status="200"} 3`) {
		t.Errorf("missing 200 series:\n%s", out)
	}
	if !strings.Contains(out, `req_total{endpoint="evaluate",status="429"} 1`) {
		t.Errorf("missing 429 series:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("esc_total", "", "path")
	v.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("bad escaping:\n%s", b.String())
	}
}

// TestWithExistingSeriesAllocatesNothing: With renders its label block on
// the stack, so a series that exists is found without allocating; the
// escaped label keeps the same series.
func TestWithExistingSeriesAllocatesNothing(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	r := NewRegistry()
	cv := r.CounterVec("with_total", "", "endpoint", "status")
	cv.With("evaluate", "a\"b").Inc()
	status := "a\"b"
	if got := testing.AllocsPerRun(100, func() {
		cv.With("evaluate", status).Inc()
	}); got != 0 {
		t.Errorf("With on existing series allocates %v objects, want 0", got)
	}
	if c := cv.With("evaluate", "a\"b").Value(); c != 102 {
		t.Errorf("counter = %d, want 102 (the runs share one series)", c)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]float64{0.1, 1, 10})
	r.HistogramSeries("lat_seconds", "latency", "op", []string{"get"}, []*Histogram{h})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 55.65; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{op="get",le="0.1"} 2`, // 0.05 and the boundary 0.1 (le is inclusive)
		`lat_seconds_bucket{op="get",le="1"} 3`,
		`lat_seconds_bucket{op="get",le="10"} 4`,
		`lat_seconds_bucket{op="get",le="+Inf"} 5`,
		`lat_seconds_sum{op="get"} 55.65`,
		`lat_seconds_count{op="get"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramVecMergesLeLabel(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]float64{1})
	r.HistogramSeries("eval_seconds", "", "source", []string{"tsunami"}, []*Histogram{h})
	h.Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `eval_seconds_bucket{source="tsunami",le="1"} 1`) {
		t.Errorf("le label not merged into series labels:\n%s", out)
	}
	if !strings.Contains(out, `eval_seconds_count{source="tsunami"} 1`) {
		t.Errorf("missing labeled count:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("dup_total", "", func() float64 { return 0 })
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid name did not panic")
		}
	}()
	r.Counter("0bad-name", "")
}

func TestWrongLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("arity_total", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity did not panic")
		}
	}()
	v.With("only-one")
}

// TestConcurrentUse hammers every metric kind from many goroutines while
// scraping concurrently — the registry's concurrency-safety contract,
// meaningful under -race (the CI test job always runs with it).
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	var g atomic.Int64
	cv := r.CounterVec("conc_vec_total", "", "worker")
	const workers = 8
	hs, labels := make([]*Histogram, workers), make([]string, workers)
	for w := range hs {
		hs[w], labels[w] = NewHistogram([]float64{0.5, 1}), string(rune('a'+w))
	}
	r.HistogramSeries("conc_seconds", "", "worker", labels, hs)
	r.GaugeFunc("conc_fn", "", func() float64 { return float64(g.Load()) })

	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				cv.With(label).Inc()
				hs[w].Observe(float64(i) / iters)
				g.Add(-1)
			}
		}(w)
	}
	// Scrape concurrently with the writers.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if c.Value() != workers*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*iters)
	}
	for w := 0; w < workers; w++ {
		label := string(rune('a' + w))
		if got := cv.With(label).Value(); got != iters {
			t.Fatalf("vec counter %q = %d, want %d", label, got, iters)
		}
		if got := hs[w].Count(); got != iters {
			t.Fatalf("histogram %q count = %d, want %d", label, got, iters)
		}
	}
}
