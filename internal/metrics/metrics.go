// Package metrics is a small, dependency-free instrumentation registry
// for the hcserve evaluation service: the five metric kinds it registers —
// Counter, CounterVec, and the GaugeFunc, CounterFunc and HistogramSeries
// (fixed buckets) bridges to values tracked elsewhere — exposed in the
// Prometheus text format (version 0.0.4) by Registry.WritePrometheus.
//
// The package deliberately implements the minimal subset of the Prometheus
// data model the repository needs — no client library dependency, no
// push/pull machinery, no dynamic label cardinality protection beyond what
// the caller wires. All metric operations (Inc, Add, Observe, With)
// are safe for concurrent use, lock-free on the hot path (atomics), and
// may race freely with WritePrometheus; the exposition is a point-in-time
// snapshot with no cross-metric consistency guarantee, exactly like a real
// Prometheus scrape. A concurrency test pins this under the race detector.
//
// Registration (Counter, *Vec, GaugeFunc, CounterFunc) is intended
// for startup: registering the same name twice, or an invalid name or
// label, panics — a mis-wired metric is a programmer error that should
// fail loudly in the first test that touches it, not ship a silent gap in
// observability.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a named set of metric families and renders them in the
// Prometheus text exposition format. The zero value is not usable;
// construct with NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric family: a type, help text, a label schema,
// and the live series.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", or "histogram"
	labels []string

	mu     sync.RWMutex
	series map[string]metric // key = joined, escaped label values
	fn     func() float64    // GaugeFunc families only
}

// metric is the value side of one labeled series.
type metric interface {
	// write renders the series (with the pre-rendered label block) as one
	// or more exposition lines.
	write(w io.Writer, name, labelBlock string) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register installs a family, panicking on duplicate or invalid names —
// see the package comment for why registration fails loudly.
func (r *Registry) register(f *family) *family {
	if !validName(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("metrics: metric %q registered twice", f.name))
	}
	f.series = map[string]metric{}
	r.families[f.name] = f
	return f
}

// validName reports whether s is a legal Prometheus metric or label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// Counter registers and returns an unlabeled monotonically increasing
// counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, typ: "counter"})
	c := &Counter{}
	f.series[""] = c
	return c
}

// CounterVec registers a counter family with the given label dimensions;
// series materialize on first With.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: CounterVec %q needs at least one label (use Counter)", name))
	}
	return &CounterVec{f: r.register(&family{name: name, help: help, typ: "counter", labels: labels})}
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time — the bridge for values already tracked elsewhere (cache entry
// counts, queue lengths). fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", fn: fn})
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — for monotonic totals already counted elsewhere (the
// trace cache's own error counters). fn must be safe for concurrent use
// and must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "counter", fn: fn})
}

// HistogramSeries registers a histogram family of one label whose series
// are hs, hs[i] under values[i]: histograms observed by code that holds no
// registry (a pipeline's stage table), rendered here.
func (r *Registry) HistogramSeries(name, help, label string, values []string, hs []*Histogram) {
	f := r.register(&family{name: name, help: help, typ: "histogram", labels: []string{label}})
	for i, h := range hs {
		f.series[string(appendLabelBlock(nil, f.labels, values[i:i+1]))] = h
	}
}

// Counter is a monotonically increasing integer counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name, labelBlock string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, labelBlock, c.v.Load())
	return err
}

// Histogram counts observations into fixed cumulative buckets and tracks
// their sum — the Prometheus histogram model, answering quantile queries
// at scrape time via histogram_quantile.
type Histogram struct {
	upper  []float64 // ascending; +Inf is implicit as counts[len(upper)]
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

// NewHistogram returns a histogram over upper, its buckets' strictly
// ascending upper bounds (+Inf is implicit), for HistogramSeries.
func NewHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bucket whose upper bound contains v.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

func (h *Histogram) write(w io.Writer, name, labelBlock string) error {
	// Bucket lines carry the le label merged into the series' label block.
	cum := uint64(0)
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		if err := writeBucket(w, name, labelBlock, formatFloat(ub), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.upper)].Load()
	if err := writeBucket(w, name, labelBlock, "+Inf", cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labelBlock, formatFloat(h.sum.load())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelBlock, h.count.Load())
	return err
}

func writeBucket(w io.Writer, name, labelBlock, le string, cum uint64) error {
	var block string
	if labelBlock == "" {
		block = `{le="` + le + `"}`
	} else {
		block = strings.TrimSuffix(labelBlock, "}") + `,le="` + le + `"}`
	}
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, block, cum)
	return err
}

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per registered
// label, in registration order), creating it on first use. The label block,
// which is the series map key, is rendered into a stack buffer, so finding
// an existing series allocates nothing; the key string is made only when
// the series is created.
func (v *CounterVec) With(values ...string) *Counter {
	f := v.f
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	var stack [128]byte
	key := appendLabelBlock(stack[:0], f.labels, values)
	f.mu.RLock()
	m, ok := f.series[string(key)]
	f.mu.RUnlock()
	if ok {
		return m.(*Counter)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[string(key)]; ok {
		return m.(*Counter)
	}
	c := &Counter{}
	f.series[string(key)] = c
	return c
}

// appendLabelBlock appends `{a="x",b="y"}` with the exposition-format
// label escapes applied to the values; it doubles as the series map key, so
// equal label sets share a series.
func appendLabelBlock(b []byte, labels, values []string) []byte {
	sep := byte('{')
	for i, l := range labels {
		b = append(append(append(b, sep), l...), `="`...)
		sep = ','
		for _, c := range []byte(values[i]) {
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, `\n`...)
			default:
				b = append(b, c)
			}
		}
		b = append(b, '"')
	}
	return append(b, '}')
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip representation; integers without a trailing .0 are fine).
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered family in the text exposition
// format, families sorted by name and series sorted by label block, so
// output is deterministic for tests and diffable between scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		if f.fn != nil {
			if _, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.fn())); err != nil {
				return err
			}
			continue
		}
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		series := make([]metric, len(keys))
		for i, k := range keys {
			series[i] = f.series[k]
		}
		f.mu.RUnlock()
		for i, k := range keys {
			if err := series[i].write(w, f.name, k); err != nil {
				return err
			}
		}
	}
	return nil
}

// escapeHelp applies the exposition-format help-text escapes.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
