// Package stage is the one timing path of an evaluation: fixed stages, each
// entered with a pprof goroutine label (stage=<name>) and left with its
// duration observed in a Table of one histogram per stage. Neither
// allocates, so labels and timings are always on.
package stage

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"time"

	"hierclust/internal/metrics"
)

// Stage is one timed step of an evaluation or of a request.
type Stage uint8

// The pipeline's stages — trace, fold, partition, fill, profile (validation,
// recovery and the reliability reduction), weigh (by a mix) and logged —
// then a request's: decode, lookup (result cache), queue (admission), eval
// (admission to Result) and render (document and cache fill). N counts them.
const (
	Trace Stage = iota
	Fold
	Partition
	Fill
	Profile
	Weigh
	Logged
	Decode
	Lookup
	Queue
	Eval
	Render
	N
)

var names = [N]string{"trace", "fold", "partition", "fill", "profile", "weigh", "logged",
	"decode", "lookup", "queue", "eval", "render"}

// String is the stage's name: its pprof label value and metric label.
func (s Stage) String() string { return names[s] }

var labels [N]context.Context // labels[s] carries stage=<s>, built once

func init() {
	for s := range N {
		labels[s] = pprof.WithLabels(context.Background(), pprof.Labels("stage", names[s]))
	}
}

// Enter labels the calling goroutine stage=s, replacing its labels until
// the stage is left, and returns the time it entered.
func Enter(s Stage) time.Time {
	pprof.SetGoroutineLabels(labels[s])
	return time.Now()
}

// Restore gives the calling goroutine the labels of ctx back: a caller's
// pprof.Do labels, or none.
func Restore(ctx context.Context) { pprof.SetGoroutineLabels(ctx) }

// Times holds one duration per stage: what one request spent in each.
type Times [N]time.Duration

// Table is one latency histogram per stage, bucketed from 10 µs (a result
// lookup) to 10 s (a traced run at paper scale). Any number of goroutines
// may observe into one table.
type Table struct{ h [N]*metrics.Histogram }

// NewTable returns an empty table.
func NewTable() *Table {
	t := new(Table)
	for s := range t.h {
		t.h[s] = metrics.NewHistogram([]float64{.00001, .0001, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10})
	}
	return t
}

// Observe records one pass through stage s that took d.
func (t *Table) Observe(s Stage, d time.Duration) { t.h[s].Observe(d.Seconds()) }

// Leave ends stage s, entered at t0: it restores ctx's labels on the calling
// goroutine, observes the time since t0 and returns it.
func (t *Table) Leave(ctx context.Context, s Stage, t0 time.Time) time.Duration {
	Restore(ctx)
	d := time.Since(t0)
	t.Observe(s, d)
	return d
}

// Register exposes the table on reg as the histogram family name, one
// series per stage under the label "stage".
func (t *Table) Register(reg *metrics.Registry, name, help string) {
	reg.HistogramSeries(name, help, "stage", names[:], t.h[:])
}

// WriteTo prints the pass count, total and mean time of every stage the
// table has seen, in stage order.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	b := fmt.Appendf(nil, "%-10s %8s %12s %12s\n", "stage", "count", "total_ms", "mean_ms")
	for s, h := range t.h {
		if c, ms := h.Count(), h.Sum()*1e3; c > 0 {
			b = fmt.Appendf(b, "%-10s %8d %12.3f %12.4f\n", names[s], c, ms, ms/float64(c))
		}
	}
	n, err := w.Write(b)
	return int64(n), err
}
