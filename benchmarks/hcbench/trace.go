package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// driver from outside: nothing inside the program is instrumented. Spans of
// one op share Op; Parent is the ID of the span open when this one began
// (-1 at the root).
type span struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Allocs is the runtime.MemStats.Mallocs delta over the call, or -1
	// when the call was not counted.
	Allocs int64 `json:"allocs"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of open span ids
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// do runs fn inside a span. With allocs set, the Mallocs delta over the
// call is read outside the span's clock.
func (t *tracer) do(name string, op int, allocs bool, fn func()) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Workload: t.workload, ID: id, Parent: parent, Op: op, Name: name, Allocs: -1})
	t.open = append(t.open, id)
	var m0, m1 runtime.MemStats
	if allocs {
		runtime.ReadMemStats(&m0)
	}
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	if allocs {
		runtime.ReadMemStats(&m1)
		t.spans[id].Allocs = int64(m1.Mallocs - m0.Mallocs)
	}
	t.spans[id].StartNS, t.spans[id].EndNS = int64(start), int64(end)
	t.open = t.open[:len(t.open)-1]
}

// durations returns the wall time of every span with the given name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// medianMS is the median wall time of the named span over the traced ops.
func (t *tracer) medianMS(name string) float64 { return median(t.durations(name)) }

// allocs is the median Mallocs delta of the named span.
func (t *tracer) allocs(name string) float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.Allocs >= 0 {
			out = append(out, float64(s.Allocs))
		}
	}
	return median(out)
}

// writeSpans saves spans as one JSON array, creating the directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
