package harness

import (
	"encoding/json"
	"runtime"
	"time"

	"hierclust/internal/pool"
)

// RunResult is one experiment's outcome under the pooled runner.
type RunResult struct {
	Experiment Experiment
	Table      *Table
	Err        error
	Elapsed    time.Duration
}

// Run executes the experiments on a GOMAXPROCS-wide worker pool and returns
// results in input order, so output is byte-identical regardless of
// completion order. Every experiment is independent (the shared state, the
// pipeline and its trace cache and fig5a/b's encoder-rank runs, is safe for
// concurrent use), which is what makes the pool safe.
func Run(cfg Config, exps []Experiment) []RunResult {
	return run(cfg, exps, runtime.GOMAXPROCS(0))
}

// run is Run on a pool of the given width; one runs the experiments
// serially on the caller's goroutine.
func run(cfg Config, exps []Experiment, workers int) []RunResult {
	results := make([]RunResult, len(exps))
	pool.Run(len(exps), workers, exps, nil, func(exps []Experiment, i, _ int) {
		start := time.Now()
		table, err := exps[i].Run(cfg)
		results[i] = RunResult{Experiment: exps[i], Table: table, Err: err, Elapsed: time.Since(start)}
	})
	return results
}

// jsonResult is the machine-readable form of one experiment result.
type jsonResult struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Columns   []string   `json:"columns,omitempty"`
	Rows      [][]string `json:"rows,omitempty"`
	Notes     []string   `json:"notes,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"`
	Error     string     `json:"error,omitempty"`
}

// ResultsJSON renders the results as an indented JSON array, the emitter
// behind hcrun -json.
func ResultsJSON(results []RunResult) ([]byte, error) {
	out := make([]jsonResult, len(results))
	for i, r := range results {
		out[i] = jsonResult{
			ID:        r.Experiment.ID,
			Title:     r.Experiment.Title,
			ElapsedMS: float64(r.Elapsed) / float64(time.Millisecond),
		}
		if r.Table != nil {
			out[i].Columns = r.Table.Columns
			out[i].Rows = r.Table.Rows
			out[i].Notes = r.Table.Notes
		}
		if r.Err != nil {
			out[i].Error = r.Err.Error()
		}
	}
	return json.MarshalIndent(out, "", "  ")
}
