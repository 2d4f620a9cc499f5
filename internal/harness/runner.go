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

// Run executes the experiments on a pool of workers and returns results in
// input order, so output is byte-identical regardless of worker count or
// completion order. workers == 1 runs serially on the caller's goroutine;
// workers <= 0 means GOMAXPROCS. Every experiment is independent (the
// shared state, the pipeline and its trace cache and fig5a/b's encoder-rank
// runs, is safe for concurrent use), which is what makes the pool safe.
func Run(cfg Config, exps []Experiment, workers int) []RunResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]RunResult, len(exps))
	pool.Run(len(exps), workers, exps, nil, func(exps []Experiment, i, _ int) { results[i] = RunOne(cfg, exps[i]) })
	return results
}

// RunOne executes and times a single experiment. Serial callers (hcrun
// -workers 1) use it to stream each table as it completes and stop
// at the first failure instead of batching through Run.
func RunOne(cfg Config, e Experiment) RunResult {
	start := time.Now()
	table, err := e.Run(cfg)
	return RunResult{Experiment: e, Table: table, Err: err, Elapsed: time.Since(start)}
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
