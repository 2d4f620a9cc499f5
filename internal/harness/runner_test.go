package harness

import (
	"encoding/json"
	"strings"
	"testing"
)

// subset keeps the runner test fast while still covering experiments that
// share the traced-rig cache (fig3a/fig4a) and ones that do not (table1).
func runnerSubset(t *testing.T) []Experiment {
	t.Helper()
	var out []Experiment
	for _, id := range []string{"table1", "fig3a", "fig4a", "table2"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func renderAll(t *testing.T, results []RunResult) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Experiment.ID, r.Err)
		}
		sb.WriteString(r.Table.ASCII())
	}
	return sb.String()
}

// TestRunParallelMatchesSerial is the acceptance property behind hcrun's
// pool: pooled execution must produce byte-identical tables in the same
// order as a serial run, whatever the host's cores.
func TestRunParallelMatchesSerial(t *testing.T) {
	exps := runnerSubset(t)
	serial := renderAll(t, run(quick, exps, 1))
	parallel := renderAll(t, run(quick, exps, 4))
	if serial != parallel {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

func TestRunPreservesOrderAndElapsed(t *testing.T) {
	exps := runnerSubset(t)
	results := Run(quick, exps)
	if len(results) != len(exps) {
		t.Fatalf("got %d results, want %d", len(results), len(exps))
	}
	for i, r := range results {
		if r.Experiment.ID != exps[i].ID {
			t.Errorf("result %d is %s, want %s", i, r.Experiment.ID, exps[i].ID)
		}
		if r.Err == nil && r.Elapsed <= 0 {
			t.Errorf("%s: non-positive elapsed %v", r.Experiment.ID, r.Elapsed)
		}
	}
}

func TestResultsJSON(t *testing.T) {
	exps := runnerSubset(t)[:1]
	doc, err := ResultsJSON(Run(quick, exps))
	if err != nil {
		t.Fatal(err)
	}
	var parsed []struct {
		ID        string     `json:"id"`
		Columns   []string   `json:"columns"`
		Rows      [][]string `json:"rows"`
		ElapsedMS float64    `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("ResultsJSON emitted invalid JSON: %v\n%s", err, doc)
	}
	if len(parsed) != 1 || parsed[0].ID != "table1" {
		t.Fatalf("unexpected JSON shape: %+v", parsed)
	}
	if len(parsed[0].Rows) == 0 || len(parsed[0].Columns) == 0 {
		t.Errorf("JSON missing table payload: %+v", parsed[0])
	}
}
