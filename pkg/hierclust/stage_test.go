package hierclust

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"hierclust/internal/faultinject"
)

// goroutineLabels returns the labels line of the first goroutine, in a
// debug=1 goroutine profile, whose stack mentions fn ("" when it has none,
// and false when no goroutine's does).
func goroutineLabels(t *testing.T, fn string) (string, bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, fn) {
			continue
		}
		for _, line := range strings.Split(rec, "\n") {
			if labels, ok := strings.CutPrefix(line, "# labels: "); ok {
				return labels, true
			}
		}
		return "", true
	}
	return "", false
}

// TestStageLabelInGoroutineProfile holds a Run inside its trace stage (a
// latency fault on the trace build) and finds the goroutine labelled
// stage=trace in a goroutine profile.
func TestStageLabelInGoroutineProfile(t *testing.T) {
	defer faultinject.DisarmAll()
	const delay = 500 * time.Millisecond
	faultinject.Arm("pipeline.trace.build", faultinject.Fault{Kind: faultinject.KindLatency, Delay: delay})
	pl := NewPipeline(WithWorkers(1), WithTraceCache(NewMemoryTraceCache(1)))
	done := make(chan error, 1)
	go func() {
		_, err := pl.Run(context.Background(), traceScenario("held", "naive"))
		done <- err
	}()
	seen := ""
	for deadline := time.Now().Add(delay); time.Now().Before(deadline) && !strings.Contains(seen, `"stage":"trace"`); time.Sleep(5 * time.Millisecond) {
		seen, _ = goroutineLabels(t, "resolveTrace")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(seen, `"stage":"trace"`) {
		t.Fatalf("the Run held in its trace build is labelled %q, want stage=trace", seen)
	}
}

// TestRunRestoresCallerLabels: the labels a caller set with pprof.Do are
// the goroutine's again once Run has passed through every stage.
func TestRunRestoresCallerLabels(t *testing.T) {
	pl := NewPipeline(WithWorkers(1))
	pprof.Do(context.Background(), pprof.Labels("caller", "restore-test"), func(ctx context.Context) {
		if _, err := pl.Run(ctx, syntheticScenario()); err != nil {
			t.Fatal(err)
		}
		labels, ok := goroutineLabels(t, "TestRunRestoresCallerLabels")
		if !ok || labels != `{"caller":"restore-test"}` {
			t.Fatalf("after Run the caller's goroutine is labelled %q, want {\"caller\":\"restore-test\"}", labels)
		}
	})
}

// TestRunObservesEveryPipelineStage: one Run of a flat and a hierarchical
// strategy passes through the trace stage once, through the hierarchical
// build's fold and partition once, and through fill, profile, weigh and
// logged once per strategy; no request stage is observed.
func TestRunObservesEveryPipelineStage(t *testing.T) {
	pl := NewPipeline(WithWorkers(1))
	sc := syntheticScenario()
	sc.Strategies = []StrategySpec{{Kind: "naive", Size: 8}, {Kind: "hierarchical"}}
	if _, err := pl.Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pl.Stages().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"trace": 1, "fold": 1, "partition": 1, "fill": 2, "profile": 2, "weigh": 2, "logged": 2}
	rows := regexp.MustCompile(`(?m)^(\w+)\s+(\d+)\s`).FindAllStringSubmatch(buf.String(), -1)
	if len(rows) != len(want) {
		t.Fatalf("stage table:\n%s\nwant exactly the stages %v", buf.String(), want)
	}
	for _, row := range rows {
		if got := fmt.Sprint(want[row[1]]); row[2] != got {
			t.Errorf("stage %s passed %s times, want %s", row[1], row[2], got)
		}
	}
}
