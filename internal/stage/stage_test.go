package stage

import (
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"hierclust/internal/metrics"
	"hierclust/internal/racedetect"
)

// TestEnterLeaveAllocatesNothing: a stage's label set is built at init, so
// entering and leaving it costs no allocation, under a bare context and
// under one carrying a caller's labels.
func TestEnterLeaveAllocatesNothing(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	tab := NewTable()
	labelled := pprof.WithLabels(context.Background(), pprof.Labels("caller", "x"))
	for _, ctx := range []context.Context{context.Background(), labelled} {
		if got := testing.AllocsPerRun(100, func() {
			tab.Leave(ctx, Partition, Enter(Partition))
		}); got != 0 {
			t.Errorf("a stage pass allocates %v objects, want 0", got)
		}
	}
}

// TestTableExposition: one series per stage under the label stage, the
// passes counted where they were observed.
func TestTableExposition(t *testing.T) {
	tab := NewTable()
	tab.Observe(Eval, 3*time.Millisecond)
	tab.Observe(Eval, 5*time.Millisecond)
	tab.Observe(Lookup, 20*time.Microsecond)
	reg := metrics.NewRegistry()
	tab.Register(reg, "x_stage_seconds", "")
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`x_stage_seconds_count{stage="eval"} 2`,
		`x_stage_seconds_bucket{stage="eval",le="0.0025"} 0`,
		`x_stage_seconds_bucket{stage="eval",le="0.005"} 2`,
		`x_stage_seconds_bucket{stage="lookup",le="0.0001"} 1`,
		`x_stage_seconds_count{stage="trace"} 0`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	}
	var w strings.Builder
	if _, err := tab.WriteTo(&w); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(w.String()), "\n"); len(lines) != 3 ||
		!strings.HasPrefix(lines[1], "lookup ") || !strings.HasPrefix(lines[2], "eval ") {
		t.Errorf("WriteTo prints the header and the two stages seen, in stage order:\n%s", w.String())
	}
}
