package main

import (
	"flag"
	"os"
	"strings"
	"testing"

	"hierclust/internal/harness"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/all_quick.golden from the current output")

// TestAllQuickGolden pins the exact `hcrun -exp all -quick` output against
// the snapshot taken before the pkg/hierclust API redesign: the rewrite of
// hcrun as a thin client must not change a byte of the paper reproduction.
// Regenerate deliberately with `go test ./cmd/hcrun -update-golden` after a
// change that is supposed to move numbers.
func TestAllQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("traced experiment suite is slow under -short")
	}
	cfg := harness.Config{Quick: true}
	var sb strings.Builder
	for _, r := range harness.Run(cfg, harness.All()) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Experiment.ID, r.Err)
		}
		// Mirror hcrun's emit: Println adds the blank line between tables.
		sb.WriteString(r.Table.ASCII())
		sb.WriteByte('\n')
	}
	got := sb.String()

	const path = "testdata/all_quick.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("hcrun -exp all -quick output drifted from %s\ngot %d bytes, want %d bytes\nfirst divergence at byte %d\n(run `go test ./cmd/hcrun -update-golden` only if the change is intentional)",
			path, len(got), len(want), firstDiff(got, string(want)))
	}
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
