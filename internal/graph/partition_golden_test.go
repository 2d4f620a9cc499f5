package graph

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/partition_golden.json from the current implementation")

// goldenGraphs enumerates every partition test graph the package exercises,
// including float-weighted random graphs whose refinement gains are only
// bit-identical when every floating-point accumulation happens in the exact
// historical order. The golden file pins the assignment of each one, for
// both the single-level and the multilevel path, so performance work on the
// partitioner can never silently change an output bit.
func goldenGraphs() []struct {
	name string
	g    *Graph
	opts PartitionOptions
} {
	cases := []struct {
		name string
		g    *Graph
		opts PartitionOptions
	}{
		{"path16", path(16, 1), PartitionOptions{MinSize: 4, TargetSize: 4, MaxSize: 4}},
		{"ring10", ring(10, 1), PartitionOptions{MinSize: 3}},
		{"ring4", ring(4, 1), PartitionOptions{MinSize: 4, TargetSize: 4}},
		{"ring1024", ring(1024, 1000), PartitionOptions{MinSize: 4, TargetSize: 4}},
		{"stencil4096", stencil2D(4096, 64), PartitionOptions{MinSize: 4, TargetSize: 4}},
		{"stencil16384", stencil2D(16384, 128), PartitionOptions{MinSize: 4, TargetSize: 4}},
		{"stencil16384-t16", stencil2D(16384, 128), PartitionOptions{MinSize: 4, TargetSize: 16}},
		{"stencil8192", stencil2D(8192, 128), PartitionOptions{MinSize: 4, TargetSize: 4}},
	}
	// The community graph of TestPartitionImprovesOverRandom.
	const k, groups = 8, 6
	comm := communityGraph(k, groups)
	cases = append(cases, struct {
		name string
		g    *Graph
		opts PartitionOptions
	}{"community48", comm, PartitionOptions{MinSize: k, TargetSize: k, MaxSize: k}})
	for seed := int64(1); seed <= 3; seed++ {
		cases = append(cases, struct {
			name string
			g    *Graph
			opts PartitionOptions
		}{fmt.Sprintf("random2048-s%d", seed), randomIntGraph(seed, 2048), PartitionOptions{MinSize: 4, TargetSize: 4}})
	}
	// Float-weighted random graphs: weights with non-terminating binary
	// expansions make any reordering of additions visible.
	for seed := int64(10); seed <= 12; seed++ {
		frng := rand.New(rand.NewSource(seed))
		n := 1500
		e := newEdges(n)
		for i := 0; i+1 < n; i++ {
			e.add(i, i+1, 0.1+frng.Float64()*99)
		}
		for i := 0; i < 3*n; i++ {
			u, v := frng.Intn(n), frng.Intn(n)
			if u != v {
				e.add(u, v, 0.1+frng.Float64()*49)
			}
		}
		fg := e.graph()
		cases = append(cases, struct {
			name string
			g    *Graph
			opts PartitionOptions
		}{fmt.Sprintf("randfloat1500-s%d", seed), fg, PartitionOptions{MinSize: 4, TargetSize: 4}})
	}
	// A tiny coarsen threshold forces a deep ladder even at modest size.
	cases = append(cases, struct {
		name string
		g    *Graph
		opts PartitionOptions
	}{"random2048-deep", randomIntGraph(9, 2048), PartitionOptions{MinSize: 4, TargetSize: 4, coarsenThreshold: 16}})
	return cases
}

// hashAssignment folds a dense assignment into a stable 64-bit fingerprint.
func hashAssignment(part []int) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range part {
		v := uint64(p)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPartitionGolden pins the exact assignment of both partitioner paths on
// every test graph. Any change to a recorded hash means an output bit
// changed — which this repository treats as a breaking change for the
// partitioner, since evaluations are compared byte-for-byte. The golden file
// still carries one multilevel entry per former worker count (w1, w2, w8);
// the one multilevel assignment must match all three.
// Regenerate deliberately with: go test ./internal/graph -run Golden -update
func TestPartitionGolden(t *testing.T) {
	goldenPath := filepath.Join("testdata", "partition_golden.json")
	got := map[string]string{}
	for _, tc := range goldenGraphs() {
		single, err := Partition(tc.g, tc.opts)
		if err != nil {
			t.Fatalf("%s: single-level: %v", tc.name, err)
		}
		got[tc.name+"/single"] = hashAssignment(single)
		mlOpts := tc.opts
		mlOpts.Multilevel = true
		multi, err := Partition(tc.g, mlOpts)
		if err != nil {
			t.Fatalf("%s: multilevel: %v", tc.name, err)
		}
		h := hashAssignment(multi)
		for _, w := range []string{"w1", "w2", "w8"} {
			got[tc.name+"/multilevel/"+w] = h
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", goldenPath, len(got))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] == "" {
			t.Errorf("golden entry %s no longer produced", k)
			continue
		}
		if got[k] != want[k] {
			t.Errorf("%s: assignment hash %s, golden %s (output bit changed)", k, got[k], want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("case %s missing from golden file (regenerate with -update)", k)
		}
	}
}
