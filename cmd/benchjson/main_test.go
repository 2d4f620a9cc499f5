package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeSnap(t *testing.T, dir, name string, benches []Benchmark) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(Snapshot{GoVersion: "test", Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Adding a benchmark to the suite must not break the compare gate: names
// present only in the new snapshot are reported as "new", never failures,
// even when they match the guard filter.
func TestCompareNewBenchmarkDoesNotFail(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", []Benchmark{
		{Name: "BenchmarkRSEncode/k=8-4", Iterations: 10, NsPerOp: 100},
	})
	new := writeSnap(t, dir, "new.json", []Benchmark{
		{Name: "BenchmarkRSEncode/k=8-4", Iterations: 10, NsPerOp: 101},
		{Name: "BenchmarkPartition1M-4", Iterations: 5, NsPerOp: 500},
	})
	if rc := compareSnapshots(old, new, 25, "RSEncode|Partition1M"); rc != 0 {
		t.Fatalf("compare exited %d, want 0 (new guarded benchmark must not fail the gate)", rc)
	}
}

// A removed benchmark is reported but only fails when nothing guarded was
// compared at all.
func TestCompareRemovedBenchmark(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", []Benchmark{
		{Name: "BenchmarkRSEncode/k=8", Iterations: 10, NsPerOp: 100},
		{Name: "BenchmarkOld", Iterations: 10, NsPerOp: 50},
	})
	new := writeSnap(t, dir, "new.json", []Benchmark{
		{Name: "BenchmarkRSEncode/k=8", Iterations: 10, NsPerOp: 90},
	})
	if rc := compareSnapshots(old, new, 25, "RSEncode"); rc != 0 {
		t.Fatalf("compare exited %d, want 0 (removed unguarded benchmark is informational)", rc)
	}
}

// The million-node rollout shape: the baseline predates Partition1M and
// Scaling1M, the new run has them, and both sides share the standing
// benchmarks. With the production guard filter the one-sided names are
// informational in either direction — a fresh snapshot gates cleanly
// against a pre-1M baseline, and a -short run (1M benchmarks skipped)
// gates cleanly against a post-1M baseline.
func TestCompareOneSided1MBenchmarks(t *testing.T) {
	const filter = "RSEncode|Partition100k|Partition1M|Scaling256k|Scaling1M"
	dir := t.TempDir()
	pre := writeSnap(t, dir, "pre.json", []Benchmark{
		{Name: "BenchmarkPartition100k/multilevel-4", Iterations: 20, NsPerOp: 6e7},
	})
	post := writeSnap(t, dir, "post.json", []Benchmark{
		{Name: "BenchmarkPartition100k/multilevel-4", Iterations: 20, NsPerOp: 6e7},
		{Name: "BenchmarkPartition1M-4", Iterations: 3, NsPerOp: 6e8},
		{Name: "BenchmarkScaling1M-4", Iterations: 1, NsPerOp: 1e10},
	})
	if rc := compareSnapshots(pre, post, 300, filter); rc != 0 {
		t.Fatalf("compare exited %d, want 0 (guarded 1M benchmarks new in the snapshot must not fail)", rc)
	}
	if rc := compareSnapshots(post, pre, 300, filter); rc != 0 {
		t.Fatalf("compare exited %d, want 0 (guarded 1M benchmarks skipped by -short must only warn)", rc)
	}
}

// A real regression of a benchmark present in both snapshots still fails.
func TestCompareRegressionFails(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", []Benchmark{
		{Name: "BenchmarkRSEncode/k=8", Iterations: 10, NsPerOp: 100},
	})
	new := writeSnap(t, dir, "new.json", []Benchmark{
		{Name: "BenchmarkRSEncode/k=8", Iterations: 10, NsPerOp: 200},
	})
	if rc := compareSnapshots(old, new, 25, "RSEncode"); rc != 1 {
		t.Fatalf("compare exited %d, want 1 (100%% regression past 25%% threshold)", rc)
	}
}

// The threshold gates allocs/op as well as ns/op: a guarded benchmark whose
// time held but which allocates per element again fails; an unguarded one,
// a count that moved by a handful of objects, and a baseline recorded
// without -benchmem do not.
func TestCompareAllocRegressionFails(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", []Benchmark{
		{Name: "BenchmarkScaling256k", Iterations: 6, NsPerOp: 2e8, AllocsPerOp: 300},
		{Name: "BenchmarkPartition100k/single-level", Iterations: 100, NsPerOp: 1e7, AllocsPerOp: 4},
		{Name: "BenchmarkFig5a", Iterations: 15, NsPerOp: 7e7, AllocsPerOp: 1000},
		{Name: "BenchmarkRSEncode/k=8", Iterations: 50, NsPerOp: 2e7},
	})
	same := []Benchmark{
		{Name: "BenchmarkScaling256k", Iterations: 1, NsPerOp: 2e8, AllocsPerOp: 330},
		{Name: "BenchmarkPartition100k/single-level", Iterations: 1, NsPerOp: 1e7, AllocsPerOp: 9},
		{Name: "BenchmarkFig5a", Iterations: 1, NsPerOp: 7e7, AllocsPerOp: 900_000},
		{Name: "BenchmarkRSEncode/k=8", Iterations: 1, NsPerOp: 2e7, AllocsPerOp: 10},
	}
	const filter = "RSEncode|Partition100k|Scaling256k"
	if rc := compareSnapshots(old, writeSnap(t, dir, "same.json", same), 25, filter); rc != 0 {
		t.Fatalf("compare exited %d, want 0 (+10%%, +5 objects, unguarded and ungateable rows only)", rc)
	}
	leak := append([]Benchmark(nil), same...)
	leak[0].AllocsPerOp = 775_907 // a per-node allocation is back
	if rc := compareSnapshots(old, writeSnap(t, dir, "leak.json", leak), 25, filter); rc != 1 {
		t.Fatalf("compare exited %d, want 1 (allocs/op 300 -> 775907 on a guarded benchmark)", rc)
	}
}

// The threshold gates B/op the same way: a guarded benchmark that holds its
// time and object count but allocates per element again (one large slab
// per call) fails; a move under byteNoiseFloor, an unguarded row and a
// baseline recorded without -benchmem do not.
func TestCompareByteRegressionFails(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", []Benchmark{
		{Name: "BenchmarkHierarchical128k", Iterations: 184, NsPerOp: 9e6, BytesPerOp: 128, AllocsPerOp: 1},
		{Name: "BenchmarkScaling256k", Iterations: 67, NsPerOp: 1.5e7, BytesPerOp: 7_043_402, AllocsPerOp: 47},
		{Name: "BenchmarkFig5a", Iterations: 15, NsPerOp: 7e7, BytesPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkPartition1M", Iterations: 12, NsPerOp: 9.5e7},
	})
	same := []Benchmark{
		{Name: "BenchmarkHierarchical128k", Iterations: 1, NsPerOp: 9e6, BytesPerOp: 60_000, AllocsPerOp: 1},
		{Name: "BenchmarkScaling256k", Iterations: 1, NsPerOp: 1.5e7, BytesPerOp: 7_141_720, AllocsPerOp: 48},
		{Name: "BenchmarkFig5a", Iterations: 1, NsPerOp: 7e7, BytesPerOp: 5e7, AllocsPerOp: 10},
		{Name: "BenchmarkPartition1M", Iterations: 1, NsPerOp: 9.5e7, BytesPerOp: 4 << 20, AllocsPerOp: 1},
	}
	const filter = "Hierarchical128k|Scaling256k|Partition1M"
	if rc := compareSnapshots(old, writeSnap(t, dir, "same.json", same), 300, filter); rc != 0 {
		t.Fatalf("compare exited %d, want 0 (under the byte floor, +1.4%%, unguarded and ungateable rows only)", rc)
	}
	leak := append([]Benchmark(nil), same...)
	leak[0].BytesPerOp = 128 + 131_072*4 // an int32 per rank is back, in one allocation
	if rc := compareSnapshots(old, writeSnap(t, dir, "leak.json", leak), 300, filter); rc != 1 {
		t.Fatalf("compare exited %d, want 1 (B/op 128 -> %d on a guarded benchmark)", rc, leak[0].BytesPerOp)
	}
}

// Losing every guarded benchmark means the gate compared nothing: loud exit.
func TestCompareAllGuardedGoneFails(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", []Benchmark{
		{Name: "BenchmarkRSEncode/k=8", Iterations: 10, NsPerOp: 100},
		{Name: "BenchmarkOther", Iterations: 10, NsPerOp: 10},
	})
	new := writeSnap(t, dir, "new.json", []Benchmark{
		{Name: "BenchmarkOther", Iterations: 10, NsPerOp: 10},
	})
	if rc := compareSnapshots(old, new, 25, "RSEncode"); rc != 2 {
		t.Fatalf("compare exited %d, want 2 (gate compared nothing)", rc)
	}
}

// GOMAXPROCS suffixes must not split identities across machines.
func TestNormalizeBenchName(t *testing.T) {
	if got := normalizeBenchName("BenchmarkRSEncode/k=8-16"); got != "BenchmarkRSEncode/k=8" {
		t.Fatalf("normalize = %q", got)
	}
	if got := normalizeBenchName("BenchmarkTable1"); got != "BenchmarkTable1" {
		t.Fatalf("normalize = %q", got)
	}
}
