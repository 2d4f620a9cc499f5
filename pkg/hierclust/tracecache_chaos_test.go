package hierclust

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hierclust/internal/diskstore"
	"hierclust/internal/faultinject"
	"hierclust/internal/trace"
)

// sameTraceBytes reports whether two traces serialize to identical bytes —
// the bit-identical contract degraded mode must keep.
func sameTraceBytes(t *testing.T, a, b Comm) bool {
	t.Helper()
	var ba, bb bytes.Buffer
	if _, err := a.(*trace.CSR).WriteTo(&ba); err != nil {
		t.Fatal(err)
	}
	if _, err := b.(*trace.CSR).WriteTo(&bb); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ba.Bytes(), bb.Bytes())
}

func listDir(t *testing.T, dir, pattern string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDiskTraceCacheDegradesOnWriteFaults drives the full write-failure
// path: a disk whose every write errors must charge each retried attempt,
// flip the cache to memory-only degraded mode, keep the trace servable
// bit-identically from the memory fallback, and leave no temp or cache
// files behind.
func TestDiskTraceCacheDegradesOnWriteFaults(t *testing.T) {
	defer faultinject.DisarmAll()
	dir := t.TempDir()
	c, err := NewDiskTraceCache(dir, 1<<20, WithDegradedProbe(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := trace.Synthetic(64, SyntheticOptions{Iterations: 7})

	faultinject.Arm("tracecache.disk.write", faultinject.Fault{Kind: faultinject.KindError})
	c.Put("a", orig)

	st := c.Stats()
	if st.WriteErrors != diskstore.OpAttempts {
		t.Fatalf("WriteErrors = %d, want %d (every attempt charged)", st.WriteErrors, diskstore.OpAttempts)
	}
	if !st.Degraded {
		t.Fatal("cache not degraded after a fully retried-out write")
	}
	if st.MemEntries != 1 {
		t.Fatalf("MemEntries = %d, want 1 (failed Put keeps the trace)", st.MemEntries)
	}
	if files := listDir(t, dir, "*"); len(files) != 0 {
		t.Fatalf("files left behind by failed writes: %v", files)
	}

	got, ok := c.Get("a")
	if !ok {
		t.Fatal("degraded cache lost the trace")
	}
	if !sameTraceBytes(t, orig, got) {
		t.Fatal("degraded-mode trace is not bit-identical to the original")
	}

	// The probe interval has not elapsed: even with the disk healthy again,
	// Puts stay memory-only rather than hammering it.
	faultinject.DisarmAll()
	other, _ := trace.Synthetic(32, SyntheticOptions{})
	c.Put("b", other)
	if files := listDir(t, dir, "*"); len(files) != 0 {
		t.Fatalf("degraded cache wrote to disk before its probe window: %v", files)
	}
	if !c.Stats().Degraded {
		t.Fatal("cache left degraded mode without a successful probe")
	}
}

// TestDiskTraceCacheRecoversViaProbe pins the recovery half: once the
// probe interval elapses and the disk works again, a single Put probes
// the disk, succeeds, and clears degraded mode.
func TestDiskTraceCacheRecoversViaProbe(t *testing.T) {
	defer faultinject.DisarmAll()
	dir := t.TempDir()
	c, err := NewDiskTraceCache(dir, 1<<20, WithDegradedProbe(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	one, _ := trace.Synthetic(64, SyntheticOptions{})

	faultinject.Arm("tracecache.disk.write", faultinject.Fault{Kind: faultinject.KindError})
	c.Put("a", one)
	if !c.Stats().Degraded {
		t.Fatal("cache not degraded")
	}

	faultinject.DisarmAll()
	time.Sleep(10 * time.Millisecond) // let the probe window open
	c.Put("b", one)

	st := c.Stats()
	if st.Degraded {
		t.Fatal("successful probe write did not clear degraded mode")
	}
	if st.Entries != 1 {
		t.Fatalf("Entries = %d after recovery probe, want 1", st.Entries)
	}
	if files := listDir(t, dir, "*"+diskTraceExt); len(files) != 1 {
		t.Fatalf("probe write left %d cache files, want 1", len(files))
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("recovered cache lost the probe-written trace")
	}
}

// TestDiskTraceCacheRenameFailureCleansTemp pins the Put bugfix: a rename
// failure after a clean temp-file write is a recorded fault (not a silent
// no-op), the temp file is removed, and the trace survives in the memory
// fallback.
func TestDiskTraceCacheRenameFailureCleansTemp(t *testing.T) {
	defer faultinject.DisarmAll()
	dir := t.TempDir()
	c, err := NewDiskTraceCache(dir, 1<<20, WithDegradedProbe(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := trace.Synthetic(64, SyntheticOptions{})

	faultinject.Arm("tracecache.disk.rename", faultinject.Fault{Kind: faultinject.KindError})
	c.Put("a", orig)

	st := c.Stats()
	if st.WriteErrors != diskstore.OpAttempts {
		t.Fatalf("WriteErrors = %d, want %d (rename failures recorded)", st.WriteErrors, diskstore.OpAttempts)
	}
	if st.Entries != 0 {
		t.Fatalf("Entries = %d after failed renames, want 0", st.Entries)
	}
	if tmps := listDir(t, dir, "put-*"); len(tmps) != 0 {
		t.Fatalf("temp files leaked on the rename-failure path: %v", tmps)
	}
	got, ok := c.Get("a")
	if !ok || !sameTraceBytes(t, orig, got) {
		t.Fatal("trace lost or altered after rename failures")
	}
}

// TestDiskTraceCacheReadFaultKeepsIndex drives transient read failures:
// every attempt is charged, the Get degrades to a miss, but the index
// entry survives (the bytes on disk are fine — the IO was not) so the
// entry serves again once the fault clears.
func TestDiskTraceCacheReadFaultKeepsIndex(t *testing.T) {
	defer faultinject.DisarmAll()
	dir := t.TempDir()
	// High degrade threshold: this test isolates the retry/miss behavior
	// from degraded mode.
	c, err := NewDiskTraceCache(dir, 1<<20, WithDegradeAfter(100))
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := trace.Synthetic(64, SyntheticOptions{Iterations: 3})
	c.Put("a", orig)

	faultinject.Arm("tracecache.disk.read", faultinject.Fault{Kind: faultinject.KindError})
	if _, ok := c.Get("a"); ok {
		t.Fatal("Get succeeded with every read attempt failing")
	}
	st := c.Stats()
	if st.ReadErrors != diskstore.OpAttempts {
		t.Fatalf("ReadErrors = %d, want %d", st.ReadErrors, diskstore.OpAttempts)
	}
	if st.Entries != 1 {
		t.Fatalf("transient read failure dropped the index entry: %+v", st)
	}
	if st.Degraded {
		t.Fatal("cache degraded below its threshold")
	}

	faultinject.DisarmAll()
	got, ok := c.Get("a")
	if !ok || !sameTraceBytes(t, orig, got) {
		t.Fatal("entry did not serve again after the read fault cleared")
	}
}

// TestDiskTraceCacheQuarantinesCorruptFile pins the corruption path: a
// file that fails to decode is renamed to .bad with its bytes preserved
// for post-mortem, counted, reported as a miss, and — being a content
// problem, not a disk-health problem — charged to neither the error
// counters nor the degradation trigger.
func TestDiskTraceCacheQuarantinesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskTraceCache(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	one, _ := trace.Synthetic(64, SyntheticOptions{})
	c.Put("a", one)

	files := listDir(t, dir, "*"+diskTraceExt)
	if len(files) != 1 {
		t.Fatalf("%d cache files, want 1", len(files))
	}
	garbage := []byte("HCTRgarbage")
	if err := os.WriteFile(files[0], garbage, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Get("a"); ok {
		t.Fatal("corrupt file reported as hit")
	}
	st := c.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	if st.ReadErrors != 0 {
		t.Fatalf("corruption charged %d read errors; decode failures are not disk faults", st.ReadErrors)
	}
	if st.Degraded {
		t.Fatal("corruption flipped degraded mode")
	}
	bad := listDir(t, dir, "*"+diskTraceExt+diskstore.QuarantineExt)
	if len(bad) != 1 {
		t.Fatalf("%d quarantine files, want 1", len(bad))
	}
	kept, err := os.ReadFile(bad[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept, garbage) {
		t.Fatal("quarantine did not preserve the corrupt bytes")
	}
	if len(listDir(t, dir, "*"+diskTraceExt)) != 0 {
		t.Fatal("corrupt file left in place under its cache name")
	}

	// The stem is rebuildable: a fresh Put stores and serves again.
	c.Put("a", one)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("stem not rebuildable after quarantine")
	}
}
