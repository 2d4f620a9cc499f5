package hierclust

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"hierclust/internal/diskstore"
	"hierclust/internal/faultinject"
)

// TestDiskResultCacheRestartServesBitIdentical pins the restart-survival
// contract: documents stored by one cache instance serve byte-identically
// from a fresh instance over the same directory, and a disk hit counts on
// the new instance's stats.
func TestDiskResultCacheRestartServesBitIdentical(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDiskResultCache(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`{"scenario":{"name":"fig4a"},"results":[1,2,3]}`)
	c1.Put("key-a", doc)

	c2, err := NewDiskResultCache(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("key-a")
	if !ok || !bytes.Equal(got, doc) {
		t.Fatalf("restarted cache Get = %q, %v; want the original document", got, ok)
	}
	st := c2.Stats()
	if st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("Stats = %+v; want 1 hit, 1 entry", st)
	}
	// The returned slice is the caller's: mutating it must not corrupt
	// later reads.
	got[0] = 'X'
	again, ok := c2.Get("key-a")
	if !ok || !bytes.Equal(again, doc) {
		t.Fatal("cached document corrupted by caller mutation")
	}
}

// TestDiskResultCacheIgnoresUnsaltedStems: a document stored under the
// plain SHA-256 of its key — the filename an older binary wrote, before
// the stem carried a salt — is not served from the same directory, and a
// fresh Put of the key round-trips.
func TestDiskResultCacheIgnoresUnsaltedStems(t *testing.T) {
	dir := t.TempDir()
	old, err := diskstore.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const key = "key-a"
	sum := sha256.Sum256([]byte(key))
	old.Put(hex.EncodeToString(sum[:]), []byte(`{"results":"stale"}`))

	c, err := NewDiskResultCache(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("the older entry is not in the directory: %+v", st)
	}
	if got, ok := c.Get(key); ok {
		t.Fatalf("Get served %q, an entry stored under the unsalted stem", got)
	}
	doc := []byte(`{"results":"fresh"}`)
	c.Put(key, doc)
	if got, ok := c.Get(key); !ok || !bytes.Equal(got, doc) {
		t.Fatalf("Get after Put = %q, %v; want the fresh document", got, ok)
	}
}

// TestDiskResultCacheDegradesOnWriteFaults checks the result cache's
// write fault point: a retried-out write charges every attempt to
// resultcache.disk.write, degrades the cache, leaves no file behind, and
// the document then misses (the LRU above it or a recompute answers).
// Probe recovery is internal/diskstore's
// TestStoreDegradesOnWriteFaultsAndRecoversViaProbe.
func TestDiskResultCacheDegradesOnWriteFaults(t *testing.T) {
	defer faultinject.DisarmAll()
	dir := t.TempDir()
	c, err := NewDiskResultCache(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm("resultcache.disk.write", faultinject.Fault{Kind: faultinject.KindError})
	doc := []byte(`{"results":"expensive to recompute"}`)
	c.Put("key-a", doc)
	st := c.Stats()
	if st.WriteErrors != diskstore.OpAttempts {
		t.Fatalf("WriteErrors = %d; want %d (every attempt charged)", st.WriteErrors, diskstore.OpAttempts)
	}
	if !st.Degraded {
		t.Fatal("cache not degraded after a retried-out write")
	}
	if got, ok := c.Get("key-a"); ok {
		t.Fatalf("degraded Get = %q; want a miss", got)
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("Stats = %+v; want no entry and one miss", st)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Fatalf("degraded cache left files on disk: %v", files)
	}
}

// TestDiskResultCacheQuarantinesCorruptFile pins the checksum frame: a
// result file corrupted on disk fails its CRC, is renamed to .bad with
// the bytes preserved, and reports a miss — never a wrong document.
func TestDiskResultCacheQuarantinesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskResultCache(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("key-a", []byte(`{"results":[1,2,3]}`))
	files, _ := filepath.Glob(filepath.Join(dir, "*"+diskstore.Ext))
	if len(files) != 1 {
		t.Fatalf("expected one cache file, got %v", files)
	}
	// Flip one payload byte in place: the frame's CRC must catch it.
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Get("key-a"); ok {
		t.Fatal("corrupt document served as a hit")
	}
	st := c.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d; want 1", st.Quarantined)
	}
	if st.Degraded || st.ReadErrors != 0 {
		t.Fatalf("Stats = %+v; corruption is not an IO failure", st)
	}
	bad, err := os.ReadFile(files[0] + diskstore.QuarantineExt)
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if !bytes.Equal(bad, raw) {
		t.Fatal("quarantine file does not preserve the corrupt bytes")
	}
	// The key is rebuildable after quarantine.
	c.Put("key-a", []byte(`{"results":"rebuilt"}`))
	if got, ok := c.Get("key-a"); !ok || string(got) != `{"results":"rebuilt"}` {
		t.Fatalf("Get after rebuild = %q, %v", got, ok)
	}
}

// TestDiskResultCacheReadFaultFallsBackWithoutIndexLoss checks the result
// cache's read fault point: every attempt is charged to
// resultcache.disk.read, the Get misses (the caller falls back to the LRU
// above or a recompute) and degrades the cache, and the index entry
// survives. That the entry serves again once the fault clears is
// internal/diskstore's TestStoreReadFaultKeepsIndex.
func TestDiskResultCacheReadFaultFallsBackWithoutIndexLoss(t *testing.T) {
	defer faultinject.DisarmAll()
	c, err := NewDiskResultCache(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("key-a", []byte(`{"results":"durable"}`))

	faultinject.Arm("resultcache.disk.read", faultinject.Fault{Kind: faultinject.KindError})
	if _, ok := c.Get("key-a"); ok {
		t.Fatal("Get served a hit through an injected read fault")
	}
	st := c.Stats()
	if st.ReadErrors != diskstore.OpAttempts || st.Entries != 1 || !st.Degraded {
		t.Fatalf("Stats = %+v; want %d read errors, index kept, degraded", st, diskstore.OpAttempts)
	}
}

// TestNilDiskResultCacheIsNoCache: a typed-nil *DiskResultCache in
// SweepOptions.ResultCache passes the interface's nil check, so its Get and
// Put are called; they miss and store nothing, and the cell returns the
// document a run with no cache returns.
func TestNilDiskResultCacheIsNoCache(t *testing.T) {
	pl := NewPipeline()
	sc := syntheticScenario()
	want, _ := pl.RunCell(context.Background(), sc, SweepOptions{})
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	for i := range 2 {
		got, _ := pl.RunCell(context.Background(), sc, SweepOptions{ResultCache: (*DiskResultCache)(nil)})
		if got.Err != nil || got.Cache == "hit" || !bytes.Equal(got.Doc, want.Doc) {
			t.Fatalf("run %d with a nil cache: %q, err %v; want the uncached document", i+1, got.Cache, got.Err)
		}
	}
}
