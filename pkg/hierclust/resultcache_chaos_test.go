package hierclust

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

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
	old, err := diskstore.Open(diskstore.Options{Dir: dir, Ext: diskResultExt, MaxBytes: 1 << 20})
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

// TestDiskResultCacheDegradesOnWriteFaults drives the result cache
// through the degrade-don't-fail path of internal/diskstore: a
// retried-out write flips memory-only mode, the fallback keeps serving
// the document bit-identically, and a probe write clears the mode.
func TestDiskResultCacheDegradesOnWriteFaults(t *testing.T) {
	defer faultinject.DisarmAll()
	dir := t.TempDir()
	c, err := NewDiskResultCache(dir, 1<<20, WithDegradedProbe(5*time.Millisecond))
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
	if st.MemEntries != 1 {
		t.Fatalf("MemEntries = %d; want 1 (fallback holds the document)", st.MemEntries)
	}
	if got, ok := c.Get("key-a"); !ok || !bytes.Equal(got, doc) {
		t.Fatalf("degraded Get = %q, %v; want the document bit-identical", got, ok)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Fatalf("degraded cache left files on disk: %v", files)
	}

	faultinject.DisarmAll()
	time.Sleep(10 * time.Millisecond)
	c.Put("key-b", []byte(`{"results":"probe"}`)) // recovery probe
	st = c.Stats()
	if st.Degraded {
		t.Fatal("cache still degraded after a successful probe write")
	}
	if st.Entries != 1 {
		t.Fatalf("Entries = %d; want 1 (the probe document)", st.Entries)
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
	files, _ := filepath.Glob(filepath.Join(dir, "*"+diskResultExt))
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

// TestDiskResultCacheReadFaultFallsBackWithoutIndexLoss mirrors the trace
// cache's transient-read pin: every attempt is charged, the Get misses,
// but the index entry survives and serves once the fault clears.
func TestDiskResultCacheReadFaultFallsBackWithoutIndexLoss(t *testing.T) {
	defer faultinject.DisarmAll()
	c, err := NewDiskResultCache(t.TempDir(), 1<<20, WithDegradeAfter(100))
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`{"results":"durable"}`)
	c.Put("key-a", doc)

	faultinject.Arm("resultcache.disk.read", faultinject.Fault{Kind: faultinject.KindError})
	if _, ok := c.Get("key-a"); ok {
		t.Fatal("Get served a hit through an injected read fault")
	}
	st := c.Stats()
	if st.ReadErrors != diskstore.OpAttempts || st.Entries != 1 || st.Degraded {
		t.Fatalf("Stats = %+v; want %d read errors, index kept, not degraded", st, diskstore.OpAttempts)
	}
	faultinject.DisarmAll()
	if got, ok := c.Get("key-a"); !ok || !bytes.Equal(got, doc) {
		t.Fatalf("Get after disarm = %q, %v", got, ok)
	}
}
