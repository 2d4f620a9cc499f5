package hierclust

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"hierclust/internal/diskstore"
)

// The result cache is the restart-survival layer above the trace cache:
// rendered result documents are deterministic by canonical scenario key
// (Scenario.CacheKey), so a result computed before a crash is exactly the
// result after it. DiskResultCache persists those documents; hcserve
// mounts it beneath its in-memory result LRU (write-through on store,
// promote-on-hit on load) and hands it to sweep execution via
// SweepOptions.ResultCache, which is what lets a journaled sweep resume
// after kill -9 recomputing only the cells that never reached disk.

// DiskResultCache is a size-bounded on-disk SweepResultCache: each result
// document is one checksummed .hcres file named by the SHA-256 of its
// canonical scenario key, evicted least-recently-used past the byte budget. It
// inherits internal/diskstore's full hardening — atomic temp+rename
// writes, capped-backoff retry with per-attempt error counters, corrupt
// files quarantined to .bad (the checksum frame catches corruption at
// read time), and degraded mode after a retried-out operation, in which
// the disk is skipped (every Get misses, every Put is dropped) until a
// probe write succeeds — under the fault points
// resultcache.disk.{read,write,rename}.
type DiskResultCache struct {
	store  *diskstore.Store
	hits   atomic.Int64
	misses atomic.Int64
}

// NewDiskResultCache opens (creating if needed) a disk result cache
// rooted at dir, bounded to maxBytes of stored documents (<= 0 means
// 512 MiB). Existing files are indexed oldest-first by modification time
// — the restart-survival path; quarantined .bad files are ignored.
func NewDiskResultCache(dir string, maxBytes int64) (*DiskResultCache, error) {
	if maxBytes <= 0 {
		maxBytes = 512 << 20
	}
	store, err := diskstore.Open(dir, maxBytes)
	if err != nil {
		return nil, fmt.Errorf("hierclust: result cache: %w", err)
	}
	return &DiskResultCache{store: store}, nil
}

// resultStemSalt prefixes every key before it is hashed to a filename.
// It changes when a code path's numbers change under an unchanged
// CacheKey, so that a document an older binary stored is a miss, not a
// stale hit: "2" came with the removal of the coarsening partitioner, after
// which every multilevel scenario scores at growth target 5.
const resultStemSalt = "hcres-2\x00"

// hashStem maps a cache key to its filename stem.
func hashStem(key string) string {
	sum := sha256.Sum256([]byte(resultStemSalt + key))
	return hex.EncodeToString(sum[:])
}

// Get implements SweepResultCache. The returned slice never aliases
// cache-internal memory; callers own it. A nil cache misses, so a typed nil
// in SweepOptions.ResultCache is no cache.
func (c *DiskResultCache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	doc, ok := c.store.Get(hashStem(key))
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return doc, ok
}

// Put implements SweepResultCache. Documents are deterministic per key,
// so an existing entry is left untouched. A nil cache stores nothing.
func (c *DiskResultCache) Put(key string, doc []byte) {
	if c == nil {
		return
	}
	c.store.Put(hashStem(key), doc)
}

// ResultCacheStats is the observability surface of a DiskResultCache, what
// hcserve projects onto /metrics and /healthz.
type ResultCacheStats struct {
	// Hits and Misses count Get outcomes since construction.
	Hits, Misses int64
	// Entries and Bytes describe the documents on disk.
	Entries int
	Bytes   int64
	// ReadErrors and WriteErrors count failed disk operation *attempts*
	// (each retry of a transiently failing op counts), the counters
	// hcserve exposes on /metrics for alerting.
	ReadErrors, WriteErrors int64
	// Quarantined counts corrupt cache files renamed to .bad instead of
	// deleted, preserved for post-mortem inspection.
	Quarantined int64
	// Degraded reports that the disk failed repeatedly and the cache is
	// skipping it — every lookup misses — until a probe write succeeds.
	Degraded bool
}

// Stats returns lifetime counters, the entry count, the stored bytes, and
// the disk-health fields (error counts, quarantines, degraded mode).
func (c *DiskResultCache) Stats() ResultCacheStats {
	st := c.store.Stats()
	return ResultCacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Entries:     st.Entries,
		Bytes:       st.Bytes,
		ReadErrors:  st.ReadErrors,
		WriteErrors: st.WriteErrors,
		Quarantined: st.Quarantined,
		Degraded:    st.Degraded,
	}
}
