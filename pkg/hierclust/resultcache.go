package hierclust

import "hierclust/internal/diskstore"

// The result cache is the restart-survival layer above the trace cache:
// rendered result documents are deterministic by canonical scenario key
// (Scenario.CacheKey), so a result computed before a crash is exactly the
// result after it. DiskResultCache persists those documents; hcserve
// mounts it beneath its in-memory result LRU (write-through on store,
// promote-on-hit on load) and hands it to sweep execution via
// SweepOptions.ResultCache, which is what lets a journaled sweep resume
// after kill -9 recomputing only the cells that never reached disk.

// DiskResultCache is a size-bounded on-disk SweepResultCache: each result
// document is one checksummed file named by the SHA-256 of its canonical
// scenario key, evicted least-recently-used past the byte budget. It
// inherits internal/diskstore's full hardening — atomic temp+rename
// writes, capped-backoff retry with per-attempt error counters, corrupt
// files quarantined to .bad (the checksum frame catches corruption at
// read time), and consecutive-failure degradation to a bounded memory
// fallback with probe-based recovery — under the fault points
// resultcache.disk.{read,write,rename}.
type DiskResultCache struct{ diskCache }

// diskResultExt names result-cache files; the payload is the rendered
// result document wrapped in the diskstore checksum frame.
const diskResultExt = ".hcres"

// NewDiskResultCache opens (creating if needed) a disk result cache
// rooted at dir, bounded to maxBytes of stored documents (<= 0 means
// 512 MiB). Existing files are indexed oldest-first by modification time
// — the restart-survival path; quarantined .bad files are ignored.
func NewDiskResultCache(dir string, maxBytes int64, opts ...DiskCacheOption) (*DiskResultCache, error) {
	if maxBytes <= 0 {
		maxBytes = 512 << 20
	}
	c := &DiskResultCache{}
	err := c.open("result cache", diskstore.Options{
		Dir:      dir,
		Ext:      diskResultExt,
		MaxBytes: maxBytes,
		// Result documents are plain JSON with no self-validating frame,
		// so the store's checksum header does the corruption detection.
		Checksum:    true,
		FaultPrefix: "resultcache.disk",
	}, opts)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Get implements SweepResultCache. The returned slice never aliases
// cache-internal memory; callers own it.
func (c *DiskResultCache) Get(key string) ([]byte, bool) {
	_, doc, ok := c.get(key)
	if ok {
		c.hits.Add(1)
	}
	return doc, ok
}

// Put implements SweepResultCache. Documents are deterministic per key,
// so an existing entry is left untouched.
func (c *DiskResultCache) Put(key string, doc []byte) {
	c.store.Put(hashStem(key), doc)
}
