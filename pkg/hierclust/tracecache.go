package hierclust

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"hierclust/internal/diskstore"
	"hierclust/internal/lru"
	"hierclust/internal/trace"
	"hierclust/internal/tsunami"
)

// Building a scenario's communication trace is the expensive half of many
// evaluations: a "tsunami" source runs the simulated MPI application —
// seconds of wall clock at paper scale — while everything downstream
// (cluster, evaluate) takes milliseconds. Scenarios that differ only in
// strategies, mix, or baseline share the *same* trace, so hcserve-style
// workloads re-run the application for no reason. The trace cache sits
// beneath the scenario-result cache and keys on exactly the inputs that
// determine the trace, so any scenario family sharing a trace pays for one
// application run.

// TraceKey returns the canonical key identifying the communication trace
// this scenario resolves to, and whether the trace is a value that can be
// shared. Two scenarios with equal keys build bit-identical traces: the key
// folds in the source kind, the rank count, the iteration count (with
// source defaults resolved), and every generation parameter — the tsunami
// grid dimensions derived from the rank count, or the synthetic pattern,
// grid width (with the placement-derived default resolved), and message
// size. The trace cache stores tsunami traces under it; the sweep planner
// shares a trace node among cells whose keys would be equal.
//
// Source "file" is not shareable (false): the bytes behind a path can
// change, so a path is not a value.
func (s *Scenario) TraceKey() (string, bool) {
	ranks, t := s.Placement.Ranks, s.resolvedTrace()
	switch t.Source {
	case "tsunami":
		p := tsunami.TraceParams(ranks)
		return fmt.Sprintf("tsunami|ranks=%d|iters=%d|nx=%d|ny=%d", ranks, t.Iterations, p.NX, p.NY), true
	case "synthetic":
		return fmt.Sprintf("synthetic|ranks=%d|iters=%d|pattern=%s|width=%d|bpm=%d",
			ranks, t.Iterations, t.Pattern, t.Width, t.BytesPerMsg), true
	}
	return "", false
}

// resolvedTrace returns the scenario's trace spec with every source
// default filled in: tsunami 20 iterations; synthetic 100 iterations of
// 1536-byte messages on a 1-D stencil, or on a 2-D grid whose width is the
// placement density (so horizontal ghost exchange stays intra-node under
// block placement). This is the only place those defaults are written:
// TraceKey and buildTrace both consume the resolved spec, so a cache key
// cannot name a different trace than the one built under it.
func (s *Scenario) resolvedTrace() TraceSpec {
	t := s.Trace
	switch t.Source {
	case "tsunami":
		if t.Iterations <= 0 {
			t.Iterations = 20
		}
	case "synthetic":
		if t.Iterations <= 0 {
			t.Iterations = 100
		}
		if t.BytesPerMsg <= 0 {
			t.BytesPerMsg = 1536
		}
		if t.Pattern == "" {
			t.Pattern = "stencil1d"
		}
		if t.Pattern != "stencil2d" {
			t.Width = 0 // meaningless off the 2-D grid; keep it out of the key
		} else if t.Width == 0 {
			t.Width = s.Placement.ProcsPerNode
		}
	}
	return t
}

// TraceCache caches traced application runs ("tsunami" sources) by
// TraceKey, beneath the scenario-result cache. Implementations must be safe
// for concurrent use and must treat stored traces as immutable — the
// pipeline hands out the same Comm to concurrent evaluations, which is
// sound because a frozen CSR has no mutating method (the frozen-CSR
// immutability invariant the trace and graph packages pin).
type TraceCache interface {
	// Get returns the cached trace for key, if present.
	Get(key string) (Comm, bool)
	// Put stores a freshly built trace. Implementations may drop entries
	// (bounded capacity) or decline silently.
	Put(key string, c Comm)
}

// TraceCacheStats is the observability surface of every built-in cache —
// MemoryTraceCache, DiskTraceCache and DiskResultCache — and what hcserve
// projects onto /metrics and /healthz.
type TraceCacheStats struct {
	// Hits and Misses count Get outcomes since construction.
	Hits, Misses int64
	// Entries is the current entry count.
	Entries int
	// Bytes is the stored size where the backend tracks one (disk);
	// 0 for the in-memory cache.
	Bytes int64

	// The remaining fields describe disk-cache health; they stay zero
	// for the in-memory cache.

	// ReadErrors and WriteErrors count failed disk operation *attempts*
	// (each retry of a transiently failing op counts), the counters
	// hcserve exposes on /metrics for alerting.
	ReadErrors, WriteErrors int64
	// Quarantined counts corrupt cache files renamed to .bad instead of
	// deleted, preserved for post-mortem inspection.
	Quarantined int64
	// Degraded reports memory-only fallback mode: the disk failed
	// repeatedly and the cache serves from its bounded memory LRU until a
	// probe write succeeds.
	Degraded bool
	// MemEntries is the entry count of the degraded-mode memory fallback.
	MemEntries int
}

// MemoryTraceCache is a fixed-capacity in-memory LRU TraceCache. Traces
// are shared by reference (no copy), so hits cost nothing beyond a map
// lookup; capacity bounds entry count, not bytes — size it against the
// O(ranks + distinct pairs) CSR footprint of the machines you serve.
type MemoryTraceCache struct {
	lru  *lru.Cache[Comm]
	hits atomic.Int64
	miss atomic.Int64
}

// NewMemoryTraceCache returns an LRU trace cache holding up to capacity
// traces; capacity <= 0 disables caching (every Get misses).
func NewMemoryTraceCache(capacity int) *MemoryTraceCache {
	return &MemoryTraceCache{lru: lru.New[Comm](capacity)}
}

// Get implements TraceCache.
func (c *MemoryTraceCache) Get(key string) (Comm, bool) {
	comm, ok := c.lru.Get(key)
	if !ok {
		c.miss.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return comm, true
}

// Put implements TraceCache. Traces are deterministic per key, so a key
// already resident keeps its trace.
func (c *MemoryTraceCache) Put(key string, comm Comm) { c.lru.Put(key, comm) }

// Stats returns lifetime counters and the current entry count.
func (c *MemoryTraceCache) Stats() TraceCacheStats {
	return TraceCacheStats{Hits: c.hits.Load(), Misses: c.miss.Load(), Entries: c.lru.Len()}
}

// DiskTraceCache is a size-bounded on-disk TraceCache: each trace is one
// HCTR file (the same serialization trace files use) named by the SHA-256
// of its key, evicted least-recently-used when the directory exceeds the
// byte budget. It survives process restarts — NewDiskTraceCache re-indexes
// whatever an earlier server left behind — which is what makes a fleet of
// hcserve replicas sharing a volume skip each other's application runs.
//
// The cache is engineered to degrade, not fail, when its disk does; the
// hardening lives in internal/diskstore (extracted from this cache so the
// result cache and sweep journal share it):
//
//   - Transient IO errors are retried with capped backoff; every failed
//     attempt is counted (Stats.ReadErrors/WriteErrors) so /metrics can
//     alarm before users notice.
//   - Corrupt files (decode failures) are quarantined — renamed to .bad,
//     preserving the bytes for post-mortem — and reported as misses. HCTR
//     is self-validating, so corruption is detected at decode time here
//     rather than by a store-level checksum, keeping the on-disk format
//     identical to plain trace files.
//   - After enough consecutive failed attempts the cache enters
//     memory-only degraded mode: disk is left alone, a bounded in-memory
//     LRU keeps serving the hottest traces (results stay bit-identical —
//     the fallback holds the exact serialized bytes), and a probe write
//     every probe interval retries the disk and clears the mode when it
//     succeeds. Stats.Degraded surfaces the mode in /healthz.
type DiskTraceCache struct{ diskCache }

// diskCache is what DiskTraceCache and DiskResultCache share: a hardened
// diskstore addressed by the SHA-256 of the cache key, hit/miss counters,
// and the Stats projection.
type diskCache struct {
	store  *diskstore.Store
	hits   atomic.Int64
	misses atomic.Int64
}

// open opens (creating if needed) the store described by o, applying the
// caller's tuning options; what names the cache in the error.
func (c *diskCache) open(what string, o diskstore.Options, opts []DiskCacheOption) (err error) {
	for _, opt := range opts {
		opt(&o)
	}
	if c.store, err = diskstore.Open(o); err != nil {
		return fmt.Errorf("hierclust: %s: %w", what, err)
	}
	return nil
}

// get returns the bytes stored under key and their filename stem, counting
// the miss when there are none; the caller counts the hit once the bytes
// prove usable.
func (c *diskCache) get(key string) (stem string, data []byte, ok bool) {
	stem = hashStem(key)
	if data, ok = c.store.Get(stem); !ok {
		c.misses.Add(1)
	}
	return stem, data, ok
}

// Stats returns lifetime counters, the entry count, the stored bytes, and
// the disk-health fields (error counts, quarantines, degraded mode).
func (c *diskCache) Stats() TraceCacheStats {
	st := c.store.Stats()
	return TraceCacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Entries:     st.Entries,
		Bytes:       st.Bytes,
		ReadErrors:  st.ReadErrors,
		WriteErrors: st.WriteErrors,
		Quarantined: st.Quarantined,
		Degraded:    st.Degraded,
		MemEntries:  st.MemEntries,
	}
}

const diskTraceExt = ".hctr"

// diskCacheConfig is what a DiskCacheOption tunes: the store options of the
// disk-backed caches (trace cache here, result cache in resultcache.go).
type diskCacheConfig = diskstore.Options

// DiskCacheOption tunes a disk-backed cache (NewDiskTraceCache,
// NewDiskResultCache).
type DiskCacheOption func(*diskCacheConfig)

// WithDegradeAfter sets how many consecutive failed disk-operation
// attempts flip the cache into memory-only degraded mode; n <= 0 keeps
// the default (one fully retried-out operation).
func WithDegradeAfter(n int) DiskCacheOption {
	return func(c *diskCacheConfig) {
		if n > 0 {
			c.DegradeAfter = n
		}
	}
}

// WithDegradedProbe sets how often a degraded cache lets one Put through
// to the disk to test for recovery; d <= 0 keeps the default (30s).
func WithDegradedProbe(d time.Duration) DiskCacheOption {
	return func(c *diskCacheConfig) {
		if d > 0 {
			c.ProbeEvery = d
		}
	}
}

// NewDiskTraceCache opens (creating if needed) a disk trace cache rooted
// at dir, bounded to maxBytes of stored traces (<= 0 means 256 MiB).
// Existing cache files are indexed oldest-first by modification time;
// quarantined .bad files are ignored.
func NewDiskTraceCache(dir string, maxBytes int64, opts ...DiskCacheOption) (*DiskTraceCache, error) {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	c := &DiskTraceCache{}
	err := c.open("trace cache", diskstore.Options{
		Dir:      dir,
		Ext:      diskTraceExt,
		MaxBytes: maxBytes,
		// HCTR validates itself on decode; no checksum frame, so cache
		// files stay byte-compatible with plain trace files (and with
		// caches written before the diskstore extraction).
		Checksum:    false,
		FaultPrefix: "tracecache.disk",
	}, opts)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// hashStem maps a cache key to its filename stem.
func hashStem(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// Get implements TraceCache, deserializing the stored trace into sparse
// (CSR) form. Transient read failures are retried with backoff and fall
// back to the store's memory LRU; a corrupt file is quarantined to .bad
// (bytes preserved for post-mortem) and reported as a miss; in degraded
// mode the disk is not touched at all.
func (c *DiskTraceCache) Get(key string) (Comm, bool) {
	stem, data, ok := c.get(key)
	if !ok {
		return nil, false
	}
	// The bound exists to reject hostile headers; our own cache files
	// are trusted, so raise it well past any machine this repo models.
	csr, err := trace.ReadCSR(bytes.NewReader(data), trace.ReadOptions{MaxRanks: 1 << 26})
	if err != nil {
		// The disk read succeeded but the bytes are wrong: a content
		// problem, not a disk-health problem.
		c.store.Quarantine(stem)
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return csr, true
}

// Put implements TraceCache, serializing via the trace's WriteTo and
// handing the bytes to the store (temp file + rename, LRU eviction to the
// byte budget, retry/degrade on failure — a Put that cannot reach the disk
// keeps the bytes in the memory fallback so the build is not lost).
// Traces that cannot be serialized are declined silently.
func (c *DiskTraceCache) Put(key string, comm Comm) {
	w, ok := comm.(io.WriterTo)
	if !ok {
		return
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		return
	}
	c.store.Put(hashStem(key), buf.Bytes())
}
