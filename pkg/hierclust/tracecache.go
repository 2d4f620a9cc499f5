package hierclust

import (
	"fmt"
	"sync/atomic"

	"hierclust/internal/lru"
	"hierclust/internal/tsunami"
)

// A "tsunami" trace is the message schedule of the traced application
// (tsunami.Schedule) recorded into a sparse matrix. Scenarios that differ
// only in strategies, mix, or baseline share the *same* trace, so the
// trace cache sits beneath the scenario-result cache and keys on exactly
// the inputs that determine the trace: any scenario family sharing a
// trace records it once.

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

// TraceCacheStats is MemoryTraceCache's observability surface; hcserve
// exposes its entry count on /metrics.
type TraceCacheStats struct {
	// Hits and Misses count Get outcomes since construction.
	Hits, Misses int64
	// Entries is the current entry count.
	Entries int
}

// MemoryTraceCache caches recorded traces ("tsunami" sources) by TraceKey,
// beneath the scenario-result cache: a fixed-capacity in-memory LRU, safe
// for concurrent use. Traces are shared by reference (no copy), so hits
// cost nothing beyond a map lookup — sound because a frozen CSR has no
// mutating method (the frozen-CSR immutability invariant the trace and
// graph packages pin). Capacity bounds entry count, not bytes — size it
// against the O(ranks + distinct pairs) CSR footprint of the machines you
// serve.
type MemoryTraceCache struct {
	lru  *lru.Cache[Comm]
	hits atomic.Int64
	miss atomic.Int64
}

// NewMemoryTraceCache returns an LRU trace cache holding up to capacity
// traces; capacity <= 0 disables caching (every Get misses).
func NewMemoryTraceCache(capacity int) *MemoryTraceCache {
	return &MemoryTraceCache{lru: lru.New[Comm](int64(capacity), nil)}
}

// Get returns the cached trace for key, if present.
func (c *MemoryTraceCache) Get(key string) (Comm, bool) {
	comm, ok := c.lru.Get(key)
	if !ok {
		c.miss.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return comm, true
}

// Put stores a freshly built trace. Traces are deterministic per key, so a
// key already resident keeps its trace.
func (c *MemoryTraceCache) Put(key string, comm Comm) { c.lru.Put(key, comm, 1) }

// Stats returns lifetime counters and the current entry count.
func (c *MemoryTraceCache) Stats() TraceCacheStats {
	return TraceCacheStats{Hits: c.hits.Load(), Misses: c.miss.Load(), Entries: c.lru.Len()}
}
