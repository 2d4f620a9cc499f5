package hierclust

import (
	"fmt"
	"sync"

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

// MemoryTraceCache caches recorded traces ("tsunami" sources) by TraceKey,
// beneath the scenario-result cache: a fixed-capacity in-memory LRU, safe
// for concurrent use, that is also the table of builds in flight. The first
// lookup of an absent key inserts a pending entry, which counts against the
// capacity, and builds it; later lookups wait on it, so concurrent misses on
// one key record the trace once. Traces are shared by reference (no copy) —
// sound because a frozen CSR has no mutating method (the frozen-CSR
// immutability invariant the trace and graph packages pin). Capacity bounds
// entry count, not bytes — size it against the O(ranks + distinct pairs)
// CSR footprint of the machines you serve.
type MemoryTraceCache struct {
	// mu makes a lookup's insert of a pending entry, and a failed build's
	// removal of it, one step against every other lookup.
	mu  sync.Mutex
	lru *lru.Cache[*traceEntry]
}

// traceEntry is one key's trace: final once done is closed. A build that
// failed leaves the table before done closes, so err reaches only the
// callers that waited on it.
type traceEntry struct {
	done chan struct{}
	comm Comm
	err  error
}

// NewMemoryTraceCache returns an LRU trace cache holding up to capacity
// traces; capacity <= 0 disables caching (every Get misses, and every
// lookup builds its own trace).
func NewMemoryTraceCache(capacity int) *MemoryTraceCache {
	return &MemoryTraceCache{lru: lru.New[*traceEntry](int64(capacity), nil)}
}

// Get returns the trace cached under key, if present and built.
func (c *MemoryTraceCache) Get(key string) (Comm, bool) {
	if e, ok := c.lru.Get(key); ok {
		select {
		case <-e.done:
			return e.comm, e.err == nil
		default:
		}
	}
	return nil, false
}

// lookup returns key's entry, inserting a pending one when key is absent;
// build reports that the caller inserted it and must publish it.
func (c *MemoryTraceCache) lookup(key string) (e *traceEntry, build bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.lru.Get(key); ok {
		return e, false
	}
	e = &traceEntry{done: make(chan struct{})}
	c.lru.Put(key, e, 1)
	return e, true
}

// publish ends the build of e, which lookup inserted under key: a failed
// build leaves the table first, so the next lookup builds again.
func (c *MemoryTraceCache) publish(key string, e *traceEntry) {
	if e.err != nil {
		c.mu.Lock()
		if cur, ok := c.lru.Get(key); ok && cur == e {
			c.lru.Remove(key)
		}
		c.mu.Unlock()
	}
	close(e.done)
}

// Len returns the entry count, pending builds included.
func (c *MemoryTraceCache) Len() int { return c.lru.Len() }
