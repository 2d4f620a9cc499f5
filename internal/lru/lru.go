// Package lru is the repository's one entry-bounded LRU map: hcserve's
// result cache, the in-memory trace cache and diskstore's degraded-mode
// fallback are instances of it. Copy-on-put/copy-on-get and hit/miss/
// eviction counters are the callers' business; the cache stores values as
// given.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps string keys to values, holding at most its capacity in
// entries and evicting the least recently used. It is safe for concurrent
// use.
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
}

type entry[V any] struct {
	key string
	val V
}

// New returns a cache holding up to capacity entries; capacity <= 0
// disables it (Put stores nothing, every Get misses).
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{cap: capacity, ll: list.New(), byKey: map[string]*list.Element{}}
}

// Get returns the value cached under key and marks it most recently used.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	if c.cap <= 0 {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return v, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put caches val under key and returns how many entries capacity pressure
// evicted. Every user's values are deterministic per key, so a key already
// resident keeps its value and is only marked most recently used.
func (c *Cache[V]) Put(key string, val V) (evicted int) {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return 0
	}
	c.byKey[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*entry[V]).key)
		evicted++
	}
	return evicted
}

// Len returns the live entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
