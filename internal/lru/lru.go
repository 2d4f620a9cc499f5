// Package lru is the repository's one LRU map: hcserve's result cache and
// the in-memory trace cache bound it by entry count (every entry weighs
// 1), and diskstore's index bounds it by blob bytes (every entry weighs
// its file's size) with an eviction hook that deletes the evicted file.
// Copy-on-put/copy-on-get and hit/miss counters are the callers' business;
// the cache stores values as given.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps string keys to weighted values, holding at most its capacity
// in summed weight and evicting the least recently used. It is safe for
// concurrent use.
type Cache[V any] struct {
	mu      sync.Mutex
	cap     int64
	weight  int64      // summed weight of the resident entries
	ll      *list.List // front = most recently used
	byKey   map[string]*list.Element
	onEvict func(key string, val V)
}

type entry[V any] struct {
	key    string
	val    V
	weight int64
}

// New returns a cache holding up to capacity in summed weight; capacity
// <= 0 disables it (Put stores nothing, every Get misses). onEvict, when
// non-nil, is called for every entry capacity pressure evicts, with the
// cache's lock held, so it must not call back into the cache; Remove does
// not call it.
func New[V any](capacity int64, onEvict func(key string, val V)) *Cache[V] {
	return &Cache[V]{cap: capacity, ll: list.New(), byKey: map[string]*list.Element{}, onEvict: onEvict}
}

// Get returns the value cached under key and marks it most recently used.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	if c.cap <= 0 {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touch(c.byKey[key])
}

// GetBytes is Get for a key held in a byte slice. It neither allocates nor
// keeps key, so the caller may reuse the slice once it returns.
func (c *Cache[V]) GetBytes(key []byte) (v V, ok bool) {
	if c.cap <= 0 {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touch(c.byKey[string(key)])
}

// touch marks a looked-up element most recently used and returns its value;
// a nil element is a miss.
func (c *Cache[V]) touch(el *list.Element) (v V, ok bool) {
	if el == nil {
		return v, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put caches val under key with the given weight and returns how many
// entries capacity pressure evicted, least recently used first. The entry
// just put is never evicted, so one heavier than the whole capacity still
// stays until the next Put. Every user's values are deterministic per key,
// so a key already resident keeps its value and weight and is only marked
// most recently used.
func (c *Cache[V]) Put(key string, val V, weight int64) (evicted int) {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return 0
	}
	c.byKey[key] = c.ll.PushFront(&entry[V]{key: key, val: val, weight: weight})
	c.weight += weight
	for c.weight > c.cap && c.ll.Len() > 1 {
		e := c.remove(c.ll.Back())
		if c.onEvict != nil {
			c.onEvict(e.key, e.val)
		}
		evicted++
	}
	return evicted
}

// Remove drops key without calling the eviction hook and reports whether
// it was resident.
func (c *Cache[V]) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if ok {
		c.remove(el)
	}
	return ok
}

func (c *Cache[V]) remove(el *list.Element) *entry[V] {
	e := c.ll.Remove(el).(*entry[V])
	delete(c.byKey, e.key)
	c.weight -= e.weight
	return e
}

// Len returns the live entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Weight returns the summed weight of the live entries.
func (c *Cache[V]) Weight() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.weight
}
