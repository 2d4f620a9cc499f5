package lru

import (
	"fmt"
	"testing"
)

func TestLRUEviction(t *testing.T) {
	c := New[[]byte](2, nil)
	c.Put("a", []byte("1"), 1)
	c.Put("b", []byte("2"), 1)
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	if n := c.Put("c", []byte("3"), 1); n != 1 { // evicts b
		t.Fatalf("Put reported %d evictions, want 1", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite refresh")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// Capacity 0 disables caching entirely.
	off := New[[]byte](0, nil)
	off.Put("a", []byte("1"), 1)
	if _, ok := off.Get("a"); ok {
		t.Fatal("disabled cache returned a value")
	}
}

// A resident key keeps its value (every user's values are deterministic
// per key) but is refreshed, so the other entry is the one evicted next.
func TestLRUPutExistingKeepsValueAndRefreshes(t *testing.T) {
	c := New[string](2, nil)
	c.Put("a", "first", 1)
	c.Put("b", "b", 1)
	if n := c.Put("a", "second", 1); n != 0 {
		t.Fatalf("re-Put evicted %d entries", n)
	}
	if v, _ := c.Get("a"); v != "first" {
		t.Fatalf("resident value replaced: %q", v)
	}
	c.Put("c", "c", 1)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been the eviction victim after a's refresh")
	}
}

// hcserve's result-cache hit path runs through Get on every request.
func TestLRUGetDoesNotAllocate(t *testing.T) {
	c := New[[]byte](4, nil)
	c.Put("k", []byte("doc"), 1)
	if a := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get("k"); !ok {
			t.Fatal("miss")
		}
		c.Get("absent")
	}); a != 0 {
		t.Fatalf("Get allocates %v per call, want 0", a)
	}
}

// GetBytes finds a key held in a byte slice without allocating, and does not
// keep the slice: overwriting it afterwards leaves the entry findable under
// its own key and no other.
func TestLRUGetBytesDoesNotAllocateOrKeepKey(t *testing.T) {
	c := New[[]byte](4, nil)
	c.Put("k", []byte("doc"), 1)
	key, absent := []byte("k"), []byte("absent")
	if a := testing.AllocsPerRun(100, func() {
		if _, ok := c.GetBytes(key); !ok {
			t.Fatal("miss")
		}
		c.GetBytes(absent)
	}); a != 0 {
		t.Fatalf("GetBytes allocates %v per call, want 0", a)
	}
	key[0] = 'x'
	if _, ok := c.GetBytes([]byte("k")); !ok {
		t.Fatal("the entry was lost when the looked-up slice changed")
	}
	if _, ok := c.Get("x"); ok || c.Len() != 1 {
		t.Fatalf("the looked-up slice became a key: %d entries", c.Len())
	}
}

// A weighted cache evicts least recently used entries until the summed
// weight fits, calling the hook for each, and keeps the newest entry even
// when it alone outweighs the capacity.
func TestLRUWeightedEvictionCallsHook(t *testing.T) {
	var evicted []string
	c := New[int](10, func(key string, v int) { evicted = append(evicted, fmt.Sprintf("%s=%d", key, v)) })
	c.Put("a", 1, 4)
	c.Put("b", 2, 4)
	c.Get("a") // b becomes least recently used
	if n := c.Put("c", 3, 4); n != 1 || fmt.Sprint(evicted) != "[b=2]" {
		t.Fatalf("Put evicted %d, hook saw %v; want 1 and [b=2]", n, evicted)
	}
	if c.Len() != 2 || c.Weight() != 8 {
		t.Fatalf("Len, Weight = %d, %d; want 2, 8", c.Len(), c.Weight())
	}
	// Heavier than the capacity: everything older goes, the newcomer stays.
	if n := c.Put("big", 4, 25); n != 2 || fmt.Sprint(evicted) != "[b=2 a=1 c=3]" {
		t.Fatalf("Put evicted %d, hook saw %v; want 2 more, a then c", n, evicted)
	}
	if v, ok := c.Get("big"); !ok || v != 4 || c.Len() != 1 || c.Weight() != 25 {
		t.Fatalf("Get(big) = %d, %v with Len %d, Weight %d; want the newest entry alone", v, ok, c.Len(), c.Weight())
	}
	// A re-Put keeps the resident weight.
	c.Put("big", 5, 1)
	if c.Weight() != 25 {
		t.Fatalf("re-Put changed the weight to %d", c.Weight())
	}
}

// Remove drops an entry and its weight without calling the hook.
func TestLRURemoveSkipsHook(t *testing.T) {
	calls := 0
	c := New[string](3, func(string, string) { calls++ })
	c.Put("a", "a", 2)
	c.Put("b", "b", 1)
	if !c.Remove("a") || c.Remove("a") || c.Remove("absent") {
		t.Fatal("Remove reports residency wrongly")
	}
	if _, ok := c.Get("a"); ok || c.Len() != 1 || c.Weight() != 1 || calls != 0 {
		t.Fatalf("after Remove: Len %d, Weight %d, hook calls %d; want 1, 1, 0", c.Len(), c.Weight(), calls)
	}
	c.Put("c", "c", 2) // fits again: the removed weight is gone
	if calls != 0 || c.Len() != 2 {
		t.Fatalf("Put after Remove evicted (hook calls %d, Len %d)", calls, c.Len())
	}
}
