package lru

import "testing"

func TestLRUEviction(t *testing.T) {
	c := New[[]byte](2)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	if n := c.Put("c", []byte("3")); n != 1 { // evicts b
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
	off := New[[]byte](0)
	off.Put("a", []byte("1"))
	if _, ok := off.Get("a"); ok {
		t.Fatal("disabled cache returned a value")
	}
}

// A resident key keeps its value (every user's values are deterministic
// per key) but is refreshed, so the other entry is the one evicted next.
func TestLRUPutExistingKeepsValueAndRefreshes(t *testing.T) {
	c := New[string](2)
	c.Put("a", "first")
	c.Put("b", "b")
	if n := c.Put("a", "second"); n != 0 {
		t.Fatalf("re-Put evicted %d entries", n)
	}
	if v, _ := c.Get("a"); v != "first" {
		t.Fatalf("resident value replaced: %q", v)
	}
	c.Put("c", "c")
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been the eviction victim after a's refresh")
	}
}

// hcserve's result-cache hit path runs through Get on every request.
func TestLRUGetDoesNotAllocate(t *testing.T) {
	c := New[[]byte](4)
	c.Put("k", []byte("doc"))
	if a := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get("k"); !ok {
			t.Fatal("miss")
		}
		c.Get("absent")
	}); a != 0 {
		t.Fatalf("Get allocates %v per call, want 0", a)
	}
}
