package pool

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// goid returns the calling goroutine's id token from its stack header
// ("goroutine 123 [running]:"), to tell the caller's goroutine from a
// pooled one.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestRunEveryIndexExactlyOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{-1, 0, 1, 2, 8, n + 5} {
		counts := make([]atomic.Int32, n)
		claimed := Run(n, workers, counts, nil, func(counts []atomic.Int32, i, _ int) { counts[i].Add(1) })
		if claimed != n {
			t.Errorf("workers=%d: claimed %d, want %d", workers, claimed, n)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunZeroItemsIsNoOp(t *testing.T) {
	for _, workers := range []int{0, 1, 8} {
		if claimed := Run(0, workers, t, nil, func(t *testing.T, _, _ int) { t.Error("fn called for n == 0") }); claimed != 0 {
			t.Errorf("workers=%d: claimed %d, want 0", workers, claimed)
		}
	}
}

func TestRunInlineUsesCallerGoroutine(t *testing.T) {
	caller := goid()
	var order []int
	check := func(order *[]int, i, worker int) {
		if g := goid(); g != caller {
			t.Errorf("index %d ran on goroutine %s, caller is %s", i, g, caller)
		}
		if worker != 0 {
			t.Errorf("inline worker id = %d, want 0", worker)
		}
		*order = append(*order, i)
	}
	Run(5, 1, &order, nil, check) // one worker
	Run(1, 8, &order, nil, check) // one item, many workers
	want := []int{0, 1, 2, 3, 4, 0}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("inline order %v, want %v", order, want)
		}
	}
}

// summer is loop state handed to Run as its argument, with method
// expressions for fn and stop: the form that allocates no closure.
type summer struct{ sum int }

func (s *summer) add(i, _ int) { s.sum += i }
func (s *summer) full() bool   { return s.sum > 1<<20 }

func TestRunInlineDoesNotAllocate(t *testing.T) {
	s := new(summer)
	if a := testing.AllocsPerRun(100, func() { Run(64, 1, s, (*summer).full, (*summer).add) }); a != 0 {
		t.Errorf("single-worker Run allocates %v per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { Run(1, 8, s, nil, (*summer).add) }); a != 0 {
		t.Errorf("single-item Run allocates %v per call, want 0", a)
	}
}

func TestRunStopLeavesContiguousUnclaimedSuffix(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, 8} {
		var stopped atomic.Bool
		ran := make([]atomic.Bool, n)
		claimed := Run(n, workers, &stopped, (*atomic.Bool).Load, func(stopped *atomic.Bool, i, _ int) {
			ran[i].Store(true)
			if i == 20 {
				stopped.Store(true)
			}
		})
		if claimed <= 20 || claimed > n {
			t.Errorf("workers=%d: claimed %d, want in (20, %d]", workers, claimed, n)
		}
		if workers == 1 && claimed != 21 {
			t.Errorf("inline: claimed %d, want 21", claimed)
		}
		for i := range ran {
			if got, want := ran[i].Load(), i < claimed; got != want {
				t.Errorf("workers=%d claimed=%d: index %d ran=%v", workers, claimed, i, got)
			}
		}
	}
	// A predicate that is already true claims nothing.
	if claimed := Run(n, 4, t, func(*testing.T) bool { return true }, func(t *testing.T, _, _ int) { t.Error("fn called after stop") }); claimed != 0 {
		t.Errorf("pre-stopped: claimed %d, want 0", claimed)
	}
}

func TestRunWorkerIDsBoundedAndStable(t *testing.T) {
	const n, workers = 500, 4
	var mu sync.Mutex
	owner := map[int]string{} // worker id -> goroutine
	Run(n, workers, owner, nil, func(owner map[int]string, _, w int) {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of [0,%d)", w, workers)
			return
		}
		g := goid()
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := owner[w]; ok && prev != g {
			t.Errorf("worker id %d used by goroutines %s and %s", w, prev, g)
		}
		owner[w] = g
		runtime.Gosched() // let the other workers claim too
	})
	seen := map[string]int{}
	for w, g := range owner {
		if other, dup := seen[g]; dup {
			t.Errorf("goroutine %s ran as workers %d and %d", g, other, w)
		}
		seen[g] = w
	}
}
